"""Checkpointed state, the job entrypoint scripts and the signature store."""

import json
import os
import subprocess
import sys

import pyarrow as pa
import pytest
import ray

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_run_flagship_script(tmp_path):
    """The ray-job entrypoint runs end-to-end with checkpoints + resume."""
    from tdigest_ray.sources import pages

    pages_dir = pages.pages_path(2000, root=str(tmp_path / "pages"), shards=2)
    out1 = tmp_path / "out1"
    ckpt = tmp_path / "ckpt"
    cmd = [
        sys.executable, "scripts/run_flagship.py",
        "--input", pages_dir, "--output", str(out1),
        "--checkpoint-dir", str(ckpt), "--compression", "50",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(
        [l for l in proc.stdout.splitlines() if l.startswith("{")][-1])
    assert report["rows_in"] == 2000
    assert report["docs_per_sec"] > 0

    # resume run: all parts already checkpointed, still succeeds
    out2 = tmp_path / "out2"
    cmd[cmd.index(str(out1))] = str(out2)
    proc2 = subprocess.run(cmd, capture_output=True, text=True,
                           cwd=ROOT)
    assert proc2.returncode == 0, proc2.stderr[-2000:]
    assert "[ckpt] done" not in proc2.stdout  # nothing re-processed


def test_run_flagship_script_same_output_both_ways(tmp_path):
    """With and without ``--checkpoint-dir`` the CLI writes the same
    columns — every feature's quantiles and count — and the exact same
    per-language counts."""
    import pyarrow.parquet as pq

    from tdigest_ray.sources import pages

    pages_dir = pages.pages_path(1500, root=str(tmp_path / "pages"), shards=3)
    outs = {}
    for mode, extra in (("plain", []),
                        ("ckpt", ["--checkpoint-dir", str(tmp_path / "ckpt")])):
        out = str(tmp_path / f"out-{mode}")
        proc = subprocess.run(
            [sys.executable, "scripts/run_flagship.py", "--input", pages_dir,
             "--output", out, "--compression", "50", *extra],
            capture_output=True, text=True, cwd=ROOT)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outs[mode] = pq.read_table(out)
    plain, ckpt = outs["plain"], outs["ckpt"]
    assert ckpt.column_names == plain.column_names
    counts = [f"{f}_count" for f in ("text_len", "token_count", "html_size")]
    assert set(counts) <= set(plain.column_names)
    exact = (pq.read_table(pages_dir, columns=["lang"]).to_pandas()
             .groupby("lang").size())

    def by_lang(tbl):
        return tbl.to_pandas().set_index("lang").sort_index()[counts]

    assert by_lang(ckpt).equals(by_lang(plain))
    for c in counts:
        assert (by_lang(ckpt)[c] == exact.sort_index()).all()


class TestSignatureStore:
    def test_sign_resume_and_dedup_from_store(self, tmp_path):
        """Checkpointed signature pass: resumable per input file, and
        dedup-from-store produces the same clusters as the direct path."""
        import pyarrow.parquet as pq

        from tdigest_ray.stages import dedup

        base = ("the quick brown fox jumps over the lazy dog and runs "
                "far beyond the hills today " * 4)
        texts_a = [base, "unrelated content about cooking pasta " * 6]
        texts_b = [base.replace("far", "away"),
                   "ray data streaming with arrow blocks " * 6]
        files = []
        for i, texts in enumerate([texts_a, texts_b]):
            p = str(tmp_path / f"docs{i}.parquet")
            pq.write_table(pa.table({
                "doc_id": pa.array([2 * i, 2 * i + 1], pa.int64()),
                "text": pa.array(texts),
            }), p)
            files.append(p)
        sig_dir = str(tmp_path / "sigs")

        parts = dedup.sign_corpus(files, sig_dir)
        assert len(parts) == 2
        # resume: second run re-signs nothing (same part paths, same mtimes)
        import os

        mtimes = {p: os.path.getmtime(p) for p in parts}
        parts2 = dedup.sign_corpus(files, sig_dir)
        assert parts2 == parts
        assert {p: os.path.getmtime(p) for p in parts2} == mtimes

        clusters, n_pairs = dedup.minhash_dedup_from_sigs(
            parts, threshold=0.5)
        assert clusters.get(2) == 0  # near-dup of doc 0 across files
        assert 1 not in clusters and 3 not in clusters

        # parity with the direct in-memory path over the same corpus
        ds = ray.data.read_parquet(files)
        direct, _ = dedup.minhash_dedup(ds, threshold=0.5)
        assert clusters == direct


def test_atomic_output_swap_contract(tmp_path):
    """The two-rename directory swap: success replaces stale parts
    completely (no generation mixing, no leftover temp dirs); a failed
    write leaves the previous output byte-for-byte untouched."""
    import os

    import pytest

    from tdigest_ray.state import checkpoint

    out = str(tmp_path / "labels")
    first = ray.data.from_arrow(pa.table({"x": pa.array([1, 2, 3])}))
    n = checkpoint.atomic_output_swap(first, out)
    assert n >= 1
    old_parts = sorted(os.listdir(out))

    # replacement run: different data, old parts fully gone
    second = ray.data.from_arrow(pa.table({"x": pa.array([7, 8])}))
    checkpoint.atomic_output_swap(second, out)
    assert sorted(os.listdir(out)) != old_parts
    assert ray.data.read_parquet(out).count() == 2
    assert not os.path.exists(out + ".inprogress")
    assert not os.path.exists(out + ".old")

    # failed write: previous output untouched
    class ExplodingDS:
        def write_parquet(self, path):
            raise RuntimeError("disk full")

    with pytest.raises(RuntimeError, match="disk full"):
        checkpoint.atomic_output_swap(ExplodingDS(), out)
    assert ray.data.read_parquet(out).count() == 2

    # crash-between-renames recovery: simulate a run that died after
    # `output -> .old` but before `.inprogress -> output`; the retry must
    # restore .old to live BEFORE deleting anything, so even a retry
    # whose own write fails leaves the last good generation intact
    os.rename(out, out + ".old")
    assert not os.path.exists(out)
    with pytest.raises(RuntimeError, match="disk full"):
        checkpoint.atomic_output_swap(ExplodingDS(), out)
    assert ray.data.read_parquet(out).count() == 2
    assert not os.path.exists(out + ".old")


def test_sign_crash_resume_byte_identical(tmp_path, monkeypatch):
    """Fault injection (VERDICT r3 item 6): the signing run dies after 2
    of 4 parts (injected exception simulating a node loss); the resumed
    run signs ONLY the missing files, the recovered signature store is
    data-identical to an uninterrupted run's, and the final clustering
    output is identical too — SCALE.md's resume claim as a pinned
    contract."""
    import pytest

    import pyarrow.parquet as pq

    from tdigest_ray.stages import dedup
    from tdigest_ray.state import checkpoint

    base = ("the quick brown fox jumps over the lazy dog and runs far "
            "beyond the hills today " * 4)
    texts = [
        [base, "cooking pasta at home tonight " * 6],
        ["ray data streaming with arrow blocks " * 6,
         "gardening tips for dry summers " * 6],
        [base.replace("far", "away"), "mountain hiking trail notes " * 6],
        ["deep sea fishing expedition logs " * 6,
         "urban cycling route reviews " * 6],
    ]
    files = []
    for i, tt in enumerate(texts):
        p = str(tmp_path / f"docs{i}.parquet")
        pq.write_table(pa.table({
            "doc_id": pa.array([2 * i, 2 * i + 1], pa.int64()),
            "text": pa.array(tt),
        }), p)
        files.append(p)

    ref_dir = str(tmp_path / "sig_ref")
    dedup.sign_corpus(files, ref_dir)

    crash_dir = str(tmp_path / "sig_crash")
    orig = checkpoint.run_partition
    state = {"n": 0}

    def failing(input_file, ckpt_dir, digest_fn, *a, **kw):
        if state["n"] == 2:
            raise RuntimeError("injected node loss")
        state["n"] += 1
        return orig(input_file, ckpt_dir, digest_fn, *a, **kw)

    monkeypatch.setattr(checkpoint, "run_partition", failing)
    # max_concurrent=1 keeps the injection point deterministic (exactly
    # two files complete before the "node loss"); concurrent resume is
    # covered by TestCheckpoint.test_run_resume_and_lineage
    with pytest.raises(RuntimeError, match="injected node loss"):
        dedup.sign_corpus(files, crash_dir, max_concurrent=1)
    done_after_crash = checkpoint.completed_files(crash_dir)
    assert len(done_after_crash) == 2  # exactly the parts that finished

    monkeypatch.setattr(checkpoint, "run_partition", orig)
    resumed = {"files": []}

    def counting(input_file, ckpt_dir, digest_fn, *a, **kw):
        resumed["files"].append(input_file)
        return orig(input_file, ckpt_dir, digest_fn, *a, **kw)

    monkeypatch.setattr(checkpoint, "run_partition", counting)
    parts = dedup.sign_corpus(files, crash_dir)
    assert len(parts) == 4
    # the resume signed ONLY the two missing files
    assert sorted(resumed["files"]) == sorted(
        set(files) - set(done_after_crash))

    # signature store data (schema + every row) identical to the
    # uninterrupted run's — lineage metadata (wall_ms) aside
    ref_parts = checkpoint.completed_files(ref_dir)
    crash_parts = checkpoint.completed_files(crash_dir)
    for f in files:
        a = pq.read_table(ref_parts[f]).replace_schema_metadata()
        b = pq.read_table(crash_parts[f]).replace_schema_metadata()
        assert a.equals(b), f

    # final clustering identical
    la, na, _ = dedup.minhash_labels_from_sigs(ref_dir, threshold=0.5)
    lb, nb, _ = dedup.minhash_labels_from_sigs(crash_dir, threshold=0.5)
    assert na == nb and na > 0
    assert (dedup._labels_to_clusters(la)
            == dedup._labels_to_clusters(lb))


def test_run_dedup_script(tmp_path):
    """The dedup job entrypoint runs end-to-end: sign (checkpointed) ->
    cluster -> clusters.parquet + JSON report; resume reuses all parts."""
    import pyarrow.parquet as pq

    base = ("the quick brown fox jumps over the lazy dog and runs far "
            "beyond the hills " * 4)
    docs_dir = tmp_path / "docs"
    docs_dir.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array([base, "unrelated pasta cooking at home " * 6]),
    }), str(docs_dir / "a.parquet"))
    pq.write_table(pa.table({
        "doc_id": pa.array([2, 3], pa.int64()),
        "text": pa.array([base.replace("far", "away"),
                          "ray data streaming with arrow " * 6]),
    }), str(docs_dir / "b.parquet"))

    cmd = [
        sys.executable, "scripts/run_dedup.py",
        "--input", str(docs_dir), "--sig-dir", str(tmp_path / "sigs"),
        "--output", str(tmp_path / "out"), "--threshold", "0.5",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(
        [l for l in proc.stdout.splitlines() if l.startswith("{")][-1])
    assert report["files_signed"] == 2 and report["clusters"] == 1
    # labels are written as a parquet DIRECTORY straight from the label
    # Dataset (nothing cluster-sized on the driver)
    clusters = pq.read_table(str(tmp_path / "out"))
    got = dict(zip(clusters.column("doc_id").to_pylist(),
                   clusters.column("cluster_id").to_pylist()))
    assert got == {0: 0, 2: 0}

    proc2 = subprocess.run(cmd, capture_output=True, text=True,
                           cwd=ROOT)
    assert proc2.returncode == 0, proc2.stderr[-2000:]
    report2 = json.loads(
        [l for l in proc2.stdout.splitlines() if l.startswith("{")][-1])
    assert report2["files_signed"] == 0 and report2["files_reused"] == 2


def test_sign_corpus_rejects_parameter_mismatch(tmp_path):
    """A signature store pins its parameters; re-signing with different
    num_perm/bands must raise instead of silently mixing signatures."""
    import pyarrow.parquet as pq

    import pytest

    from tdigest_ray.stages import dedup

    p = str(tmp_path / "d.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([0], pa.int64()),
        "text": pa.array(["some document text here for signing"]),
    }), p)
    sig_dir = str(tmp_path / "sigs")
    dedup.sign_corpus([p], sig_dir, num_perm=128)
    with pytest.raises(ValueError, match="incompatible"):
        dedup.sign_corpus([p], sig_dir, num_perm=64)
    with pytest.raises(ValueError, match="incompatible"):
        dedup.sign_corpus([p], sig_dir, bands=16)
    # matching parameters still resume cleanly
    assert len(dedup.sign_corpus([p], sig_dir, num_perm=128)) == 1


def test_dedup_from_sigs_accepts_store_dir(tmp_path):
    """minhash_dedup_from_sigs takes the store DIRECTORY and adopts its
    pinned banding parameters."""
    import pyarrow.parquet as pq

    from tdigest_ray.stages import dedup

    # a very-high-jaccard pair: with bands=16 (rows=8) a band collides
    # with p = j^8, so j ~ 0.97 makes candidacy certain
    words = [f"w{i}" for i in range(120)]
    base = " ".join(words)
    near = " ".join(words[:-1] + ["zz"])
    p = str(tmp_path / "d.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array([base, near]),
    }), p)
    sig_dir = str(tmp_path / "sigs")
    dedup.sign_corpus([p], sig_dir, bands=16)
    clusters, n_pairs = dedup.minhash_dedup_from_sigs(sig_dir,
                                                      threshold=0.5)
    assert clusters.get(1) == 0 and n_pairs == 1


def test_incremental_corpus_growth_equals_full_resign(tmp_path):
    """The daily-crawl shape: signing NEW shards into an existing store
    (old parts untouched) then re-clustering must equal a from-scratch
    store over the full corpus — certifies that incremental growth only
    pays for the new shards."""
    import os

    import pyarrow.parquet as pq

    from tdigest_ray.stages import dedup

    base = ("sphinx of black quartz judge my vow said the professor "
            "while grading papers late into the night " * 4)
    day1 = [base, "cooking pasta with plenty of garlic and basil " * 6]
    day2 = [base.replace("night", "evening"),   # near-dup of doc 0
            "streaming arrow blocks through object stores " * 6]
    files = []
    for i, texts in enumerate([day1, day2]):
        p = str(tmp_path / f"day{i}.parquet")
        pq.write_table(pa.table({
            "doc_id": pa.array([2 * i, 2 * i + 1], pa.int64()),
            "text": pa.array(texts),
        }), p)
        files.append(p)

    # day 1: sign only the first shard
    inc_dir = str(tmp_path / "sigs_inc")
    parts_d1 = dedup.sign_corpus([files[0]], inc_dir)
    mtimes = {p: os.path.getmtime(p) for p in parts_d1}

    # day 2: sign the grown corpus into the SAME store — only the new
    # shard is signed (old part untouched byte-for-byte by mtime)
    parts_all = dedup.sign_corpus(files, inc_dir)
    assert set(parts_d1) <= set(parts_all) and len(parts_all) == 2
    for p in parts_d1:
        assert os.path.getmtime(p) == mtimes[p]

    # clustering from the incrementally-grown store == fresh store
    fresh_dir = str(tmp_path / "sigs_fresh")
    parts_fresh = dedup.sign_corpus(files, fresh_dir)
    inc_clusters, inc_pairs = dedup.minhash_dedup_from_sigs(
        parts_all, threshold=0.5)
    fresh_clusters, fresh_pairs = dedup.minhash_dedup_from_sigs(
        parts_fresh, threshold=0.5)
    assert inc_clusters == fresh_clusters and inc_pairs == fresh_pairs
    assert inc_clusters.get(2) == 0  # cross-day near-dup found


def test_atomic_swap_partitioned_layout(tmp_path):
    """partition_cols writes hive-style key=value subdirectories inside
    the same crash-safe two-rename swap."""
    import glob
    import os

    from tdigest_ray.state import checkpoint

    out = str(tmp_path / "out")
    ds = ray.data.from_arrow(pa.table({
        "lang": pa.array(["en", "fr", "en", "de"]),
        "v": pa.array([1.0, 2.0, 3.0, 4.0]),
    }))
    n = checkpoint.atomic_output_swap(ds, out, partition_cols=["lang"])
    assert n >= 3
    langs = {os.path.basename(p) for p in glob.glob(f"{out}/lang=*")}
    assert langs == {"lang=en", "lang=fr", "lang=de"}
    back = ray.data.read_parquet(out).to_pandas()
    assert len(back) == 4 and set(back["lang"]) == {"en", "fr", "de"}
    # re-swap replaces the whole generation (no stale partitions)
    ds2 = ray.data.from_arrow(pa.table({
        "lang": pa.array(["zz"]), "v": pa.array([9.0])}))
    checkpoint.atomic_output_swap(ds2, out, partition_cols=["lang"])
    assert {os.path.basename(p) for p in glob.glob(f"{out}/lang=*")} == {
        "lang=zz"}


def test_first_failure_cancels_queued_files(tmp_path):
    """A systematic per-file error surfaces after ~max_concurrent files,
    not after the whole corpus: the pool cancels not-yet-started files on
    the first failure (code-review finding — the old as_completed loop
    let ThreadPoolExecutor.__exit__ drain the entire queue first)."""
    import pyarrow.parquet as pq
    import pytest

    from tdigest_ray.state import checkpoint

    files = []
    for i in range(12):
        p = str(tmp_path / f"in{i}.parquet")
        pq.write_table(pa.table({"doc_id": pa.array([i], pa.int64()),
                                 "v": pa.array([float(i)])}), p)
        files.append(p)

    def digest_fn(ds):
        t = pa.concat_tables(
            [b for b in ds.iter_batches(batch_format="pyarrow")])
        if 0 in t.column("doc_id").to_pylist():
            raise RuntimeError("systematic digest bug")
        return t

    ckpt = str(tmp_path / "ckpt")
    with pytest.raises(RuntimeError, match="systematic digest bug"):
        checkpoint.run_with_checkpoints(files, ckpt, digest_fn,
                                        max_concurrent=1)
    done = checkpoint.completed_files(ckpt)
    # in-flight files may finish (worker threads race the cancellation);
    # the queue must NOT drain — the old behavior completed all 11
    assert len(done) <= 3, sorted(done)


@pytest.mark.parametrize("split_blocks", [1, 4])
def test_run_partition_executes_once(tmp_path, split_blocks):
    """A Dataset-returning ``digest_fn`` runs once: one UDF call per read
    block (``to_arrow_refs()`` alone would re-run the first block for
    the schema), and ``split_blocks=1`` reads exactly one block."""
    import os

    import pyarrow.parquet as pq

    from tdigest_ray.state import checkpoint

    p = str(tmp_path / "in.parquet")
    pq.write_table(pa.table({"v": pa.array(range(2500), pa.int64())}), p)
    log = str(tmp_path / "calls")

    def counted(batch):
        with open(log, "ab") as f:
            f.write(b".")
        return batch

    part = checkpoint.run_partition(
        p, str(tmp_path / "ckpt"),
        lambda ds: ds.map_batches(counted, batch_format="pyarrow",
                                  batch_size=None),
        split_blocks=split_blocks)
    blocks = ray.data.read_parquet(
        p, override_num_blocks=split_blocks).materialize().num_blocks()
    assert blocks == split_blocks
    assert os.path.getsize(log) == blocks
    assert pq.read_table(part).num_rows == 2500


def test_streaming_part_write_empty_and_multiblock(tmp_path):
    """The block-streaming part writer (one ref pinned at a time)
    preserves the one-shot path's contract: footer lineage metadata,
    resume detection, row equality across multiple blocks, and a
    schema-only part when the per-file result is empty."""
    import pyarrow.parquet as pq

    from tdigest_ray.state import checkpoint

    p = str(tmp_path / "in.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(100), pa.int64()),
        "v": pa.array([float(i) for i in range(100)]),
    }), p)
    ckpt = str(tmp_path / "ckpt")

    # multi-block Dataset result (split read -> several output blocks)
    part = checkpoint.run_partition(
        p, ckpt, lambda ds: ds.map_batches(lambda b: b,
                                           batch_format="pyarrow",
                                           batch_size=16),
        split_blocks=8)
    got = pq.read_table(part)
    assert sorted(got.column("doc_id").to_pylist()) == list(range(100))
    meta = pq.read_schema(part).metadata
    assert meta[b"input_file"].decode() == p
    assert meta[b"input_rows"] == b"100"
    assert checkpoint.completed_files(ckpt) == {p: part}

    # empty per-file result: part still records schema + lineage
    ckpt2 = str(tmp_path / "ckpt2")
    part2 = checkpoint.run_partition(
        p, ckpt2, lambda ds: ds.map_batches(lambda b: b.slice(0, 0),
                                            batch_format="pyarrow"))
    got2 = pq.read_table(part2)
    assert got2.num_rows == 0
    assert set(got2.schema.names) == {"doc_id", "v"}
    assert checkpoint.completed_files(ckpt2) == {p: part2}
