"""End-to-end pipeline tests: deterministic pages source, the flagship
per-language digest pipeline, checkpoint/resume, and the
byte-identical text-extraction invariant from BASELINE.json input_hint."""

import os
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray
from hypothesis import given, settings, strategies as st

from tdigest_ray.functions import serde
from tdigest_ray.pipelines import flagship
from tdigest_ray.sources import pages
from tdigest_ray.state import checkpoint

N_PAGES = 4000


@pytest.fixture(scope="module")
def pages_dir(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("pages"))
    return pages.pages_path(N_PAGES, root=root, shards=4)


class TestPagesSource:
    def test_deterministic_regeneration(self, pages_dir, tmp_path):
        other = pages.pages_path(N_PAGES, root=str(tmp_path), shards=4)
        a = pq.read_table(pages_dir).sort_by("url").to_pandas()
        b = pq.read_table(other).sort_by("url").to_pandas()
        assert a["text"].tolist() == b["text"].tolist()
        assert a["lang"].tolist() == b["lang"].tolist()

    def test_schema_and_skew(self, pages_dir):
        tbl = pq.read_table(pages_dir)
        assert {"url", "warc_ts", "html", "text", "lang"} <= set(
            tbl.column_names
        )
        counts = tbl.to_pandas()["lang"].value_counts(normalize=True)
        assert counts.idxmax() == "en" and counts.max() > 0.4  # hot key

    def test_extract_text_byte_identical(self, pages_dir):
        # input_hint invariant: extracted text is byte-identical to the
        # stored text column per url
        from tdigest_ray.stages.features import extract_text

        ds = ray.data.read_parquet(pages_dir,
                                   columns=["url", "html", "text"])
        checked = ds.map_batches(
            lambda b: extract_text(b).select(["url", "text",
                                              "extracted_text"]),
            batch_format="pyarrow",
        ).to_pandas()
        assert (checked["text"] == checked["extracted_text"]).all()


class TestFlagship:
    def test_flagship_quantiles_vs_exact(self, pages_dir):
        out = flagship.flagship(pages_dir, compression=100).to_pandas()
        raw = pq.read_table(pages_dir, columns=["text", "lang"]).to_pandas()
        raw["text_len"] = raw["text"].str.len()
        assert set(out["lang"]) == set(raw["lang"].unique())
        for _, row in out.iterrows():
            grp = raw[raw["lang"] == row["lang"]]["text_len"]
            assert row["text_len_count"] == len(grp)
            exact = grp.quantile(0.95)
            spread = grp.max() - grp.min()
            assert abs(row["text_len_p95"] - exact) <= max(0.02 * spread, 1)

    def test_cross_run_stability(self, pages_dir):
        # two executions of the same lazy pipeline: counts must be exactly
        # equal (count conservation is order-independent) and quantiles
        # within digest tolerance (combine order may differ across runs)
        a = flagship.flagship(pages_dir).to_pandas().set_index("lang").sort_index()
        b = flagship.flagship(pages_dir).to_pandas().set_index("lang").sort_index()
        assert (a["text_len_count"] == b["text_len_count"]).all()
        rel = ((a["text_len_p95"] - b["text_len_p95"]).abs()
               / a["text_len_p95"]).max()
        assert rel < 0.02

class TestCheckpoint:
    def _digest_fn(self, ds):
        return flagship.grouped_digests_table(
            flagship.prepare_features(ds, from_html=True),
            features=("text_len",), compression=100)

    def test_run_resume_and_lineage(self, pages_dir, tmp_path):
        files = sorted(
            os.path.join(pages_dir, f)
            for f in os.listdir(pages_dir)
            if f.endswith(".parquet")
        )
        ckpt = str(tmp_path / "ckpt")
        processed = []
        parts = checkpoint.run_with_checkpoints(
            files[:2], ckpt, self._digest_fn, on_progress=processed.append
        )
        assert len(parts) == 2 and len(processed) == 2

        # resume: already-done files are skipped, the rest complete
        processed2 = []
        parts = checkpoint.run_with_checkpoints(
            files, ckpt, self._digest_fn, on_progress=processed2.append
        )
        assert len(parts) == len(files)
        assert set(processed2) == set(files[2:])

        lin = checkpoint.lineage(ckpt)
        assert len(lin) == len(files)
        assert all(r["input_rows"] > 0 and r["engine"] for r in lin)

        # merged result matches a direct full-table run exactly on counts
        merged = checkpoint.merged_result(
            parts, "lang", "text_len_digest").to_pandas()
        raw = pq.read_table(pages_dir, columns=["lang"]).to_pandas()
        exact = raw.groupby("lang").size()
        got = merged.set_index("lang")["text_len_digest"].map(
            lambda b: serde.digest_count(bytes(b)))
        assert (got.sort_index() == exact.sort_index()).all()

    def test_partial_part_not_trusted(self, pages_dir, tmp_path):
        files = sorted(
            os.path.join(pages_dir, f)
            for f in os.listdir(pages_dir)
            if f.endswith(".parquet")
        )[:1]
        ckpt = str(tmp_path / "ckpt2")
        os.makedirs(ckpt)
        # a stray tmp file from a crashed run must not count as completed
        with open(os.path.join(ckpt, "part-deadbeef.parquet.tmp"), "wb") as f:
            f.write(b"garbage")
        assert checkpoint.pending_files(ckpt, files) == files


def test_merged_result_null_group_key(tmp_path):
    """Checkpoint parts keep a null group key as null. Merging parts that
    hold one gives a single null-key row with the exact null-key count;
    the other groups come out byte-identical to a merge of the same parts
    without their null rows."""
    import numpy as np
    import pyarrow as pa

    from tdigest_ray.stages.partial import (make_partial_digest_fn,
                                            merge_partial_digest_table)

    rng = np.random.default_rng(9)
    langs = np.array(["de", "en", "fr", None], dtype=object)
    partial = make_partial_digest_fn(["lang"], ["text_len"])
    with_null, null_free, n_null = [], [], 0
    for i in range(4):
        codes = rng.integers(0, 4, 300)
        n_null += int((codes == 3).sum())
        rows = pa.table({"lang": pa.array(langs[codes], pa.string()),
                         "text_len": rng.lognormal(6.0, 1.0, 300)})
        part = merge_partial_digest_table(partial(rows), "lang", "text_len")
        free = part.filter(pc.is_valid(part.column("lang")))
        for paths, tbl, tag in ((with_null, part, "with"),
                                (null_free, free, "free")):
            paths.append(str(tmp_path / f"{tag}-{i}.parquet"))
            pq.write_table(tbl, paths[-1])

    def merged(paths):
        return {r["lang"]: bytes(r["text_len_digest"]) for r in
                checkpoint.merged_result(paths, "lang",
                                         "text_len_digest").take_all()}

    got = merged(with_null)
    assert serde.digest_count(got.pop(None)) == n_null > 0
    assert got == merged(null_free)
    assert set(got) == {"de", "en", "fr"}


class TestMergedResultFold:
    """``merged_result`` folds the parts in the driver, part by part. It
    must give the bytes of one merge over all parts' rows at once."""

    COLS = ["a_digest", "b_digest"]

    @staticmethod
    def _schema():
        return pa.schema([("lang", pa.string()), ("a_digest", pa.binary()),
                          ("b_digest", pa.binary())])

    @staticmethod
    def _table(ds):
        return pa.concat_tables(ray.get(list(ds.to_arrow_refs())))

    @staticmethod
    def _oracle(parts, cols):
        """One merge of the concatenated rows: stable sort by key, then
        each group's blobs merged in row order (null keys last)."""

        from tdigest_ray.stages.partial import _group_slices, _wire

        tbl, starts, ends = _group_slices(
            pa.concat_tables(parts, promote_options="permissive"), ["lang"])
        out = {"lang": tbl.column("lang").take(starts)}
        for c in cols:
            blobs = tbl.column(c).to_pylist()
            out[c] = pa.array([_wire(serde.merge_blobs(blobs[s:e]))
                               for s, e in zip(starts, ends)], pa.binary())
        return pa.table(out)

    def _write(self, parts, root):
        paths = []
        for i, part in enumerate(parts):
            paths.append(os.path.join(root, f"part-{i}.parquet"))
            pq.write_table(part, paths[-1])
        return paths

    def test_hypothesis_parity(self):
        from tdigest_ray.sketches.tdigest import TDigest
        from tdigest_ray.stages.partial import merge_partial_digest_table

        def blob(spec):
            if spec is None:
                return None
            comp, seed, n = spec
            d = TDigest(comp)
            d.add_many(np.random.default_rng(seed).lognormal(3.0, 1.0, n))
            d.compress()
            return serde.to_bytes(d)

        # a digest cell: null (a group with no values) or a digest whose
        # compression varies, so the first-seen compression must win
        cell = st.one_of(st.none(), st.tuples(
            st.sampled_from([10, 50, 100]), st.integers(0, 2**16),
            st.integers(1, 300)))
        # duplicate keys inside one part, null keys, zero-row parts
        row = st.tuples(st.sampled_from(["de", "en", "fr", None]), cell, cell)
        parts_st = st.lists(st.lists(row, max_size=6), min_size=1,
                            max_size=4)

        @settings(max_examples=40, deadline=None)
        @given(parts_st)
        def check(spec):
            parts = [pa.table({"lang": [r[0] for r in rows],
                               "a_digest": [blob(r[1]) for r in rows],
                               "b_digest": [blob(r[2]) for r in rows]},
                              schema=self._schema())
                     for rows in spec]
            with tempfile.TemporaryDirectory() as root:
                got = self._table(checkpoint.merged_result(
                    self._write(parts, root), "lang", self.COLS))
            want = merge_partial_digest_table(
                pa.concat_tables(parts, promote_options="permissive"),
                "lang", ["a", "b"])
            assert got.equals(want)
            assert got.equals(self._oracle(parts, self.COLS))
            # the frozen one-column call gives that column's bytes
            with tempfile.TemporaryDirectory() as root:
                one = self._table(checkpoint.merged_result(
                    self._write(parts, root), "lang", "a_digest"))
            assert one.equals(want.select(["lang", "a_digest"]))

        check()

    def test_all_parts_empty(self, tmp_path):
        empty = self._schema().empty_table()
        got = self._table(checkpoint.merged_result(
            self._write([empty, empty], str(tmp_path)), "lang", self.COLS))
        assert got.num_rows == 0
        assert got.schema.equals(self._schema())

    @pytest.mark.parametrize("where", ["first", "later"])
    def test_corrupt_blob_raises(self, tmp_path, where):
        from tdigest_ray.stages.partial import make_partial_digest_fn

        good = make_partial_digest_fn(["lang"], ["a", "b"])(pa.table({
            "lang": pa.array(["en"] * 50, pa.string()),
            "a": np.arange(50.0), "b": np.arange(50.0)}))
        blob = good.column("a_digest")[0].as_py()
        bad = good.set_column(1, "a_digest",
                              pa.array([blob[:-1]], pa.binary()))
        parts = [bad, good] if where == "first" else [good, bad]
        paths = self._write(parts, str(tmp_path))
        with pytest.raises(ValueError, match="invalid t-digest binary length"):
            checkpoint.merged_result(paths, "lang", self.COLS)

    def test_no_shuffle_in_the_executed_plan(self, tmp_path, monkeypatch):
        """The whole merge-finalize-write runs as ONE Dataset, a
        ``FromArrow`` plus the finalize map: no Aggregate, Repartition or
        Sort operator (a sort-shuffle groupby is mostly executor fixed
        costs at a few rows per part)."""

        from tdigest_ray.stages.partial import make_partial_digest_fn

        rng = np.random.default_rng(3)
        fn = make_partial_digest_fn(["lang"], ["a", "b"])
        langs = [rng.choice(["de", "en", None], 80).tolist()
                 for _ in range(3)]
        exact = {k: sum(ls.count(k) for ls in langs)
                 for k in ("de", "en", None)}
        paths = self._write([fn(pa.table({
            "lang": pa.array(ls, pa.string()),
            "a": rng.random(80), "b": rng.random(80)})) for ls in langs],
            str(tmp_path))

        written = []
        write = ray.data.Dataset.write_parquet

        def recording_write(ds, *args, **kwargs):
            written.append(ds)
            return write(ds, *args, **kwargs)

        monkeypatch.setattr(ray.data.Dataset, "write_parquet",
                            recording_write)
        checkpoint.atomic_output_swap(
            flagship.finalize_quantiles(
                checkpoint.merged_result(paths, "lang", self.COLS),
                features=["a", "b"]),
            str(tmp_path / "out"))
        assert len(written) == 1
        ops, stack = [], [written[0]._logical_plan.dag]
        while stack:
            op = stack.pop()
            ops.append(op.name)
            stack.extend(op.input_dependencies)
        assert not [o for o in ops
                    if o.split("(")[0] in ("Aggregate", "Repartition",
                                           "Sort")], ops
        out = pq.read_table(str(tmp_path / "out")).to_pylist()
        assert {r["lang"]: r["a_count"] for r in out} == exact


class TestCuration:
    """r3: the end-to-end curation composition (filter -> full-row dedup)."""

    def _docs(self):
        import pyarrow as pa

        texts = [
            "good doc with enough tokens to pass the filter easily now",
            "good doc with enough tokens to pass the filter easily now",
            "short",                       # < 5 tokens -> filtered
            "another quality document with plenty of words in it here",
            "!!! ,,, ... ;;; ::: !!! ,,, ... too much punctuation here!!!",
            "good doc with enough tokens to pass the filter easily now",
        ]
        return pa.table({
            "doc_id": pa.array([10, 3, 1, 7, 2, 5], pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * 6, pa.string()),
        })

    def test_curate_filters_and_dedups(self):
        import ray

        from tdigest_ray.pipelines.curation import curate

        ds = ray.data.from_arrow(self._docs()).repartition(3)
        out = curate(ds).to_pandas().sort_values("doc_id")
        # dup class {10, 3, 5} -> keep min id 3; short + punct docs gone
        assert out["doc_id"].tolist() == [3, 7]
        assert set(out.columns) == {"doc_id", "text", "lang"}

    def test_curate_to_parquet_roundtrip(self, tmp_path):
        import pyarrow.parquet as pq
        import ray

        from tdigest_ray.pipelines.curation import curate

        ds = ray.data.from_arrow(self._docs())
        outdir = str(tmp_path / "curated")
        curate(ds).write_parquet(outdir)
        back = pq.read_table(outdir).to_pandas().sort_values("doc_id")
        assert back["doc_id"].tolist() == [3, 7]

    def test_exact_dedup_rows_matches_id_variant(self):
        import numpy as np
        import pyarrow as pa
        import ray

        from tdigest_ray.stages.dedup import exact_dedup, exact_dedup_rows

        rng = np.random.default_rng(5)
        texts = [f"text variant number {rng.integers(0, 40)} padded body"
                 for _ in range(300)]
        tbl = pa.table({
            "doc_id": pa.array(rng.permutation(300).astype(np.int64)),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * 300, pa.string()),
        })
        ds = ray.data.from_arrow(tbl).repartition(5)
        ids_only = sorted(r["doc_id"] for r in
                          exact_dedup(ds, carry_cols=("lang",)).take_all())
        full = exact_dedup_rows(ds)
        rows = full.take_all()
        assert sorted(r["doc_id"] for r in rows) == ids_only
        # surviving rows carry their ORIGINAL text
        by_id = {r["doc_id"]: r["text"] for r in rows}
        orig = {i: t for i, t in zip(tbl.column("doc_id").to_pylist(),
                                     tbl.column("text").to_pylist())}
        assert all(by_id[i] == orig[i] for i in by_id)


class TestGroupedDigestsTable:
    """grouped_digests_table (the per-file checkpoint finisher) is the
    library's one grouped rollup, partials folded in the driver."""

    def test_matches_distributed_finish(self, pages_dir, monkeypatch):
        """With no more partial blocks than the merge width, the result is
        byte-identical to one in-process fold of the partial tables."""
        import ray
        from ray.data import DataContext

        from tdigest_ray.stages import partial

        monkeypatch.setattr(DataContext.get_current().execution_options,
                            "preserve_order", True)
        feats = flagship.prepare_features(
            ray.data.read_parquet(pages_dir, override_num_blocks=4),
            from_html=True)
        tbl = flagship.grouped_digests_table(feats, compression=100)
        fn = partial.make_partial_digest_fn(
            ["lang"], flagship.DEFAULT_FEATURES, 100)
        parts = [fn(t) for t in map(ray.get, feats.materialize()
                                    .to_arrow_refs())]
        assert len(parts) == 4
        want = partial.merge_partial_digest_table(
            parts, ["lang"], flagship.DEFAULT_FEATURES)
        assert tbl.column_names == ["lang", "text_len_digest",
                                    "token_count_digest", "html_size_digest"]
        assert tbl.equals(want)

    def test_counts_exact_vs_input(self, pages_dir):
        import ray

        ds = ray.data.read_parquet(pages_dir)
        tbl = flagship.grouped_digests_table(
            flagship.prepare_features(ds, from_html=True))
        raw = pq.read_table(pages_dir, columns=["lang"]).to_pandas()
        exact = raw.groupby("lang").size()
        got = {r["lang"]: serde.digest_count(bytes(r["text_len_digest"]))
               for r in tbl.to_pylist()}
        assert got == exact.to_dict()


def _tiny_features():
    import pyarrow as pa
    import ray

    return ray.data.from_arrow(pa.table({
        "lang": pa.array(["en", "de"], pa.string()),
        "text_len": pa.array([1.0, 2.0]),
        "html_size": pa.array([3.0, 4.0]),
    }))


@pytest.mark.parametrize("shape", ["limit0", "filtered_to_nothing"])
def test_grouped_digests_table_zero_rows(shape):
    """A zero-row input gives a 0-row table with the group column and one
    binary digest column per requested feature. ``limit(0)`` keeps the
    schema but yields no blocks; a filter that drops every row leaves
    ``ds.schema()`` as ``None``."""
    import pyarrow as pa

    ds = _tiny_features()
    ds = ds.limit(0) if shape == "limit0" else ds.filter(lambda r: False)
    out = flagship.grouped_digests_table(
        ds, features=("text_len", "html_size"))
    assert out.num_rows == 0
    assert out.column_names == ["lang", "text_len_digest", "html_size_digest"]
    assert out.schema.field("text_len_digest").type == pa.binary()
    assert out.schema.field("html_size_digest").type == pa.binary()
    if shape == "limit0":
        assert out.schema.field("lang").type == pa.string()


def test_zero_row_parquet_keeps_the_key_type(tmp_path):
    """Over a one-file, zero-row pages directory every route types the key
    from the read's schema: Ray runs no feature UDF on no rows, so the
    feature stage has no schema of its own."""
    root = tmp_path / "pages"
    root.mkdir()
    pq.write_table(pa.table({
        "url": pa.array([], pa.string()), "html": pa.array([], pa.binary()),
        "text": pa.array([], pa.string()), "lang": pa.array([], pa.string()),
    }), root / "part-000.parquet")
    feats = flagship.prepare_features(
        ray.data.read_parquet(str(root), columns=["html", "lang"]),
        from_html=True)
    table = flagship.grouped_digests_table(feats)
    assert table.num_rows == 0
    assert table.schema.field("lang").type == pa.string()
    summary = flagship.flagship(str(root))
    assert summary.count() == 0
    schema = summary.schema().base_schema
    assert schema.field("lang").type == pa.string()
    assert schema.field("text_len_p50").type == pa.float64()
    assert schema.field("html_size_count").type == pa.int64()


@pytest.mark.parametrize("null_first", [True, False])
def test_streaming_part_write_unifies_block_schemas(tmp_path, null_first):
    """A block whose column is all null (null-typed) may come before or
    after a block with the real type; the part takes the unified schema
    either way instead of casting to the first block's."""
    import pyarrow as pa
    import ray

    blocks = [pa.table({"k": pa.array([1, 2]), "x": pa.nulls(2)}),
              pa.table({"k": pa.array([3]), "x": pa.array(["a"])})]
    if not null_first:
        blocks.reverse()
    tmp = str(tmp_path / "part.parquet")
    checkpoint._write_refs_streaming([ray.put(b) for b in blocks],
                                     {b"input_file": b"in.parquet"}, tmp)
    got = pq.read_table(tmp)
    assert got.schema.field("x").type == pa.string()
    assert sorted(got.column("k").to_pylist()) == [1, 2, 3]
    assert got.column("x").null_count == 2
    assert pq.read_schema(tmp).metadata[b"input_file"] == b"in.parquet"


def _counting(log: str, fn=None):
    """``fn`` (default: identity) wrapped to append one byte to ``log``
    per call — a call count that survives Ray's worker processes."""
    def counted(batch, **kwargs):
        with open(log, "ab") as f:
            f.write(b".")
        return batch if fn is None else fn(batch, **kwargs)

    return counted


def _calls(log: str) -> int:
    return os.path.getsize(log) if os.path.exists(log) else 0


def _page_files(pages_dir) -> list:
    return sorted(os.path.join(pages_dir, f) for f in os.listdir(pages_dir)
                  if f.endswith(".parquet"))


def test_grouped_digests_table_executes_once(pages_dir, tmp_path):
    """One call of the upstream UDF per block: no ``limit(1)`` schema
    probe re-runs the first block before or after the pipeline."""
    import ray

    path = _page_files(pages_dir)[0]
    log = str(tmp_path / "calls")
    blocks = ray.data.read_parquet(
        path, override_num_blocks=3).materialize().num_blocks()
    ds = ray.data.read_parquet(path, override_num_blocks=3).map_batches(
        _counting(log), batch_format="pyarrow", batch_size=None)
    tbl = flagship.grouped_digests_table(
        flagship.prepare_features(ds, from_html=True))
    assert blocks > 1 and tbl.num_rows > 0
    assert _calls(log) == blocks


def test_flagship_on_path_executes_once(pages_dir, tmp_path, monkeypatch):
    """``flagship()`` on a path derives its features from the read's
    schema: the feature UDF runs exactly as often as in one execution of
    the feature stage, with no probe of it beforehand."""
    import ray

    log = str(tmp_path / "calls")
    monkeypatch.setattr(flagship, "add_features",
                        _counting(log, flagship.add_features))
    from tdigest_ray.stages import common

    # the read flagship() makes: one read task per CPU, at most one per file
    read = ray.data.read_parquet(pages_dir, columns=["html", "lang"],
                                 override_num_blocks=min(
                                     len(_page_files(pages_dir)),
                                     common.cluster_cpus()))
    blocks = read.materialize().num_blocks()
    flagship.prepare_features(read, from_html=True).materialize()
    once = _calls(log)
    assert once >= blocks
    out = flagship.flagship(pages_dir).take_all()
    assert {"text_len_p50", "token_count_p50", "html_size_p50"} <= set(out[0])
    assert _calls(log) == 2 * once


def _plan_names(ds) -> list:
    """The logical operator names of ``ds``'s linear plan, last first."""
    op, names = ds._logical_plan.dag, []
    while op is not None:
        names.append(op.name)
        op = op.input_dependencies[0] if op.input_dependencies else None
    return names


def _counted_partial(monkeypatch, log: str) -> None:
    """Count the partial-digest UDF's calls in ``log``."""
    from tdigest_ray.stages import partial

    real = partial.make_partial_digest_fn

    def counted_partial(*args, **kwargs):
        return _counting(log, real(*args, **kwargs))

    monkeypatch.setattr(partial, "make_partial_digest_fn", counted_partial)


@pytest.mark.parametrize("read_blocks", [None, 2, 8])
def test_flagship_reads_one_block_per_file(pages_dir, tmp_path, monkeypatch,
                                           materialized, read_blocks):
    """A path is read one block per Parquet file (``_SUCCESS`` is not a
    file) on a cluster with a CPU per file, not in Ray's size-driven
    split; a Dataset read with ``override_num_blocks=k`` is used in its
    ``k`` blocks. Either way the partial-digest UDF runs once per block
    and no repartition runs ahead of it in the partial stage the rollup
    materializes."""
    import ray

    assert len(_page_files(pages_dir)) == 4
    log = str(tmp_path / "calls")
    _counted_partial(monkeypatch, log)
    source = (pages_dir if read_blocks is None else ray.data.read_parquet(
        pages_dir, columns=["html", "lang"], override_num_blocks=read_blocks))
    out = flagship.flagship(source)
    assert out.count() > 0
    assert _calls(log) == (read_blocks or 4)
    stages = [_plan_names(ds) for ds in materialized]
    stages = [names for names in stages if "MapBatches(counted)" in names]
    assert len(stages) == 1
    upstream = stages[0][stages[0].index("MapBatches(counted)"):]
    assert upstream[-1] == "ReadParquet" and "Repartition" not in upstream


@pytest.mark.parametrize("cpus", [1, 2])
def test_flagship_reads_one_block_per_cpu(pages_dir, tmp_path, monkeypatch,
                                          materialized, cpus):
    """With fewer CPUs than files, a path is read in one block per CPU:
    the partial-digest UDF runs ``min(files, CPUs)`` times, no
    repartition runs, and the per-language counts stay exact."""
    from tdigest_ray.stages import common

    monkeypatch.setattr(common, "cluster_cpus", lambda: cpus)
    log = str(tmp_path / "calls")
    _counted_partial(monkeypatch, log)
    out = flagship.flagship(pages_dir).to_pandas().set_index("lang")
    assert _calls(log) == min(len(_page_files(pages_dir)), cpus)
    assert not any("Repartition" in _plan_names(ds) for ds in materialized)
    want = pq.read_table(pages_dir, columns=["lang"]).to_pandas()[
        "lang"].value_counts()
    for f in flagship.DEFAULT_FEATURES:
        assert out[f"{f}_count"].sort_index().to_dict() == \
            want.sort_index().to_dict()


@pytest.mark.parametrize("unknown_schema", [False, True])
@pytest.mark.parametrize("route", ["grouped_digests_table",
                                   "grouped_digests_fast"])
def test_no_requested_feature_raises(route, unknown_schema):
    """A request naming no existing column is refused, whether the
    schema is known up front or only once the pipeline has run, by the
    flagship's finisher and by the rollup under it."""
    from tdigest_ray.stages.partial import grouped_digests_fast

    ds = _tiny_features()
    if unknown_schema:
        ds = ds.map_batches(lambda b: b, batch_format="pyarrow")
    with pytest.raises(ValueError,
                       match=r"none of the requested features \('nope',\)"):
        if route == "grouped_digests_table":
            flagship.grouped_digests_table(ds, features=("nope",))
        else:
            grouped_digests_fast(ds, "lang", ("nope",))


@pytest.mark.parametrize("width", [1, 64])
def test_text_only_read_keeps_the_features_it_has(pages_dir, monkeypatch,
                                                  materialized, width):
    """A text-only read asked for the default three features digests the
    two it has, whether the partial blocks (4) fold in the driver or
    first through the coalesce level (merge width 1), with exact
    per-language counts."""
    from tdigest_ray.stages import partial

    monkeypatch.setattr(partial, "_merge_width", lambda: width)
    read = ray.data.read_parquet(pages_dir, columns=["text", "lang"],
                                 override_num_blocks=4)
    tbl = flagship.grouped_digests_table(
        flagship.prepare_features(read, from_html=False))
    assert tbl.column_names == ["lang", "text_len_digest",
                                "token_count_digest"]
    coalesced = any("Repartition" in _plan_names(ds) for ds in materialized)
    assert coalesced == (width < 4)
    want = pq.read_table(pages_dir, columns=["lang"]).to_pandas()[
        "lang"].value_counts().to_dict()
    for col in ("text_len_digest", "token_count_digest"):
        got = {r["lang"]: serde.digest_count(r[col]) for r in tbl.to_pylist()}
        assert got == want


@pytest.mark.parametrize("width", [1, 64])
def test_flagship_on_dataset_executes_once(pages_dir, tmp_path, monkeypatch,
                                           width):
    """``flagship()`` on a Dataset (``__ray_entry__.entry()``'s route)
    runs the feature UDF exactly as often as one execution of the feature
    stage, with the coalesce level (merge width 1) or without it: no
    ``limit(1)`` schema probe runs before or after the rollup."""
    from tdigest_ray.stages import partial

    monkeypatch.setattr(partial, "_merge_width", lambda: width)
    log = str(tmp_path / "calls")
    monkeypatch.setattr(flagship, "add_features",
                        _counting(log, flagship.add_features))
    read = ray.data.read_parquet(pages_dir, columns=["text", "lang"],
                                 override_num_blocks=4)
    flagship.prepare_features(read, from_html=False).materialize()
    once = _calls(log)
    assert once >= 4
    out = flagship.flagship(read, from_html=False).to_pandas()
    assert _calls(log) == 2 * once
    assert list(out.columns) == [
        "lang", *(f"{f}_{s}" for f in ("text_len", "token_count")
                  for s in ("p50", "p95", "p99", "count"))]


@pytest.mark.parametrize("percentiles", [[0.99, 0.994], [0.5, 0.504, 0.9]])
def test_colliding_percentiles_raise(pages_dir, percentiles):
    """Distinct percentiles that round to one ``p{NN}`` column are
    refused up front instead of one answer overwriting the other."""
    digests = ray.data.from_arrow(flagship.grouped_digests_table(
        _tiny_features(), features=("text_len",)))
    clash = r"percentiles \[%s, %s\]" % tuple(
        str(p).replace(".", r"\.") for p in percentiles[:2])
    with pytest.raises(ValueError, match=clash):
        flagship.finalize_quantiles(digests, features=("text_len",),
                                    percentiles=percentiles)
    with pytest.raises(ValueError, match=clash):
        flagship.flagship(pages_dir, percentiles=percentiles)


def test_default_split_ignores_pending_count(pages_dir, tmp_path):
    """The derived read split depends on ``max_concurrent`` and the
    cluster, not on how many files are pending: a file's part holds the
    same digests whether it runs alone or beside 3 other files."""
    files = _page_files(pages_dir)
    assert len(files) == 4

    def digest_fn(ds):
        return flagship.grouped_digests_table(
            flagship.prepare_features(ds, from_html=True))

    alone = checkpoint.run_with_checkpoints(
        files[:1], str(tmp_path / "alone"), digest_fn, max_concurrent=2)
    together = checkpoint.run_with_checkpoints(
        files, str(tmp_path / "together"), digest_fn, max_concurrent=2)
    a = pq.read_table(alone[0]).replace_schema_metadata()
    b = pq.read_table(together[0]).replace_schema_metadata()
    assert a.num_rows > 0 and a.equals(b)
