"""Checkpointed, resumable digest runs with per-partition lineage.

The reference leans on database durability; a 10^12-row Ray job needs its
own: digests are mergeable (tdigest_union), so a run over N input files can
checkpoint one Parquet part per input file — columns = group key, digest
blob, plus lineage (input file, row count, wall ms, engine version) — and a
resumed run processes only the files missing from the manifest
(set-difference), then merges all parts. Partitioned output also means a
partially-failed run never loses completed work.

Layout::

    ckpt_dir/
      part-<sha1(input_file)[:16]>.parquet   # one per completed input file
"""

from __future__ import annotations

import hashlib
import os
import threading
import time

import pyarrow as pa
import pyarrow.parquet as pq

import ray

from tdigest_ray.stages.common import block_refs, cluster_cpus

ENGINE_VERSION = "tdigest-ray-0.1"

# Dataset CONSTRUCTION is serialized across the checkpoint thread pool:
# read_parquet's datasource init lazily imports optional filesystem
# backends (fsspec http/s3), and concurrent first-imports of a backend
# whose dependency is absent race into a partially-initialized module —
# surfacing as "cannot import name ..." instead of the caught
# ModuleNotFoundError. Execution (the expensive part) stays parallel.
_DATASET_CTOR_LOCK = threading.Lock()

# The largest read split of one input file (the 2M-page CLI's split on a
# 32-CPU box); smaller clusters derive fewer blocks per file.
_MAX_SPLIT_BLOCKS = 8


def _part_name(input_file: str) -> str:
    return "part-" + hashlib.sha1(input_file.encode()).hexdigest()[:16] + ".parquet"


def completed_files(ckpt_dir: str) -> dict[str, str]:
    """input_file -> part path for every completed part."""
    out = {}
    if not os.path.isdir(ckpt_dir):
        return out
    for name in os.listdir(ckpt_dir):
        if not (name.startswith("part-") and name.endswith(".parquet")):
            continue
        path = os.path.join(ckpt_dir, name)
        try:
            meta = pq.read_schema(path).metadata or {}
            src = meta.get(b"input_file", b"").decode()
        except Exception:
            continue
        if src:
            out[src] = path
    return out


def pending_files(ckpt_dir: str, input_files: list[str]) -> list[str]:
    done = completed_files(ckpt_dir)
    return [f for f in input_files if f not in done]


def run_partition(input_file: str, ckpt_dir: str, digest_fn,
                  split_blocks: int = 1) -> str:
    """Process one input file -> grouped digest table -> checkpoint part.

    ``digest_fn(ray.data.Dataset)`` computes the per-file grouped digests
    (a small table: one row per group), as a ``pyarrow.Table`` (the
    digest finish ``flagship.grouped_digests_table``, whose fold runs in
    the driver) or as a Dataset (row-sized per-file results, such as the
    signature store). Lineage is embedded in the part's Parquet schema
    metadata. Writes are atomic (tmp + rename), so a crashed run never
    leaves a half-written part that resume would trust.

    The read is split into ``split_blocks`` blocks at planning time
    (``override_num_blocks``; no repartition barrier), so the file's
    transform chain (html extraction is the expensive part) spreads over
    that many cores. Each block costs fixed scheduling overhead, so the
    split should match the CPUs this file can actually use;
    ``run_with_checkpoints`` passes the cluster's CPUs per concurrent
    file. ``1`` reads exactly one block. A table is written as it is; a
    Dataset result executes once (``stages.common.block_refs``) and
    streams into the part one block at a time.
    """
    os.makedirs(ckpt_dir, exist_ok=True)
    t0 = time.perf_counter()
    with _DATASET_CTOR_LOCK:
        ds = ray.data.read_parquet(input_file,
                                   override_num_blocks=max(1, split_blocks))
    result = digest_fn(ds)
    refs = None
    if not isinstance(result, pa.Table):
        # the file's result table is object-store resident (zero-copy)
        # from here
        refs = block_refs(result)
    nrows_in = ds.count()
    wall_ms = int((time.perf_counter() - t0) * 1000)
    meta = {
        b"input_file": input_file.encode(),
        b"input_rows": str(nrows_in).encode(),
        b"wall_ms": str(wall_ms).encode(),
        b"engine": ENGINE_VERSION.encode(),
    }
    out = os.path.join(ckpt_dir, _part_name(input_file))
    tmp = out + ".tmp"
    if refs is None:
        pq.write_table(result.replace_schema_metadata(meta), tmp)
    else:
        _write_refs_streaming(refs, meta, tmp)
    os.replace(tmp, out)
    return out


def _write_refs_streaming(refs: list, meta: dict, tmp: str) -> None:
    """Write block refs to one Parquet part one block at a time, dropping
    each ref as it is written. Row-sized per-file results (the signature
    store) never need the whole table pinned through the write — peak
    residency is the execution's own output (released progressively
    here), not execution + a full-table concat copy. Lineage goes into
    the writer's schema metadata so ``completed_files`` still reads it
    from the footer.

    The part's schema is the unified schema of every non-empty block
    (a first block whose column is all null, and so null-typed, must not
    fix that column's type for the rest); a first pass reads each
    block's schema (zero-copy from a local object store)."""
    schemas = []
    empty = None
    for ref in refs:
        t = ray.get(ref)
        if t.num_rows:
            schemas.append(t.schema)
        elif empty is None:
            empty = t  # keep one for the schema-only case
    writer = None
    try:
        if not schemas:
            # every block empty: the part still records schema + lineage
            tbl = (empty if empty is not None
                   else pa.table({})).replace_schema_metadata(meta)
            pq.write_table(tbl, tmp)
            return
        schema = pa.unify_schemas(schemas, promote_options="permissive")
        writer = pq.ParquetWriter(tmp, schema.with_metadata(meta))
        while refs:
            t = ray.get(refs.pop(0))
            if t.num_rows:
                writer.write_table(t if t.schema.equals(schema)
                                   else t.cast(schema))
    except BaseException:
        if writer is not None:
            writer.close()
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    writer.close()


def run_with_checkpoints(input_files: list[str], ckpt_dir: str, digest_fn,
                         on_progress=None,
                         max_concurrent: int = 8) -> list[str]:
    """Process all pending input files (skipping completed ones), returning
    the full list of part paths. Re-running after a crash resumes from the
    last completed partition.

    Pending files run through a bounded thread pool: each thread drives
    its own per-file Dataset pipeline and Ray schedules the union of
    their tasks, so one small partition no longer underutilizes a wide
    node while its siblings queue behind it (the r4 sequential loop left
    a 32-core box ~90% idle between per-file shuffles). Checkpoint
    semantics are unchanged — one atomic part per file, completion-order
    progress callbacks, and the first failure cancels every not-yet-
    started file (in-flight ones finish and checkpoint) before
    propagating, so a systematic error surfaces after ~max_concurrent
    files, not after the whole corpus.

    Each file is read in as many blocks as the cluster has CPUs per
    ``max_concurrent`` slot, at most :data:`_MAX_SPLIT_BLOCKS`; see
    :func:`run_partition`. The split follows the parameter, not how many
    files are pending, so a resumed run splits (and so digests) each file
    as an uninterrupted run does. It pays for a CPU-bound per-file UDF
    and costs nothing measurable elsewhere (4 Ray CPUs on a 4-CPU host,
    ``max_concurrent=1``): ``dedup.sign_corpus`` on one 60k-doc file took
    3.3–5.2 s at split 1 and 1.4–2.9 s at split 4, while the pages
    checkpoint route on one 200k-page file took 1.40–1.90 s at split 1
    and 1.51–1.79 s at split 4."""
    import concurrent.futures as cf

    pending = pending_files(ckpt_dir, input_files)
    if pending:
        if not ray.is_initialized():
            ray.init()  # as the first file's read would
        split_blocks = max(1, min(_MAX_SPLIT_BLOCKS,
                                  cluster_cpus() // max(1, max_concurrent)))
        workers = max(1, min(max_concurrent, len(pending)))
        with cf.ThreadPoolExecutor(max_workers=workers) as pool:
            futs = {pool.submit(run_partition, f, ckpt_dir, digest_fn,
                                split_blocks): f
                    for f in pending}
            try:
                for fut in cf.as_completed(futs):
                    fut.result()
                    if on_progress:
                        on_progress(futs[fut])
            except BaseException:
                pool.shutdown(wait=True, cancel_futures=True)
                raise
    done = completed_files(ckpt_dir)
    return [done[f] for f in input_files if f in done]


def lineage(ckpt_dir: str) -> list[dict]:
    """Per-partition lineage records from the manifest."""
    out = []
    for src, path in sorted(completed_files(ckpt_dir).items()):
        meta = pq.read_schema(path).metadata or {}
        out.append(
            {
                "input_file": src,
                "part": path,
                "input_rows": int(meta.get(b"input_rows", b"0")),
                "wall_ms": int(meta.get(b"wall_ms", b"0")),
                "engine": meta.get(b"engine", b"").decode(),
            }
        )
    return out


def atomic_output_swap(ds, output_dir: str,
                       partition_cols: list | None = None) -> int:
    """``ds.write_parquet`` into ``output_dir`` with crash-safe replace
    semantics (ADVICE r3): new parts stream into a sibling
    ``.inprogress`` directory first; only after the write fully succeeds
    is the whole DIRECTORY swapped with two renames (old -> ``.old``,
    new -> live) and the old generation removed. A failure mid-write
    leaves the previous output untouched; a crash between the renames
    leaves either the old or the new generation fully intact (never a
    mixed or partial one — the failure mode of delete-then-move), with
    ``.old`` preserved for recovery. Re-runs never accumulate duplicate
    parts. Returns the number of parts swapped in."""
    import glob as _glob
    import shutil

    base = output_dir.rstrip("/")
    tmp_dir = base + ".inprogress"
    old_dir = base + ".old"
    if not os.path.exists(output_dir) and os.path.exists(old_dir):
        # a previous run crashed between the two renames: ``.old`` holds
        # the only good generation — restore it BEFORE deleting anything,
        # so a failure in this run's write still leaves a live output
        os.rename(old_dir, output_dir)
    for d in (tmp_dir, old_dir):
        if os.path.exists(d):
            shutil.rmtree(d)
    os.makedirs(tmp_dir)
    if partition_cols:
        # hive-style key=value subdirectories: the resumable layout the
        # 100 TB design asks for (a rerun or a reader can address one
        # key range without listing the world)
        ds.write_parquet(tmp_dir, partition_cols=partition_cols)
        n_parts = len(_glob.glob(
            os.path.join(tmp_dir, *(["*"] * len(partition_cols)),
                         "*.parquet")))
    else:
        ds.write_parquet(tmp_dir)
        n_parts = len(_glob.glob(os.path.join(tmp_dir, "*.parquet")))
    if os.path.exists(output_dir):
        os.rename(output_dir, old_dir)
    os.rename(tmp_dir, output_dir)
    if os.path.exists(old_dir):
        shutil.rmtree(old_dir)
    return n_parts


def merged_result(part_paths: list[str], group_col: str, digest_cols):
    """``tdigest(tdigest) GROUP BY group_col`` over the checkpoint parts,
    for one ``<feature>_digest`` column or a list of them, as a one-block
    Dataset.

    The parts are read and folded in the driver one at a time
    (``partial.merge_partial_digest_table``), so driver memory is one
    part plus one merge state per (group, column). This route is
    driver-bound by design (each file's partials are merged, and each
    part written, from the driver); a sort-shuffle groupby over a few
    rows per part costs mostly executor fixed costs. The bytes equal one
    merge of all parts' rows; a null group key merges into one row, last.
    """
    from tdigest_ray.stages.partial import merge_partial_digest_table

    digest_cols = ([digest_cols] if isinstance(digest_cols, str)
                   else list(digest_cols))
    features = [c.removesuffix("_digest") for c in digest_cols]
    if [f"{f}_digest" for f in features] != digest_cols:
        raise ValueError(
            f"digest columns must be named <feature>_digest: {digest_cols}")
    parts = (pq.read_table(p, columns=[group_col, *digest_cols])
             for p in part_paths)
    return ray.data.from_arrow(
        merge_partial_digest_table(parts, [group_col], features))
