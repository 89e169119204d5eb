"""Sequence packing: assign documents to fixed token-budget training
chunks (GPT-style concat-and-split — all of a group's tokens are laid
out contiguously in document order and cut every ``budget`` tokens, so a
document may straddle chunk boundaries).

The map ``document -> [(chunk_id, tokens_in_chunk)]`` is what a training
dataloader consumes; computing it over a 10^12-document corpus is a
distributed prefix-sum problem, NOT a global sort of the text:

1. one pruned pass computes narrow rows ``(id, group, tok)`` (16 B/row;
   token counts via the shared Arrow whitespace tokenizer — the text
   itself never leaves its block and never shuffles);
2. documents are segmented by fixed id ranges (``seg = id //
   segment_span``, deterministic regardless of block layout); per-block
   pre-reduced per-(group, seg) token sums flow to the driver, which
   prefix-sums them into per-segment base offsets — driver state is
   O(#segments) (= corpus / span, ~10^5 rows at corpus scale), broadcast
   once via ``ray.put``;
3. one bounded-partition shuffle of the narrow rows (hash of (group,
   seg)) computes within-segment cumsums and emits chunk assignments
   fully vectorized (runs found by boundary diff; straddling documents
   exploded with ``np.repeat``).

The result is deterministic: chunk ids depend only on (group, id, token
count, budget), never on partitioning, so reruns and the SQL oracle
agree bit-for-bit.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from tdigest_ray.sketches.hashing import hash64_utf8, splitmix64
from tdigest_ray.stages.dedup import _tokenize
from tdigest_ray.stages.graph import auto_partitions


def token_count_rows(ds, text_col: str = "text", id_col: str = "doc_id",
                     group_col: str = "lang", segment_span: int = 1 << 22):
    """Narrow ``(id, group, _ghash, _seg, tok)`` rows for the corpus:
    per-document whitespace token counts plus the deterministic segment
    key. Zero-token documents are dropped (they contribute no training
    tokens)."""
    span = np.int64(segment_span)

    def counts(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        lens, _ = _tokenize(_as_single_array(batch.column(text_col)))
        keep = lens > 0
        grp = _as_single_array(batch.column(group_col))
        ghash = hash64_utf8(grp)
        keep_arr = pa.array(keep)
        return pa.table({
            id_col: pa.array(ids[keep], pa.int64()),
            group_col: grp.filter(keep_arr),
            "_ghash": pa.array(ghash[keep].view(np.int64), pa.int64()),
            "_seg": pa.array(ids[keep] // span, pa.int64()),
            "tok": pa.array(lens[keep], pa.int64()),
        })

    return ds.map_batches(counts, batch_format="pyarrow")


def _as_single_array(col):
    if isinstance(col, pa.ChunkedArray):
        return col.combine_chunks()
    return col


def pack_chunks(ds, budget: int = 2048, text_col: str = "text",
                id_col: str = "doc_id", group_col: str = "lang",
                segment_span: int = 1 << 22,
                num_partitions: int | None = None,
                spill_dir: str | None = None):
    """Chunk-assignment Dataset ``(group, id, chunk_id,
    tokens_in_chunk)`` for concat-and-split packing at ``budget`` tokens
    per chunk, per group, in ascending ``id_col`` order.

    ``chunk_id`` is per-group sequential; a document spanning several
    chunks emits one row per chunk it overlaps with the exact token
    count falling in that chunk (boundary chunks partial, interior
    chunks exactly ``budget``).

    The narrow count table is consumed twice (segment totals, then the
    assignment shuffle); by default it is pinned in the object store —
    ~40 B/doc, so ~40 TB at 10^12 docs. For corpus-scale runs pass
    ``spill_dir``: the counts are written to Parquet once and re-read
    for each consumer instead of staying pinned (the same pattern as the
    minhash ``sig_spill_dir`` path).
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    num_partitions = auto_partitions(num_partitions)
    narrow = token_count_rows(ds, text_col, id_col, group_col, segment_span)
    if spill_dir is not None:
        import glob as _glob
        import os

        # stale parts from a previous run would silently double every
        # count on re-read (same guard as the minhash sig spill path)
        os.makedirs(spill_dir, exist_ok=True)
        for stale in _glob.glob(os.path.join(spill_dir, "*.parquet")):
            os.remove(stale)
        narrow.write_parquet(spill_dir)
        narrow = ray.data.read_parquet(spill_dir)
    else:
        narrow = narrow.materialize()

    # per-(group, seg) totals: pre-reduced per block, prefix-summed on
    # the driver into per-segment base offsets (O(#segments) state).
    # Grouped by the EXACT group value — the 64-bit hash is only ever a
    # partition key; using it as identity would merge colliding groups
    # (and null with "") into one token stream.
    def seg_sums(batch: pa.Table) -> pa.Table:
        return pa.TableGroupBy(
            batch.select([group_col, "_seg", "tok"]),
            [group_col, "_seg"]).aggregate([("tok", "sum")])

    partials = narrow.map_batches(seg_sums, batch_format="pyarrow")
    import pandas as pd

    pdfs = [b.select([group_col, "_seg", "tok_sum"]).to_pandas()
            for b in partials.iter_batches(batch_size=None,
                                           batch_format="pyarrow")]
    base: dict = {}
    if pdfs:
        df = pd.concat(pdfs, ignore_index=True)
        agg = (df.groupby([group_col, "_seg"], dropna=False, sort=True)
               ["tok_sum"].sum().reset_index())
        agg["_off"] = (agg.groupby(group_col, dropna=False, sort=False)
                       ["tok_sum"].cumsum() - agg["tok_sum"])
        base = {
            (None if pd.isna(g) else g, int(s)): int(o)
            for g, s, o in zip(agg[group_col], agg["_seg"], agg["_off"])}
    base_ref = ray.put(base)

    empty = pa.table({
        group_col: pa.array([], pa.string()),
        id_col: pa.array([], pa.int64()),
        "chunk_id": pa.array([], pa.int64()),
        "tokens_in_chunk": pa.array([], pa.int64())})

    def assign(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return empty
        t = group.sort_by([(group_col, "ascending"), ("_seg", "ascending"),
                           (id_col, "ascending")])
        # exact group identity via table-local dictionary codes (null
        # group = its own code -1), never the partition hash
        import pyarrow.compute as pc

        denc = _as_single_array(t.column(group_col)).dictionary_encode()
        codes = pc.fill_null(denc.indices, -1).to_numpy(
            zero_copy_only=False).astype(np.int64)
        dict_vals = denc.dictionary.to_pylist()
        sg = t.column("_seg").to_numpy(zero_copy_only=False)
        tok = t.column("tok").to_numpy(zero_copy_only=False)
        # within-(group, seg) exclusive cumsum via the run-offset trick
        runs = np.concatenate(([True], (codes[1:] != codes[:-1])
                               | (sg[1:] != sg[:-1])))
        run_idx = np.flatnonzero(runs)
        run_lens = np.diff(np.concatenate((run_idx, [len(codes)])))
        cs = np.cumsum(tok)
        excl = cs - tok
        cb_local = excl - np.repeat(excl[run_idx], run_lens)
        # base offsets looked up once per RUN (#segments/P lookups, not
        # per row), then repeated — no per-document Python
        bmap = ray.get(base_ref)
        run_base = np.fromiter(
            (bmap[(dict_vals[codes[i]] if codes[i] >= 0 else None,
                   int(sg[i]))] for i in run_idx),
            dtype=np.int64, count=len(run_idx))
        cb = np.repeat(run_base, run_lens) + cb_local
        ce = cb + tok
        first = cb // budget
        last = (ce - 1) // budget
        reps = (last - first + 1).astype(np.int64)
        total = int(reps.sum())
        row = np.repeat(np.arange(len(codes), dtype=np.int64), reps)
        offs = np.cumsum(reps) - reps
        chunk = first[row] + (np.arange(total, dtype=np.int64) - offs[row])
        tic = (np.minimum(ce[row], (chunk + 1) * budget)
               - np.maximum(cb[row], chunk * budget))
        grp_col = _as_single_array(t.column(group_col)).take(
            pa.array(row, pa.int64()))
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        return pa.table({
            group_col: grp_col,
            id_col: pa.array(ids[row], pa.int64()),
            "chunk_id": pa.array(chunk, pa.int64()),
            "tokens_in_chunk": pa.array(tic, pa.int64())})

    def add_part(batch: pa.Table) -> pa.Table:
        gh = batch.column("_ghash").to_numpy(zero_copy_only=False)
        sg = batch.column("_seg").to_numpy(zero_copy_only=False)
        with np.errstate(over="ignore"):
            p = (splitmix64(gh.view(np.uint64) ^ splitmix64(
                sg.view(np.uint64))) % np.uint64(num_partitions))
        return batch.append_column("_part", pa.array(
            p.astype(np.int64), pa.int64()))

    return (narrow.map_batches(add_part, batch_format="pyarrow")
            .groupby("_part")
            .map_groups(assign, batch_format="pyarrow"))
