"""Top-N rows per group — "keep the N best documents per domain /
language / cluster", the selection step of every curation pipeline.

A global sort is the naive shape; the scale shape is a two-level
reduction on NARROW rows (group, score, id — 24 B/row; the document
bodies never move):

1. ``map_batches``: per-block per-group top-N (the global top-N of a
   group is a subset of the union of its block top-Ns, so this prune is
   lossless). Each block emits at most ``groups_in_block x n`` rows.
2. one bounded-partition hash exchange on the group key; the same
   vectorized kernel (lexsort + run-boundary rank) picks the final
   winners per group.

Ties are broken by id ascending, so the winner set is deterministic
regardless of block layout or partitioning — and matches a SQL
``row_number() OVER (PARTITION BY g ORDER BY s DESC, id)`` oracle
exactly. ``top_n_rows`` then recovers the full winner rows with a
broadcast id semi-join (one ``searchsorted`` probe per batch), never a
shuffle of the wide table.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from tdigest_ray.sketches.hashing import hash64_utf8, splitmix64
from tdigest_ray.stages.graph import auto_partitions


def _group_hash(col) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        return hash64_utf8(col)
    with np.errstate(over="ignore"):
        return splitmix64(
            col.to_numpy(zero_copy_only=False).astype(np.uint64))


def _block_topn(tbl: pa.Table, n: int, group_col, order_col, id_col,
                ascending: bool) -> pa.Table:
    """Vectorized per-group top-n of one table: lexsort by (group,
    score, id), run boundaries, within-run rank < n.

    Group identity comes from table-local dictionary codes (EXACT — a
    64-bit hash is only used for partition ASSIGNMENT, where a
    collision merely co-locates two groups; using it here would merge
    them and corrupt the selection)."""
    if tbl.num_rows == 0:
        return tbl
    gcol = tbl.column(group_col)
    if isinstance(gcol, pa.ChunkedArray):
        gcol = gcol.combine_chunks()
    genc = gcol.dictionary_encode()
    # null group values form their own group (SQL GROUP BY reading):
    # a null dictionary index would otherwise surface as NaN and crash
    # the int cast, so route nulls to one extra code past the dictionary
    gidx = genc.indices
    if gidx.null_count:
        import pyarrow.compute as pc

        gidx = pc.fill_null(gidx, len(genc.dictionary))
    gh = gidx.to_numpy(zero_copy_only=False).astype(np.int64)
    s = tbl.column(order_col).to_numpy(zero_copy_only=False)
    ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
    # Rank-transform the score instead of casting/negating: a float64
    # cast collapses int64 scores beyond 2^53 (nanosecond timestamps,
    # hashes) and negation overflows at INT64_MIN. Dense ranks preserve
    # the exact comparison semantics of the native dtype and are small
    # enough to negate for descending order. NaN (and nulls surfaced as
    # NaN) always lose regardless of direction.
    if np.issubdtype(s.dtype, np.floating):
        s = np.where(np.isnan(s), -np.inf if not ascending else np.inf, s)
    _, s_rank = np.unique(s, return_inverse=True)
    key = s_rank if ascending else -s_rank
    order = np.lexsort((ids, key, gh))
    g_sorted = gh[order]
    first = np.concatenate(([True], g_sorted[1:] != g_sorted[:-1]))
    run_start = np.flatnonzero(first)
    run_lens = np.diff(np.concatenate((run_start, [len(g_sorted)])))
    rank = np.arange(len(g_sorted)) - np.repeat(run_start, run_lens)
    keep_sorted = order[rank < n]
    return tbl.take(pa.array(np.sort(keep_sorted), pa.int64()))


def top_n_ids(ds, n: int, group_col: str, order_col: str,
              id_col: str = "doc_id", ascending: bool = False,
              num_partitions: int | None = None):
    """Winner Dataset ``(group_col, order_col, id_col)`` — the top-n
    rows per group by ``order_col`` (descending by default; ties break
    by ``id_col`` ascending)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    num_partitions = auto_partitions(num_partitions)
    cols = [group_col, order_col, id_col]

    def block_stage(batch: pa.Table) -> pa.Table:
        t = _block_topn(batch.select(cols), n, group_col, order_col,
                        id_col, ascending)
        part = (_group_hash(t.column(group_col))
                % np.uint64(num_partitions)).astype(np.int64)
        return t.append_column("_part", pa.array(part, pa.int64()))

    def final_stage(group: pa.Table) -> pa.Table:
        return _block_topn(group.drop_columns(["_part"]), n, group_col,
                           order_col, id_col, ascending)

    return (ds.map_batches(block_stage, batch_format="pyarrow")
            .groupby("_part")
            .map_groups(final_stage, batch_format="pyarrow"))


def top_n_rows(ds, n: int, group_col: str, order_col: str,
               id_col: str = "doc_id", ascending: bool = False,
               num_partitions: int | None = None):
    """Full winner rows: ``top_n_ids`` winners broadcast once (sorted
    id array, O(groups x n) driver state), then a block-local
    ``searchsorted`` semi-join filters the original Dataset — the wide
    columns never shuffle. ``id_col`` must be unique."""
    winners = top_n_ids(ds, n, group_col, order_col, id_col, ascending,
                        num_partitions)
    wid = np.sort(np.concatenate([
        b.column(id_col).to_numpy(zero_copy_only=False)
        for b in winners.iter_batches(batch_size=None,
                                      batch_format="pyarrow")
        if b.num_rows] or [np.empty(0, np.int64)]))
    wid_ref = ray.put(wid)

    def filt(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        w = ray.get(wid_ref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        if len(w) == 0:
            return batch.slice(0, 0)
        idx = np.searchsorted(w, ids)
        idx[idx == len(w)] = 0
        return batch.filter(pa.array(w[idx] == ids))

    return ds.map_batches(filt, batch_format="pyarrow")
