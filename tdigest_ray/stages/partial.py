"""Vectorized per-block partial sketch stage (the 'stage A' of SURVEY §3.2).

Ray's built-in grouped aggregate walks rows in Python to find group
boundaries inside each block (``TableBlockAccessor._aggregate.iter_groups``),
which costs ~25us/row. This stage does the same map-side partial aggregation
vectorized: sort the block by key (Arrow kernel), find group boundaries with
array comparisons, fold each group's values into one sketch — then the
downstream ``groupby(key).aggregate(<merge agg>)`` only ever touches
``#blocks x #keys`` partial rows, so the slow per-row path runs on a
few hundred rows instead of millions.

Use :func:`grouped_digests_fast` as a drop-in replacement for
``ds.groupby(key).aggregate(TDigestAgg(...))``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from tdigest_ray.functions import serde
from tdigest_ray.sketches.tdigest import TDigest


def _group_slices(tbl: pa.Table, key_cols: Sequence[str]):
    """Sort ``tbl`` by ``key_cols`` (a stable sort, so rows keep their
    order inside a group) and find the groups of equal keys.

    Returns ``(sorted_tbl, starts, ends)``; group ``i`` is rows
    ``starts[i]:ends[i]``. Null keys sort last and form one group. With
    no key columns a non-empty table is a single group."""
    if key_cols:  # sort_by([]) raises
        tbl = tbl.sort_by([(k, "ascending") for k in key_cols])
    n = tbl.num_rows
    if n == 0:
        return tbl, np.zeros(0, np.int64), np.zeros(0, np.int64)
    change = np.zeros(n - 1, dtype=bool)
    for k in key_cols:
        col = tbl.column(k).combine_chunks()
        neq = pc.not_equal(col.slice(1), col.slice(0, n - 1))
        # null keys: comparisons null-propagate; treat null-vs-null as
        # equal and null-vs-value as a boundary (sort_by groups nulls)
        null_a = pc.is_null(col.slice(1))
        null_b = pc.is_null(col.slice(0, n - 1))
        neq = pc.fill_null(neq, True)
        both_null = pc.and_(null_a, null_b)
        neq = pc.and_(neq, pc.invert(both_null))
        change |= neq.to_numpy(zero_copy_only=False).astype(bool)
    starts = np.concatenate([[0], np.flatnonzero(change) + 1])
    ends = np.append(starts[1:], n)
    return tbl, starts, ends


def _wire(d: TDigest | None) -> bytes | None:
    """Compact + serialize a digest; ``None`` passes through."""
    if d is None:
        return None
    d.compress()
    return serde.to_bytes(d)


def _values_digest(vals: np.ndarray, compression: int) -> bytes | None:
    """Wire-format digest of the non-NaN ``vals``, or ``None``."""
    vals = vals[~np.isnan(vals)]
    if not len(vals):
        return None
    d = TDigest(compression)
    d.add_many(vals)
    return _wire(d)


def make_partial_digest_fn(key_cols: Sequence[str],
                           value_cols: Sequence[str],
                           compression: int = 100) -> Callable:
    """Batch fn: one wire-format digest per (block-local key, value col).

    Output columns: ``<key...>`` (the input's key types), then
    ``<value>_digest`` (binary; null where a group has no non-null
    values). With no key columns the batch is one group."""
    key_cols = list(key_cols)
    value_cols = list(value_cols)

    def fn(batch: pa.Table) -> pa.Table:
        tbl, starts, ends = _group_slices(
            batch.select(key_cols + value_cols), key_cols)
        cols = {k: tbl.column(k).take(starts) for k in key_cols}
        for c in value_cols:
            vals = tbl.column(c).to_numpy(zero_copy_only=False).astype(
                np.float64, copy=False)
            cols[f"{c}_digest"] = pa.array(
                [_values_digest(vals[s:e], compression)
                 for s, e in zip(starts.tolist(), ends.tolist())], pa.binary())
        return pa.table(cols)

    return fn


# Ray's multi-block sort shuffle SAMPLES key boundaries with a numpy
# sort, which dies comparing None to str — these batch fns mask null
# string keys with a sentinel through a groupby and restore them after
NULL_KEY_SENTINEL = "\x00\x00__null__"


def make_null_key_mask(key_cols: Sequence[str]) -> Callable:
    key_cols = list(key_cols)

    def mask_nulls(batch: pa.Table) -> pa.Table:
        for k in key_cols:
            col = batch.column(k)
            if pa.types.is_string(col.type):
                # a legitimate key equal to the sentinel would silently
                # merge with the real null-key group after unmasking —
                # refuse instead (ADVICE r3; one cheap kernel scan)
                if pc.any(pc.equal(col, NULL_KEY_SENTINEL)).as_py():
                    raise ValueError(
                        f"key column {k!r} contains the reserved null-key "
                        f"sentinel {NULL_KEY_SENTINEL!r}; masked grouping "
                        "would corrupt the null group")
                if col.null_count:
                    batch = batch.set_column(
                        batch.column_names.index(k), k,
                        pc.fill_null(col, NULL_KEY_SENTINEL))
        return batch

    return mask_nulls


def make_null_key_unmask(key_cols: Sequence[str]) -> Callable:
    key_cols = list(key_cols)

    def unmask_nulls(batch: pa.Table) -> pa.Table:
        for k in key_cols:
            col = batch.column(k)
            if pa.types.is_string(col.type):
                masked = pc.equal(col, NULL_KEY_SENTINEL)
                if pc.any(masked).as_py():
                    batch = batch.set_column(
                        batch.column_names.index(k), k,
                        pc.if_else(masked, pa.nulls(len(col), col.type),
                                   col))
        return batch

    return unmask_nulls


def _merge_width() -> int:
    """Blocks a distributed digest merge coalesces its partial rows into:
    one per CPU, at most 64. The merge pays fixed costs per input block
    (a 512-block 10M-row rollup took 10.2 s uncoalesced, 1.4 s
    coalesced)."""
    import ray

    return min(int(ray.cluster_resources().get("CPU", 8)), 64)


def grouped_digests_fast(ds, key_cols, value_cols, compression: int = 100):
    """``tdigest(v, comp) GROUP BY keys`` with vectorized map-side partials.

    Output columns: ``<key...>, <value>_digest`` (binary wire format) —
    identical schema and merge semantics to the plain
    ``groupby().aggregate(TDigestAgg)`` path, ~10x faster on large blocks.
    Null keys form one group of their own, as in
    :func:`merge_partial_digest_table`: null string keys are masked
    through Ray's sort shuffle and restored after.

    The partial rows are coalesced to :func:`_merge_width` blocks before
    ``groupby(keys).aggregate(TDigestMergeAgg)``, and Ray's sort
    aggregate combines each block's rows per key before the shuffle, so
    a key's reducer merges at most that many states however many input
    blocks there were. A hot key therefore needs no salting: on 500k
    partial rows in 32 blocks with 90% on one key (4-core host), a
    two-level merge that first merges per (key, salt) took 35.9 s
    against 30.0 s unsalted at 1 Ray CPU, and 11.8 s against 7.3 s at 4
    (medians of 6 pairs).
    """
    from tdigest_ray.aggregates import TDigestMergeAgg

    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    value_cols = [value_cols] if isinstance(value_cols, str) else list(value_cols)
    masked = ds.map_batches(
        make_partial_digest_fn(key_cols, value_cols, compression),
        batch_format="pyarrow",
        # one partial per (block x key), not per (1024 rows x key): the
        # default batch_size splinters each block into ~20 slices, 20x-ing
        # both the digest count and the per-call fixed costs
        batch_size=None,
    ).repartition(_merge_width()).map_batches(
        make_null_key_mask(key_cols), batch_format="pyarrow")
    key = key_cols[0] if len(key_cols) == 1 else key_cols
    merged = masked.groupby(key).aggregate(
        *[TDigestMergeAgg(f"{c}_digest", alias_name=f"{c}_digest")
          for c in value_cols])
    return merged.map_batches(make_null_key_unmask(key_cols),
                              batch_format="pyarrow")


def merge_partial_digest_table(tables, key_cols, value_cols) -> pa.Table:
    """In-process ``tdigest(tdigest) GROUP BY keys`` over one
    partial-digest table or an iterable of them, folded one table at a
    time: the per-file finisher (``flagship.grouped_digests_table``), the
    merge of the checkpoint parts (``checkpoint.merged_result``) and both
    levels of :func:`global_digest_tree`.

    Same semantics as :func:`grouped_digests_fast`'s merge without its
    repartition and sort-shuffle barriers, whose fixed costs dominate a
    merge of a few dozen rows. Each group's blobs fold through
    ``serde.merge_blobs`` into one state per (group, ``<value>_digest``
    column), so memory is one table plus those states. The result is
    byte-identical to a merge of ``pa.concat_tables(tables,
    promote_options="permissive")``: blobs merge in input order and the
    first one seeds the state (its compression wins). Groups come out in
    key order, null keys last and kept as null; a group with no non-null
    digest gets a null digest."""
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    value_cols = ([value_cols] if isinstance(value_cols, str)
                  else list(value_cols))
    digest_cols = [f"{c}_digest" for c in value_cols]
    if isinstance(tables, pa.Table):
        tables = [tables]
    index = {}    # key tuple -> position in ``keys`` / ``accs``
    accs = []     # per group: one merge state (or None) per digest column
    keys = None   # the key columns of each group, in first-seen order
    for tbl in tables:
        tbl, starts, ends = _group_slices(tbl, key_cols)
        firsts = tbl.select(key_cols).take(starts)
        blobs = [tbl.column(c).to_pylist() for c in digest_cols]
        rows = (zip(*(firsts.column(k).to_pylist() for k in key_cols))
                if key_cols else [()] * len(starts))
        new = []
        for g, (key, s, e) in enumerate(zip(rows, starts.tolist(),
                                            ends.tolist())):
            i = index.get(key)
            if i is None:
                i = index[key] = len(accs)
                accs.append([None] * len(digest_cols))
                new.append(g)
            acc = accs[i]
            for j, col in enumerate(blobs):
                acc[j] = serde.merge_blobs(col[s:e], acc[j])
        firsts = firsts.take(pa.array(new, pa.int64()))
        keys = (firsts if keys is None else pa.concat_tables(
            [keys, firsts], promote_options="permissive"))
    if keys is None:  # no tables at all
        keys = pa.table({k: pa.array([], pa.null()) for k in key_cols})
    order = (pc.sort_indices(keys, [(k, "ascending") for k in key_cols])
             .to_numpy() if key_cols else np.arange(len(accs)))
    cols = {k: keys.column(k).take(order) for k in key_cols}
    for j, c in enumerate(digest_cols):
        cols[c] = pa.array([_wire(accs[i][j]) for i in order.tolist()],
                           pa.binary())
    return pa.table(cols)


def global_digest_tree(ds, value_col: str, compression: int = 100):
    """Two-level parallel merge for a GLOBAL digest aggregate.

    A flat ``ds.aggregate(TDigestAgg(...))`` pays Ray's per-state
    machinery (pickle + object-store round trip + dispatch, ~4 ms/state)
    once per block, while the digest math itself is trivial (512
    compacted partials merge in ~44 ms). At bench-scale block counts
    (<=10^3) the flat path wins — fewer barriers — but at 100 TB
    (~10^6 input blocks) the flat combine tail is minutes-to-hours of
    serial state shuffling; this pipeline bounds it:

    1. per-block partial digest, fully parallel
       (:func:`make_partial_digest_fn` with no keys, ``batch_size=None``
       — one digest per block, never per 1024 rows);
    2. coalesce the ~#blocks 2 KB digest rows into :func:`_merge_width`
       blocks (``repartition`` — a split/merge, no sort shuffle) and fold
       each block with :func:`merge_partial_digest_table`;
    3. one driver-side fold of those compacted digests (bounded: 64 x
       ~2 KB).

    Returns the merged digest (wire bytes), or None when the input has
    no non-null value.
    """
    from tdigest_ray.stages.common import block_tables

    cols = [value_col]
    mid = ds.map_batches(
        make_partial_digest_fn([], cols, compression),
        batch_format="pyarrow", batch_size=None,
    ).repartition(_merge_width()).map_batches(
        lambda b: merge_partial_digest_table(b, [], cols),
        batch_format="pyarrow", batch_size=None)
    out = merge_partial_digest_table(block_tables(mid), [], cols)
    if not out.num_rows:  # empty input: not even a null digest
        return None
    return out.column(f"{value_col}_digest")[0].as_py()
