"""Vectorized per-block partial sketch stage (the 'stage A' of SURVEY §3.2)
and the one grouped t-digest rollup built on it.

Ray's built-in grouped aggregate walks rows in Python to find group
boundaries inside each block (``TableBlockAccessor._aggregate.iter_groups``),
which costs ~25us/row. :func:`make_partial_digest_fn` does the map-side
partial aggregation vectorized: sort the block by key (Arrow kernel), find
group boundaries with array comparisons, fold each group's values into one
sketch, so a block collapses to ``#keys`` partial rows.
:func:`merge_partial_digest_table` folds partial rows in process, one
merge state per group (the reference's one merge routine,
``tdigest_add_digest``).

:func:`grouped_digests_fast` composes the two into a fold tree: partials,
then, only when they outnumber :func:`_merge_width` blocks, a coalesce to
that many blocks and a fold per block, then one driver fold, whose
``pa.Table`` it returns. Nothing sorts or shuffles by key, so a null key is
an ordinary group. It is also where every grouped caller's requested value
columns are checked (on the partial blocks, with no schema probe) and
where an empty result gets its types.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from tdigest_ray.functions import serde
from tdigest_ray.sketches.tdigest import TDigest
from tdigest_ray.stages import common


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
    values) for each value col the batch holds. With no key columns the
    batch is one group."""
    key_cols = list(key_cols)
    value_cols = list(value_cols)

    def fn(batch: pa.Table) -> pa.Table:
        present = [c for c in value_cols if c in batch.column_names]
        tbl, starts, ends = _group_slices(
            batch.select(key_cols + present), key_cols)
        cols = {k: tbl.column(k).take(starts) for k in key_cols}
        for c in present:
            vals = tbl.column(c).to_numpy(zero_copy_only=False).astype(
                np.float64, copy=False)
            cols[f"{c}_digest"] = pa.array(
                [_values_digest(vals[s:e], compression)
                 for s, e in zip(starts.tolist(), ends.tolist())], pa.binary())
        return pa.table(cols)

    return fn


def _merge_width() -> int:
    """Blocks a distributed digest merge coalesces its partial rows into:
    one per CPU, at most 64. The merge pays fixed costs per input block
    (a 512-block 10M-row rollup took 10.2 s uncoalesced, 1.4 s
    coalesced)."""
    return min(common.cluster_cpus(), 64)


def grouped_digests_fast(ds, key_cols, value_cols,
                         compression: int = 100) -> pa.Table:
    """``tdigest(v, comp) GROUP BY keys`` as a fold tree: the one grouped
    digest rollup (flagship, ``windows.windowed_digests``,
    ``normalize.group_digests``, and :func:`global_digest_tree` with no
    keys).

    1. :func:`make_partial_digest_fn` per block (``batch_size=None``:
       one partial per (block, key), never per 1024 rows), materialized;
    2. only when that leaves more than :func:`_merge_width` blocks, the
       coalesce level: ``repartition(_merge_width())`` (a split/merge, no
       sort and no shuffle of keys), then
       :func:`merge_partial_digest_table` per coalesced block;
    3. one :func:`merge_partial_digest_table` of the blocks in the
       driver.

    At most :func:`_merge_width` partial blocks fold in the driver as
    they are: a repartition and a fold task over so few rows cost more in
    Ray round trips than they save.

    Executes ``ds`` once and returns the driver's ``pa.Table`` of
    ``<key...>, <value>_digest`` (binary wire format), groups in key
    order, with a digest column for each requested value column that
    ``ds`` holds (the partial blocks show which; ``ds`` is not probed for
    its schema, which on a ``map_batches`` output re-runs its first
    block). A request naming no existing column raises ``ValueError``.
    Only an input with no rows asks ``ds.schema()`` (or, when that is
    unknown, the source's schema) for the key types, and keeps the
    requested value columns that schema holds, or all of them when it is
    unknown. A null key is one group of its own and comes out as null.
    The driver fetches and folds one block at a time and sees at most
    :func:`_merge_width` rows per key, so a hot key needs no salting; at
    high cardinality the driver fold is the serial step (about width x
    keys rows).
    """
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    value_cols = [value_cols] if isinstance(value_cols, str) else list(value_cols)
    mid = ds.map_batches(
        make_partial_digest_fn(key_cols, value_cols, compression),
        batch_format="pyarrow", batch_size=None).materialize()
    width = _merge_width()
    if mid.num_blocks() > width:
        mid = mid.repartition(width).map_batches(
            lambda b: merge_partial_digest_table(b, key_cols, value_cols),
            batch_format="pyarrow", batch_size=None)
    out = merge_partial_digest_table(
        (t for t in map(ray.get, common.block_refs(mid)) if t.num_rows),
        key_cols, value_cols)
    if not out.num_rows:
        return _empty_rollup(ds, key_cols, value_cols)
    if out.num_columns == len(key_cols):  # no requested column exists
        _require(ds.schema(), value_cols)  # raises, naming the columns
    return out


def _require(schema, value_cols) -> list:
    """The ``value_cols`` that ``schema`` holds; raises when it holds
    none."""
    names = schema.names if schema is not None else []
    present = [c for c in value_cols if c in names]
    if not present:
        raise ValueError(
            f"none of the requested features {tuple(value_cols)} exist in "
            f"the dataset schema {tuple(names)}")
    return present


def _empty_rollup(ds, key_cols, value_cols) -> pa.Table:
    """The 0-row result of :func:`grouped_digests_fast`: keys typed by
    ``ds.schema()``, else by the source's schema (Ray runs no
    ``map_batches`` UDF on no rows), null-typed where neither has them;
    one binary ``<value>_digest`` per requested value column that
    ``ds.schema()`` holds, or per requested one when it is unknown."""
    schema = ds.schema()
    if schema is not None:
        value_cols = _require(schema, value_cols)
    typed = schema or common.source_schema(ds)
    types = dict(zip(typed.names, typed.types)) if typed is not None else {}
    return pa.table(
        {**{k: pa.array([], types.get(k, pa.null())) for k in key_cols},
         **{f"{c}_digest": pa.array([], pa.binary()) for c in value_cols}})


def merge_partial_digest_table(tables, key_cols, value_cols) -> pa.Table:
    """In-process ``tdigest(tdigest) GROUP BY keys`` over one
    partial-digest table or an iterable of them, folded one table at a
    time: the per-file finisher (``flagship.grouped_digests_table``), the
    merge of the checkpoint parts (``checkpoint.merged_result``) and both
    merge levels of :func:`grouped_digests_fast`. Each group's blobs fold
    through ``serde.merge_blobs`` into one state per (group,
    ``<value>_digest`` column), so memory is one table plus those states
    (pass a generator to hold one input table at a time). The result is
    byte-identical to a merge of ``pa.concat_tables(tables,
    promote_options="permissive")``: blobs merge in input order and the
    first one seeds the state (its compression wins). Groups come out in
    key order, null keys last and kept as null; a group with no non-null
    digest gets a null digest. A table without one of the digest columns
    adds nothing to it, and a column no table holds is left out (with no
    tables at all, every requested column is kept, empty)."""
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    value_cols = ([value_cols] if isinstance(value_cols, str)
                  else list(value_cols))
    digest_cols = [f"{c}_digest" for c in value_cols]
    if isinstance(tables, pa.Table):
        tables = [tables]
    index = {}    # key tuple -> position in ``keys`` / ``accs``
    accs = []     # per group: one merge state (or None) per digest column
    keys = None   # the key columns of each group, in first-seen order
    held = set()  # the digest columns some table holds
    for tbl in tables:
        tbl, starts, ends = _group_slices(tbl, key_cols)
        firsts = tbl.select(key_cols).take(starts)
        blobs = [tbl.column(c).to_pylist() if c in tbl.column_names
                 else None for c in digest_cols]
        held.update(c for c in digest_cols if c in tbl.column_names)
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
                if col is not None:
                    acc[j] = serde.merge_blobs(col[s:e], acc[j])
        firsts = firsts.take(pa.array(new, pa.int64()))
        keys = (firsts if keys is None else pa.concat_tables(
            [keys, firsts], promote_options="permissive"))
    if keys is None:  # no tables at all
        keys = pa.table({k: pa.array([], pa.null()) for k in key_cols})
        held = set(digest_cols)
    order = (pc.sort_indices(keys, [(k, "ascending") for k in key_cols])
             .to_numpy() if key_cols else np.arange(len(accs)))
    cols = {k: keys.column(k).take(order) for k in key_cols}
    for j, c in enumerate(digest_cols):
        if c in held:
            cols[c] = pa.array([_wire(accs[i][j]) for i in order.tolist()],
                               pa.binary())
    return pa.table(cols)


def global_digest_tree(ds, value_col: str, compression: int = 100):
    """``tdigest(v, comp)`` over the whole Dataset:
    :func:`grouped_digests_fast` with no keys. Returns the merged digest
    (wire bytes), or None when the input has no non-null value."""
    out = grouped_digests_fast(ds, [], [value_col], compression)
    return out.column(0)[0].as_py() if out.num_rows else None
