"""Broadcast (map-side) hash join: enrich a streaming fact table with
columns from small dimension tables without any shuffle.

At 100 TB the fact side must never move for a dimension lookup;
``ray.data.Dataset.join`` (and any hash join) shuffles both sides. The
classic fix is the map-side join: put the dimension table in the object
store ONCE (``ray.put``), and every fact batch gathers its columns with
one vectorized ``index_in`` probe. The dimension side must fit in a
worker's heap (dimensions are small by definition — 25 nations, 10^6
customers ~ 100 MB; anything bigger is a fact table and belongs on the
shuffle path).

Chained lookups (fact -> customer -> nation) stay map-side too: each
``broadcast_join`` is one more ``map_batches`` over the same streaming
pass — the fact rows are touched once per enrichment, never
re-partitioned.
"""
from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray

from tdigest_ray.stages.common import block_tables


def _dim_table(dim) -> pa.Table:
    if isinstance(dim, pa.Table):
        return dim
    if hasattr(dim, "to_arrow_refs"):  # ray.data.Dataset
        parts = block_tables(dim)
        return pa.concat_tables(parts) if parts else dim.schema().empty_table()
    raise TypeError(f"unsupported dimension side: {type(dim)}")


def broadcast_join(ds, dim, left_key: str, right_key: str | None = None,
                   columns: list | None = None, how: str = "inner"):
    """Join a (large, streaming) Dataset against a small dimension table.

    ``dim`` is a pyarrow Table or a small Dataset (materialized ONCE on
    the driver, validated unique on ``right_key``, broadcast via
    ``ray.put``). ``columns`` selects which dimension columns to append
    (default: all but the key). ``how``: 'inner' drops unmatched fact
    rows, 'left' keeps them with nulls.
    """
    if how not in ("inner", "left"):
        raise ValueError("how must be 'inner' or 'left'")
    right_key = right_key or left_key
    dim_t = _dim_table(dim)
    if columns is None:
        columns = [c for c in dim_t.column_names if c != right_key]
    missing = [c for c in [right_key, *columns]
               if c not in dim_t.column_names]
    if missing:
        raise ValueError(f"dimension table lacks columns {missing}")
    keys = dim_t.column(right_key)
    n_uniq = len(pc.unique(keys))
    if n_uniq != dim_t.num_rows:
        raise ValueError(
            f"dimension key '{right_key}' is not unique "
            f"({dim_t.num_rows} rows, {n_uniq} distinct) — a broadcast "
            "join against a non-unique key would duplicate fact rows")
    dim_ref = ray.put(dim_t.select([right_key, *columns]).combine_chunks())

    def probe(batch: pa.Table) -> pa.Table:
        d = ray.get(dim_ref)
        idx = pc.index_in(batch.column(left_key), d.column(right_key))
        if how == "inner":
            keep = pc.is_valid(idx)
            batch = batch.filter(keep)
            idx = idx.filter(keep)
        for c in columns:
            batch = batch.append_column(c, pc.take(d.column(c), idx))
        return batch

    return ds.map_batches(probe, batch_format="pyarrow")
