"""Small shared Arrow helpers for the stage modules."""

from __future__ import annotations

import pyarrow as pa

import ray

__all__ = ["as_single_array", "block_refs", "block_tables", "cluster_cpus"]


def as_single_array(col) -> pa.Array:
    """Return ``col`` as one contiguous Array (ChunkedArray columns out
    of ``pa.Table`` are combined; plain Arrays pass through)."""
    if isinstance(col, pa.ChunkedArray):
        return col.combine_chunks()
    return col


def block_refs(ds) -> list:
    """Execute ``ds`` once; its output blocks' object refs.

    ``materialize()`` first: ``to_arrow_refs()`` alone streams the plan,
    then asks for the schema that streaming did not keep, and Ray answers
    a ``map_batches`` output's unknown schema with a hidden ``limit(1)``
    re-run of the plan's first block (through any repartition)."""
    return list(ds.materialize().to_arrow_refs())


def block_tables(ds) -> list[pa.Table]:
    """:func:`block_refs` fetched, zero-row blocks dropped (an empty block
    may be schemaless, which breaks a concat)."""
    return [t for t in map(ray.get, block_refs(ds)) if t.num_rows]


def cluster_cpus() -> int:
    """The Ray cluster's logical CPUs (8 when it reports none): the
    parallelism the read split and the merge width are sized to."""
    return int(ray.cluster_resources().get("CPU", 8))
