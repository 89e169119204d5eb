"""Small shared Arrow helpers for the stage modules."""

from __future__ import annotations

import pyarrow as pa

import ray

__all__ = ["as_single_array", "block_refs", "block_tables", "cluster_cpus",
           "source_schema"]


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


def source_schema(ds):
    """The schema of the source ``ds`` starts from (a Parquet read's,
    from the file metadata; an in-memory table's), or ``None``: nothing
    runs. Ray runs no ``map_batches`` UDF on an input with no rows, so
    such a stage has no schema of its own (``ds.schema()`` is ``None``),
    while a column it passes through keeps its type from here."""
    op = ds._logical_plan.dag
    while op.input_dependencies:
        op = op.input_dependencies[0]
    return op.infer_schema()
