"""Corpus readers: one entrypoint for the formats web corpora actually
arrive in (Parquet, JSONL, CSV, plain text), normalized to the
``documents`` schema so every downstream stage is format-agnostic.

Pruning happens AT THE READ where the format supports it: Parquet gets
``columns=`` projection and an optional pyarrow dataset-expression row
filter (row-group pushdown — filtered rows never leave storage); the
row-oriented formats (JSONL/CSV) can only project/filter after parse,
which is why Parquet is the recommended interchange and the others are
ingest formats you convert once.
"""
from __future__ import annotations

import pyarrow as pa

import ray


def read_corpus(paths, format: str = "parquet", columns: list | None = None,
                filter=None, text_col: str = "text"):
    """Read a document corpus as a Dataset.

    ``format``: 'parquet' (columns= and filter= pushed into the scan),
    'jsonl' (one JSON object per line), 'csv', or 'text' (one document
    per line; a per-file line counter would not be scale-safe, so text
    rows get only ``text_col`` — assign deterministic ids downstream
    with :func:`with_content_ids`).
    ``filter``: pyarrow compute expression (e.g. ``pc.field('lang') ==
    'en'``) — pushdown on parquet, post-parse ``map_batches`` filter on
    the other formats.
    """
    if format == "parquet":
        return ray.data.read_parquet(paths, columns=columns, filter=filter)
    if format == "jsonl":
        ds = ray.data.read_json(paths)
    elif format == "csv":
        ds = ray.data.read_csv(paths)
    elif format == "text":
        ds = ray.data.read_text(paths).map_batches(
            lambda b: pa.table({text_col: b.column("text")}),
            batch_format="pyarrow")
    else:
        raise ValueError(f"unsupported corpus format {format!r}")
    if filter is not None:
        expr = filter

        def post_filter(batch: pa.Table) -> pa.Table:
            import pyarrow.dataset as pads
            scanner = pads.Scanner.from_batches(
                batch.to_batches(), schema=batch.schema, filter=expr)
            return scanner.to_table()

        ds = ds.map_batches(post_filter, batch_format="pyarrow")
    if columns is not None:
        ds = ds.select_columns(columns)
    return ds


def with_content_ids(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Content-addressed int64 ids: ``hash64_utf8`` of the document text,
    computed from the Arrow buffers row-locally — no counters, no
    coordination, identical across reruns and block layouts (the only
    id scheme that is both deterministic and shuffle-free at 10^12
    rows). Duplicate texts intentionally share an id, which composes
    with exact dedup; pipelines needing unique ids should carry them
    from the source system instead."""
    from tdigest_ray.sketches.hashing import hash64_utf8

    def add_ids(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        import numpy as np

        ids = hash64_utf8(col).view(np.int64)
        return batch.append_column(id_col, pa.array(ids, pa.int64()))

    return ds.map_batches(add_ids, batch_format="pyarrow")
