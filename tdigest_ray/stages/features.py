"""Per-batch feature-extraction stages (zero-copy Arrow, fully vectorized).

These are the ``map_batches`` transforms that turn Common-Crawl-style page
rows (url, warc_ts, html, text, lang — BASELINE.json ``input_hint``) into the
numeric features the sketches digest: ``text_len``, ``html_size``,
``token_count``. The reference has no transforms of its own (it rides SQL
projections); these stages are the Ray-side equivalent of the expressions in
its README examples.

All functions take and return ``pyarrow.Table`` and use ``pyarrow.compute``
kernels only — no Python per-row loops.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

# The deterministic html template used by the synthetic pages table
# (FIXTURES.md F1): html = b"<html><body><p>" + text + b"</p></body></html>"
HTML_PREFIX = b"<html><body><p>"
HTML_SUFFIX = b"</p></body></html>"


def extract_text(batch: pa.Table, html_col: str = "html",
                 out_col: str = "extracted_text") -> pa.Table:
    """Extract the text payload from the html column.

    Pure, deterministic inverse of the fixture template, so extracted text is
    byte-identical to the stored ``text`` column per url — the per-row
    invariant required by ``input_hint`` (pinned by
    tests/test_pipelines.py::test_extract_text_byte_identical).
    """
    decoded = batch.column(html_col).cast(pa.string())
    sliced = pc.utf8_slice_codeunits(
        decoded, start=len(HTML_PREFIX), stop=-len(HTML_SUFFIX)
    )
    return batch.append_column(out_col, sliced)


def feature_names(cols, html_col: str | None = "html") -> list[str]:
    """The columns :func:`add_features` appends to a batch whose columns
    are ``cols``: ``text_len`` and ``token_count`` always, ``html_size``
    iff ``html_col`` is present."""
    html = html_col is not None and html_col in cols
    return ["text_len", "token_count"] + (["html_size"] if html else [])


def add_features(batch: pa.Table, text_col: str = "text",
                 html_col: str | None = "html") -> pa.Table:
    """Append :func:`feature_names` as int64 columns."""
    text = batch.column(text_col)
    batch = batch.append_column(
        "text_len", pc.cast(pc.utf8_length(text), pa.int64())
    )
    # whitespace tokens: count of single-space separators + 1 (empty -> 1,
    # matching DuckDB len(string_split(text, ' ')))
    batch = batch.append_column(
        "token_count",
        pc.cast(pc.add(pc.count_substring(text, " "), 1), pa.int64()),
    )
    if "html_size" in feature_names(batch.column_names, html_col):
        batch = batch.append_column(
            "html_size",
            pc.cast(pc.binary_length(batch.column(html_col)), pa.int64()),
        )
    return batch
