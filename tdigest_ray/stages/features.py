"""Per-batch feature-extraction stages (zero-copy Arrow, fully vectorized).

These are the ``map_batches`` transforms that turn Common-Crawl-style page
rows (url, warc_ts, html, text, lang — BASELINE.json ``input_hint``) into the
numeric features the sketches digest: ``text_len``, ``html_size``,
``token_count``. The reference has no transforms of its own (it rides SQL
projections); these stages are the Ray-side equivalent of the expressions in
its README examples.

All functions take and return ``pyarrow.Table`` and use ``pyarrow.compute``
or numpy kernels over the Arrow buffers only — no Python per-row loops.
"""

from __future__ import annotations

import numpy as np
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


_OFFSET_DTYPES = {pa.string(): np.dtype(np.int32),
                  pa.binary(): np.dtype(np.int32),
                  pa.large_string(): np.dtype(np.int64),
                  pa.large_binary(): np.dtype(np.int64)}


def _space_counts(arr: pa.Array) -> pa.Array:
    """Per-row count of the byte 0x20 in a (large_)string or (large_)binary
    array, as int64, null where the row is null: ``pc.count_substring(arr,
    " ")`` read straight off the data buffer, one vectorized pass instead
    of a substring search per row.

    The byte 0x20 never occurs inside a multi-byte UTF-8 sequence, so a
    byte count is the character count. The hit mask gets one trailing 0:
    ``reduceat`` needs every row start to index into it, and an empty
    trailing row starts at the end of the data."""
    otype = _OFFSET_DTYPES.get(arr.type)
    if otype is None:
        raise TypeError(f"cannot count spaces in a {arr.type} column")
    n = len(arr)
    if not n:
        return pa.array([], pa.int64())
    _, offsets_buf, data_buf = arr.buffers()
    offsets = np.frombuffer(offsets_buf, otype, n + 1,
                            arr.offset * otype.itemsize)
    lo, hi = int(offsets[0]), int(offsets[-1])
    hit = np.zeros(hi - lo + 1, dtype=bool)
    if hi > lo:
        np.equal(np.frombuffer(data_buf, np.uint8, hi - lo, lo), 0x20,
                 out=hit[:-1])
    counts = np.add.reduceat(hit, offsets[:-1] - lo, dtype=np.uint32)
    counts[offsets[1:] == offsets[:-1]] = 0  # reduceat: hit[start], not 0
    mask = (arr.is_null().to_numpy(zero_copy_only=False) if arr.null_count
            else None)
    return pa.array(counts.astype(np.int64), mask=mask)


def token_counts(text: pa.ChunkedArray) -> pa.ChunkedArray:
    """Whitespace tokens per row, as int64: the single-space separators + 1
    (empty -> 1, matching DuckDB ``len(string_split(text, ' '))``), null
    where the row is null. The values of ``pc.count_substring(text, " ")
    + 1``, from :func:`_space_counts`."""
    spaces = pa.chunked_array([_space_counts(c) for c in text.chunks],
                              pa.int64())
    return pc.add(spaces, 1)


def add_features(batch: pa.Table, text_col: str = "text",
                 html_col: str | None = "html") -> pa.Table:
    """Append :func:`feature_names` as int64 columns."""
    text = batch.column(text_col)
    batch = batch.append_column(
        "text_len", pc.cast(pc.utf8_length(text), pa.int64())
    )
    batch = batch.append_column("token_count", token_counts(text))
    if "html_size" in feature_names(batch.column_names, html_col):
        batch = batch.append_column(
            "html_size",
            pc.cast(pc.binary_length(batch.column(html_col)), pa.int64()),
        )
    return batch
