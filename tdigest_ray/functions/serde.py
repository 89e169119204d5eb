"""Serialization of t-digests in the reference's wire formats.

Four formats, mirroring the reference extension:

* **text** — ``flags F count N compression C centroids K (mean, count) ...``
  with means printed as C ``%lf`` (6 decimals); emit: ``tdigest_out``
  (tdigest.c:2798-2824), parse+validate: ``tdigest_in`` (tdigest.c:2612-2796)
  including the legacy (sum,count) -> (mean,count) conversion
  (``tdigest_update_format``, tdigest.c:832-864).
* **binary** — big-endian ``flags:int32, count:int64, compression:int32,
  ncentroids:int32`` then ``(mean:float8, count:int64)`` pairs; mirrors
  ``tdigest_send`` / ``tdigest_recv`` (tdigest.c:2826-2939). This is the
  lossless at-rest format used for digest columns in Parquet.
* **json** — ``{"flags": ..., "count": ..., "compression": ...,
  "centroids": K, "mean": [...], "count": [...]}`` with ``%g`` formatting
  (``tdigest_to_json``, tdigest.c:2949-3021).
* **float array** — ``[flags, count, compression, ncentroids,
  mean1, count1, ...]`` (``tdigest_to_array``, tdigest.c:3023-3081).
"""

from __future__ import annotations

import json as _json
import re
import struct

import numpy as np

from tdigest_ray.sketches.tdigest import (
    MAX_COMPRESSION,
    MIN_COMPRESSION,
    TDIGEST_STORES_MEAN,
    TDIGEST_VALID_FLAGS,
    TDigest,
    buffer_size,
)

_HEADER = struct.Struct(">iqii")
_PAIR = np.dtype([("mean", ">f8"), ("count", ">i8")])
_HEADER_RE = re.compile(
    r"^flags (-?\d+) count (-?\d+) compression (-?\d+) centroids (-?\d+)"
)
_CENTROID_RE = re.compile(r"\s*\(([^,()]+),\s*(-?\d+)\)")


def _validate_header(flags: int, count: int, compression: int, ncentroids: int) -> None:
    if flags & ~TDIGEST_VALID_FLAGS:
        raise ValueError("invalid flags for t-digest")
    if compression < MIN_COMPRESSION or compression > MAX_COMPRESSION:
        raise ValueError(
            f"compression for t-digest must be in [{MIN_COMPRESSION}, {MAX_COMPRESSION}]"
        )
    if count <= 0:
        raise ValueError("count value for the t-digest must be positive")
    if ncentroids <= 0:
        raise ValueError("number of centroids for the t-digest must be positive")
    if ncentroids > buffer_size(compression):
        raise ValueError("number of centroids for the t-digest exceeds buffer size")


def _validate_centroids(
    flags: int,
    count: int,
    means: np.ndarray,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Shared validation + legacy-format conversion for text/binary input."""
    if np.isnan(means).any():
        raise ValueError(
            "mean value for all centroids in a t-digest must be valid"
        )
    if (counts <= 0).any():
        raise ValueError(
            "count value for all centroids in a t-digest must be positive"
        )
    if (counts > count).any():
        raise ValueError("count value of a centroid exceeds total count")
    # sorted-by-mean check happens on the *converted* means for the legacy
    # (sum,count) format (tdigest.c:2726-2738)
    eff_means = means if flags & TDIGEST_STORES_MEAN else means / counts
    if len(eff_means) > 1 and (np.diff(eff_means) < 0).any():
        raise ValueError("centroids not sorted by mean")
    total = int(counts.sum())
    if total != count:
        raise ValueError(
            f"total count does not match the data ({total} != {count})"
        )
    return eff_means, counts


def to_text(d: TDigest) -> str:
    """Reference text format; always emits the new (mean) format."""
    means, counts = d.centroids()
    parts = [
        f"flags {TDIGEST_STORES_MEAN} count {d.count} "
        f"compression {d.compression} centroids {d.ncentroids}"
    ]
    for m, c in zip(means.tolist(), counts.tolist()):
        parts.append(f" ({m:.6f}, {c})")
    return "".join(parts)


def from_text(s: str) -> TDigest:
    m = _HEADER_RE.match(s)
    if not m:
        raise ValueError("failed to parse t-digest value")
    flags, count, compression, ncentroids = (int(g) for g in m.groups())
    _validate_header(flags, count, compression, ncentroids)
    body = s[m.end() :]
    means = np.empty(ncentroids, dtype=np.float64)
    counts = np.empty(ncentroids, dtype=np.int64)
    pos = 0
    parsed = 0
    for i in range(ncentroids):
        cm = _CENTROID_RE.match(body, pos)
        if not cm:
            raise ValueError("failed to parse centroid")
        try:
            means[i] = float(cm.group(1))
        except ValueError:
            raise ValueError("failed to parse centroid") from None
        counts[i] = int(cm.group(2))
        pos = cm.end()
        parsed += 1
        if pos == len(body):
            break
    if pos < len(body):
        raise ValueError("input t-digest value too long")
    if parsed != ncentroids:
        raise ValueError("input t-digest value too short")
    eff_means, counts = _validate_centroids(flags, count, means, counts)
    return TDigest.from_centroids(compression, eff_means, counts, count=count)


def to_bytes(d: TDigest) -> bytes:
    """Lossless big-endian wire format (mirrors tdigest_send)."""
    means, counts = d.centroids()
    n = d.ncentroids
    header = _HEADER.pack(TDIGEST_STORES_MEAN, d.count, d.compression, n)
    arr = np.empty(n, dtype=_PAIR)
    arr["mean"] = means
    arr["count"] = counts
    return header + arr.tobytes()


def _read_header(b: bytes) -> tuple[int, int, int, int]:
    """Validated ``(flags, count, compression, ncentroids)`` of a binary
    digest whose length matches its centroid count."""
    if len(b) < _HEADER.size:
        raise ValueError("invalid t-digest binary value")
    flags, count, compression, ncentroids = _HEADER.unpack_from(b)
    _validate_header(flags, count, compression, ncentroids)
    if len(b) != _HEADER.size + _PAIR.itemsize * ncentroids:
        raise ValueError("invalid t-digest binary length")
    return flags, count, compression, ncentroids


def _decode(b: bytes) -> tuple[int, int, np.ndarray, np.ndarray]:
    """Validated ``(count, compression, means, counts)`` of a binary digest
    (``tdigest_recv``), its pairs converted into exactly-sized native arrays.

    One combined test accepts only what :func:`_validate_centroids`
    accepts. The int64 prefix sums of the counts (wrapping like the ordered
    checks' sum) rise strictly from a positive first one, so every count
    is positive and no sum wraps; the last is ``count``, so none is above
    it. The means are non-decreasing, which no NaN passes. The test
    rejects only one kind of valid digest, one whose counts' int64 sum
    wraps. That one, legacy ``(sum, count)`` input and every invalid one go
    through the ordered checks, which accept it, convert the legacy means
    or name the failure with the reference's message."""
    flags, count, compression, n = _read_header(b)
    pairs = np.frombuffer(b, _PAIR, n, _HEADER.size)
    means = pairs["mean"].astype(np.float64)
    counts = pairs["count"].astype(np.int64)
    cum = np.add.accumulate(counts)
    if not (
        flags & TDIGEST_STORES_MEAN
        and cum[-1] == count
        and cum[0] > 0
        and np.count_nonzero(cum[1:] > cum[:-1]) == n - 1
        and np.count_nonzero(means[1:] >= means[:-1]) == n - 1
        and means[0] == means[0]  # NaN, when there is no pair to compare
    ):
        means = _validate_centroids(flags, count, means, counts)[0]
    return count, compression, means, counts


def from_bytes(b: bytes) -> TDigest:
    """Decode a binary digest (``tdigest_recv``). The digest holds its
    centroids at their exact size and gets its append buffers only when
    something is added to it (see :class:`TDigest`), so a digest that is
    only queried never allocates them."""
    count, compression, means, counts = _decode(b)
    return TDigest._stored(compression, count, means, counts)


def merge_blobs(blobs, acc: TDigest | None = None) -> TDigest | None:
    """Merge an iterable of binary digests (``None`` entries skipped) into
    one digest, or ``None`` when no digest is present. The result is not
    given a final compaction; callers compact before storing it.

    ``acc`` continues an earlier merge in place:
    ``merge_blobs(b, merge_blobs(a))`` is the same state as
    ``merge_blobs([*a, *b])``, so a merge can stream over inputs that
    arrive in pieces.

    The first digest seeds the state as decoded, so it keeps its
    compression (first-seen wins, tdigest.c:1504-1513) and a lone digest
    comes back unchanged; the centroids of every later digest are
    re-inserted through :meth:`TDigest.add_centroids`, exactly as
    :meth:`TDigest.merge_digest` would. The inputs are streamed, never
    concatenated, so memory stays bounded by the merge buffer."""
    for b in blobs:
        if b is None:
            continue
        if acc is None:
            acc = from_bytes(b)
        else:
            acc.add_centroids(*_decode(b)[2:])
    return acc


def to_json(d: TDigest) -> str:
    """Reference JSON cast format, means formatted with C ``%g``."""
    means, counts = d.centroids()
    mean_str = ", ".join("%g" % m for m in means.tolist())
    count_str = ", ".join(str(c) for c in counts.tolist())
    return (
        "{"
        f'"flags": {TDIGEST_STORES_MEAN}, '
        f'"count": {d.count}, '
        f'"compression": {d.compression}, '
        f'"centroids": {d.ncentroids}, '
        f'"mean": [{mean_str}], '
        f'"count": [{count_str}]'
        "}"
    )


def from_json(s: str) -> TDigest:
    """Parse the JSON cast format (inverse of :func:`to_json`; lossy to the
    extent of ``%g`` formatting, like the reference's cast)."""
    obj = _json.loads(s)
    means = np.asarray(obj["mean"], dtype=np.float64)
    # "count" appears twice in the reference's JSON (total + per-centroid
    # array); python's json keeps the last occurrence = the array
    counts = np.asarray(obj["count"], dtype=np.int64)
    return TDigest.from_centroids(
        int(obj["compression"]), means, counts, count=int(counts.sum())
    )


def to_array(d: TDigest) -> np.ndarray:
    """float8[] cast: [flags, count, compression, ncentroids, m1, c1, ...]."""
    means, counts = d.centroids()
    n = d.ncentroids
    out = np.empty(4 + 2 * n, dtype=np.float64)
    out[0] = TDIGEST_STORES_MEAN
    out[1] = d.count
    out[2] = d.compression
    out[3] = n
    out[4::2] = means
    out[5::2] = counts
    return out


def from_array(a) -> TDigest:
    a = np.asarray(a, dtype=np.float64)
    n = int(a[3])
    means = a[4 : 4 + 2 * n : 2]
    counts = a[5 : 4 + 2 * n : 2].astype(np.int64)
    return TDigest.from_centroids(int(a[2]), means, counts, count=int(a[1]))


def digest_count(b: bytes) -> int:
    """``tdigest_count`` (tdigest.c:2941-2947) over the binary format —
    reads the header only, no centroid decode, but rejects a header or a
    length that :func:`from_bytes` rejects."""
    return _read_header(b)[1]
