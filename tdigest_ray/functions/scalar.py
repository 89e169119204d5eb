"""Scalar (non-aggregate) t-digest functions.

Library-level equivalents of the reference's per-row SQL functions:
``tdigest_add`` (incremental single/batch update, tdigest.c:2422-2533),
``tdigest_union`` (tdigest.c:2543-2576), ``tdigest_count``
(tdigest.c:2941-2947), and ``tdigest_digest_sum`` / ``tdigest_digest_avg``
(tdigest.c:3433-3476).

All functions accept either a :class:`TDigest` object or the binary wire
format (``bytes``); ``None`` digests follow the reference's NULL semantics.
"""

from __future__ import annotations

import numpy as np

from tdigest_ray.functions import serde
from tdigest_ray.sketches.tdigest import TDigest, check_compression

DigestLike = "TDigest | bytes | None"


def _as_digest(d) -> TDigest | None:
    if d is None or isinstance(d, TDigest):
        return d
    if isinstance(d, (bytes, bytearray)):
        return serde.from_bytes(bytes(d))
    raise TypeError(f"expected TDigest, bytes or None, got {type(d)}")


def digest_to_state(d: TDigest) -> TDigest:
    """Expand a frozen digest into a fresh accumulator by re-inserting its
    centroids (``tdigest_digest_to_aggstate``, tdigest.c:2384-2408).

    The fresh state has ``ncompactions == 0``, which is what makes the
    incremental API produce digests identical to one-shot aggregation over
    the same insertion order (incremental.sql contract).
    """
    state = TDigest(d.compression)
    state.merge_digest(d)
    return state


def freeze(state: TDigest, compact: bool = True) -> TDigest:
    """``tdigest_aggstate_to_digest`` (tdigest.c:918-940): optionally compact,
    then snapshot."""
    if compact:
        state.compress()
    return state.copy()


def tdigest_add(
    digest,
    value,
    compression: int | None = None,
    compact: bool = True,
) -> TDigest | None:
    """Incremental update: add value(s) to a digest, creating it if None.

    ``value`` may be a scalar or an array (the batch variant,
    tdigest.c:2480-2533). NULL/None values are skipped; a None digest with a
    None value stays None.
    """
    if value is None:
        return _as_digest(digest)
    d = _as_digest(digest)
    if d is None:
        if compression is None:
            raise ValueError(
                "compression value not supplied, but t-digest is NULL"
            )
        state = TDigest(check_compression(compression))
    else:
        state = digest_to_state(d)
    if np.isscalar(value):
        state.add(float(value))
    else:
        state.add_many(np.asarray(value, dtype=np.float64))
    return freeze(state, compact)


def tdigest_union(d1, d2, compact: bool = True) -> TDigest | None:
    """Merge two digests (``tdigest_union_double_increment``,
    tdigest.c:2543-2576). NULL-tolerant on both sides; the idiom
    ``tdigest_union(None, d)`` forces a compaction (README.md:243-248)."""
    a = _as_digest(d1)
    b = _as_digest(d2)
    if a is None and b is None:
        return None
    if a is None:
        return freeze(digest_to_state(b), compact)
    if b is None:
        return freeze(digest_to_state(a), compact)
    state = digest_to_state(a)
    state.merge_digest(b)
    return freeze(state, compact)


def tdigest_count(digest) -> int | None:
    """Number of items represented by the digest."""
    d = digest
    if d is None:
        return None
    if isinstance(d, (bytes, bytearray)):
        return serde.digest_count(bytes(d))
    return d.count


def tdigest_quantile(digest, percentiles):
    """Quantile(s) of a stored digest (finalizer semantics)."""
    d = _as_digest(digest)
    if d is None:
        return None
    return d.quantile(percentiles)


def tdigest_cdf(digest, values):
    """Rank(s) of hypothetical value(s) within a stored digest."""
    d = _as_digest(digest)
    if d is None:
        return None
    return d.cdf(values)


def tdigest_digest_sum(digest, low: float = 0.0, high: float = 1.0):
    d = _as_digest(digest)
    if d is None:
        return None
    return d.trimmed_sum(low, high)


def tdigest_digest_avg(digest, low: float = 0.0, high: float = 1.0):
    d = _as_digest(digest)
    if d is None:
        return None
    return d.trimmed_avg(low, high)
