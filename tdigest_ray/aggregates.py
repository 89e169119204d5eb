"""Ray Data ``AggregateFnV2`` adapters for the sketch library.

The reference's PostgreSQL aggregate protocol — SFUNC (per-row update),
COMBINEFUNC (merge partial states), SERIAL/DESERIAL, FINALFUNC, all
``PARALLEL SAFE`` (tdigest--1.0.0.sql:62-70) — maps 1:1 onto Ray Data's
``AggregateFnV2`` contract: ``aggregate_block`` folds a whole zero-copy Arrow
block into a partial sketch, ``combine`` merges partial sketches (shipped
pickled through the object store), ``finalize`` extracts the answer.

Ray's sort-based aggregate does map-side partial aggregation before the
shuffle (``SortAggregateTaskSpec.map``), so for ``groupby(key).aggregate``
only compact sketch states cross the wire — shuffle traffic is
O(#blocks x #groups x sketch_size), independent of row count. That is the
same partial->combine->finalize plan PostgreSQL runs for parallel aggregates
(test/sql/parallel_query.sql), generalized to a cluster.

Aggregates over raw values capture their parameters (compression, percentiles,
trim fractions) at construction, like the reference's aggregate arguments.
Weighted (<value,count>, README.md:168-189) and digest-column variants read a
second/sole column from the block; they disable Ray's column pruning by
reporting no single target column.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from ray.data.aggregate import AggregateFnV2
from ray.data.block import Block, BlockAccessor

from tdigest_ray.functions import serde
from tdigest_ray.sketches.tdigest import (
    TDigest,
    check_compression,
    check_percentiles,
    check_trim_values,
)


import struct as _struct

# Internal accumulator layout: 4-byte big-endian (ncompactions, ncompacted
# flag) header + the reference wire format. The header preserves the
# compaction-direction alternation (tdigest.c:458-467) across the combine
# chain — the wire format itself has no room for it, and losing it makes
# every chain compaction scan the same direction (a measurable bias).
# Finalizers always strip the header and emit pure wire format.
_STATE_HDR = _struct.Struct(">HH")


def _pack_state(d: TDigest, compacted: bool) -> bytes:
    return _STATE_HDR.pack(d.ncompactions & 0xFFFF, int(compacted)) + \
        serde.to_bytes(d)


def _unpack_state(b: bytes) -> TDigest:
    ncomp, compacted = _STATE_HDR.unpack_from(b)
    d = serde.from_bytes(b[_STATE_HDR.size:])
    d.ncompactions = ncomp
    if not compacted:
        d.ncompacted = 0  # lazy state: sorted but not yet compacted
    return d


def _freeze_bytes(d: Optional[TDigest]) -> Optional[bytes]:
    """Compact + serialize an accumulator state.

    Accumulator states live in block columns between the map-side partial
    aggregation and the reduce; as plain ``bytes`` they take Arrow's native
    binary path (no per-block type-inference fallback) and stay ~16 B per
    centroid on the wire."""
    if d is None or d.count == 0:
        return None
    d.compress()
    return _pack_state(d, True)


def _combine_bytes(cur: bytes, new: bytes) -> bytes:
    """COMBINEFUNC over serialized states: re-insert the source's centroids
    into the target (first-seen compression wins, tdigest.c:1504-1513).

    Compaction is lazy along the combine chain: intermediate states are only
    kept sorted until they exceed half the buffer — fewer compaction rounds
    reduce merged-digest error at low compression and save CPU. Digest-
    valued finalizers compact before storing."""
    d = _unpack_state(cur)
    d.merge_digest(_unpack_state(new))
    if d.ncentroids > 5 * d.compression:
        d.compress()
        return _pack_state(d, True)
    d._sort()
    return _pack_state(d, False)


def _final_digest(blob: bytes) -> TDigest:
    """Accumulator state -> digest ready for finalization (compacts lazy
    states, mirroring the reference finalizers' tdigest_compact call)."""
    d = _unpack_state(blob)
    d.compress()
    return d


def _column(block: Block, col: str):
    """One column of an Arrow or pandas block as an Arrow array."""
    return BlockAccessor.for_block(block).to_arrow().column(col)


def _column_values(block: Block, col: str) -> np.ndarray:
    """Extract a column as float64 with nulls dropped (the reference skips
    NULL inputs in every transition fn, tdigest.c:994-1005)."""
    import pyarrow.compute as pc

    arr = _column(block, col)
    if arr.null_count:
        arr = pc.drop_null(arr)
    return arr.to_numpy(zero_copy_only=False).astype(np.float64, copy=False)


def _column_pairs(block: Block, value_col: str, count_col: str):
    """(value, count) pairs with rows dropped when value is null; a null
    count means 1 (tdigest.c:1210-1215)."""
    values = np.asarray(_column(block, value_col).to_numpy(
        zero_copy_only=False), dtype=np.float64)
    counts = np.asarray(_column(block, count_col).to_numpy(
        zero_copy_only=False), dtype=np.float64)  # float to hold NaN
    keep = ~np.isnan(values)
    values, counts = values[keep], counts[keep]
    counts = np.where(np.isnan(counts), 1.0, counts).astype(np.int64)
    return values, counts


def _add_pairs(d: TDigest, values: np.ndarray, counts: np.ndarray) -> None:
    """Per-value expansion with the same compaction boundaries as the
    reference's one-at-a-time loop; huge counts take the tdigest_generate
    fast path (tdigest.c:1230-1242)."""
    big = counts > 10 * d.compression
    if big.any():
        for v, c in zip(values[big], counts[big]):
            d.add(float(v), int(c))
        values, counts = values[~big], counts[~big]
    if len(values):
        d.add_weighted(values, counts)


def _pointwise(method: str, x):
    """Finalizer evaluating ``quantile``/``cdf`` at one point or a list."""
    scalar = np.isscalar(x)

    def answer(d: TDigest):
        out = getattr(d, method)(x)
        return float(out) if scalar else list(out)

    return answer


class _TDigestAggregate(AggregateFnV2):
    """The one t-digest aggregate: an input reader plus a finalizer.

    Input: raw values of ``on`` (``compression`` given), ``<value,count>``
    pairs (``count_on`` given too; README.md:168-189) or stored wire-format
    digests (no ``compression``). The digest input follows
    ``tdigest_add_digest`` (tdigest.c:1437-1518): every stored digest is
    re-inserted into the state, which keeps the first-seen compression, so
    digests with different compression values merge safely
    (combine_crash.sql regression). ``answer`` maps the final digest to
    the result; without it the digest itself is emitted as wire bytes.
    """

    def __init__(self, name: str, on: str, compression: Optional[int] = None,
                 count_on: Optional[str] = None,
                 answer: Optional[Callable[[TDigest], Any]] = None):
        self._compression = (None if compression is None
                             else check_compression(compression))
        self._count_col = count_on
        self._answer = answer
        super().__init__(name, zero_factory=lambda: None, on=on,
                         ignore_nulls=True)

    def get_target_column(self) -> Optional[str]:
        # pairs read two columns: report none so Ray keeps the whole block
        # (the map-side partial aggregation still collapses each block to
        # one digest before the shuffle)
        return None if self._count_col else self._target_col_name

    def aggregate_block(self, block: Block) -> Optional[bytes]:
        col = self._target_col_name
        if self._compression is None:
            d = serde.merge_blobs(_column(block, col).to_pylist())
            if d is not None:
                d.ncompacted = 0  # all re-inserted: a lone one recompacts
        elif self._count_col is None:
            d = TDigest(self._compression)
            d.add_many(_column_values(block, col))
        else:
            d = TDigest(self._compression)
            _add_pairs(d, *_column_pairs(block, col, self._count_col))
        return _freeze_bytes(d)

    def combine(self, current: bytes, new: bytes) -> bytes:
        return _combine_bytes(current, new)

    def finalize(self, accumulator: bytes) -> Any:
        d = _final_digest(accumulator)
        return serde.to_bytes(d) if self._answer is None else self._answer(d)


class TDigestAgg(_TDigestAggregate):
    """``tdigest(value, compression)`` — materialize the digest itself as the
    binary wire format (row 5 of SURVEY.md §2.2; tdigest--1.0.0.sql:138-146)."""

    def __init__(self, on: str, compression: int = 100,
                 alias_name: Optional[str] = None):
        super().__init__(alias_name or f"tdigest({on})", on, compression)


class TDigestPercentile(_TDigestAggregate):
    """``tdigest_percentile(value, compression, q | q[])`` (rows 1-2)."""

    def __init__(self, on: str, q, compression: int = 100,
                 alias_name: Optional[str] = None):
        check_percentiles(q)
        super().__init__(alias_name or f"tdigest_percentile({on})", on,
                         compression, answer=_pointwise("quantile", q))


class TDigestPercentileOf(_TDigestAggregate):
    """``tdigest_percentile_of(value, compression, x | x[])`` (rows 3-4)."""

    def __init__(self, on: str, value, compression: int = 100,
                 alias_name: Optional[str] = None):
        super().__init__(alias_name or f"tdigest_percentile_of({on})", on,
                         compression, answer=_pointwise("cdf", value))


class TDigestTrimmedSum(_TDigestAggregate):
    """``tdigest_sum(value, compression, low, high)`` (row 14)."""

    def __init__(self, on: str, low: float, high: float, compression: int = 100,
                 alias_name: Optional[str] = None):
        check_trim_values(low, high)
        super().__init__(alias_name or f"tdigest_sum({on})", on, compression,
                         answer=lambda d: d.trimmed_sum(low, high))


class TDigestTrimmedAvg(_TDigestAggregate):
    """``tdigest_avg(value, compression, low, high)`` (row 14)."""

    def __init__(self, on: str, low: float, high: float, compression: int = 100,
                 alias_name: Optional[str] = None):
        check_trim_values(low, high)
        super().__init__(alias_name or f"tdigest_avg({on})", on, compression,
                         answer=lambda d: d.trimmed_avg(low, high))


# --------------------------------------------------------------------- #
# weighted <value,count> variants (rows 6-10; README.md:168-189)
# --------------------------------------------------------------------- #

class TDigestWeightedAgg(_TDigestAggregate):
    """``tdigest(value, count, compression)`` (row 6)."""

    def __init__(self, on: str, count_on: str, compression: int = 100,
                 alias_name: Optional[str] = None):
        super().__init__(alias_name or f"tdigest({on},{count_on})", on,
                         compression, count_on)


class TDigestWeightedPercentile(_TDigestAggregate):
    """``tdigest_percentile(value, count, compression, q | q[])`` (rows 7-8)."""

    def __init__(self, on: str, count_on: str, q, compression: int = 100,
                 alias_name: Optional[str] = None):
        check_percentiles(q)
        super().__init__(
            alias_name or f"tdigest_percentile({on},{count_on})", on,
            compression, count_on, _pointwise("quantile", q))


class TDigestWeightedPercentileOf(_TDigestAggregate):
    """``tdigest_percentile_of(value, count, compression, x | x[])``
    (rows 9-10)."""

    def __init__(self, on: str, count_on: str, value, compression: int = 100,
                 alias_name: Optional[str] = None):
        super().__init__(
            alias_name or f"tdigest_percentile_of({on},{count_on})", on,
            compression, count_on, _pointwise("cdf", value))


class TDigestWeightedTrimmedSum(_TDigestAggregate):
    """``tdigest_sum(value, count, compression, low, high)`` (row 15)."""

    def __init__(self, on: str, count_on: str, low: float, high: float,
                 compression: int = 100, alias_name: Optional[str] = None):
        check_trim_values(low, high)
        super().__init__(alias_name or f"tdigest_sum({on},{count_on})", on,
                         compression, count_on,
                         lambda d: d.trimmed_sum(low, high))


class TDigestWeightedTrimmedAvg(_TDigestAggregate):
    """``tdigest_avg(value, count, compression, low, high)`` (row 15)."""

    def __init__(self, on: str, count_on: str, low: float, high: float,
                 compression: int = 100, alias_name: Optional[str] = None):
        check_trim_values(low, high)
        super().__init__(alias_name or f"tdigest_avg({on},{count_on})", on,
                         compression, count_on,
                         lambda d: d.trimmed_avg(low, high))


# --------------------------------------------------------------------- #
# aggregates over stored digests (rows 11-13, 16) — the rollup primitive
# --------------------------------------------------------------------- #

class TDigestMergeAgg(_TDigestAggregate):
    """``tdigest(tdigest)`` (row 11) — merge stored digests into one.

    Public API for ``Dataset.aggregate`` / ``groupby().aggregate`` over a
    stored digest column. The library's own rollups do not use it: they
    fold through ``stages.partial.merge_partial_digest_table``."""

    def __init__(self, on: str, alias_name: Optional[str] = None):
        super().__init__(alias_name or f"tdigest({on})", on)


class TDigestMergePercentile(_TDigestAggregate):
    """``tdigest_percentile(tdigest, q | q[])`` (row 12)."""

    def __init__(self, on: str, q, alias_name: Optional[str] = None):
        check_percentiles(q)
        super().__init__(alias_name or f"tdigest_percentile({on})", on,
                         answer=_pointwise("quantile", q))


class TDigestMergePercentileOf(_TDigestAggregate):
    """``tdigest_percentile_of(tdigest, x | x[])`` (row 13)."""

    def __init__(self, on: str, value, alias_name: Optional[str] = None):
        super().__init__(alias_name or f"tdigest_percentile_of({on})", on,
                         answer=_pointwise("cdf", value))


class TDigestMergeTrimmedSum(_TDigestAggregate):
    """``tdigest_sum(tdigest, low, high)`` (row 16)."""

    def __init__(self, on: str, low: float, high: float,
                 alias_name: Optional[str] = None):
        check_trim_values(low, high)
        super().__init__(alias_name or f"tdigest_sum({on})", on,
                         answer=lambda d: d.trimmed_sum(low, high))


class TDigestMergeTrimmedAvg(_TDigestAggregate):
    """``tdigest_avg(tdigest, low, high)`` (row 16)."""

    def __init__(self, on: str, low: float, high: float,
                 alias_name: Optional[str] = None):
        check_trim_values(low, high)
        super().__init__(alias_name or f"tdigest_avg({on})", on,
                         answer=lambda d: d.trimmed_avg(low, high))


class TDigestCountAgg(_TDigestAggregate):
    """Total item count across merged digests — exact by construction
    (sum of centroid counts is preserved through every merge), which makes
    it a strong end-to-end invariant for the distributed merge machinery."""

    def __init__(self, on: str, alias_name: Optional[str] = None):
        super().__init__(alias_name or f"tdigest_count({on})", on,
                         answer=lambda d: d.count)


# --------------------------------------------------------------------- #
# sibling sketches (north_rule): HLL / count-min / KLL / Bloom — the same
# partial -> combine -> finalize protocol with trivially associative merges
# --------------------------------------------------------------------- #

from tdigest_ray.sketches.base import SketchAgg  # noqa: E402
from tdigest_ray.sketches.bloom import BloomFilter  # noqa: E402
from tdigest_ray.sketches.countmin import CountMin  # noqa: E402
from tdigest_ray.sketches.hll import HLL  # noqa: E402
from tdigest_ray.sketches.kll import KLL  # noqa: E402


class HLLCountAgg(SketchAgg):
    """Approximate COUNT(DISTINCT col); std error ~ 1.04/sqrt(2^p)."""

    def __init__(self, on: str, p: int = 14, alias_name: Optional[str] = None):
        super().__init__(
            on,
            lambda: HLL(p),
            alias_name or f"approx_distinct({on})",
            finalizer=lambda s: int(round(s.estimate())),
        )


class KLLQuantileAgg(SketchAgg):
    """Approximate quantile(s) via KLL (rank error ~ O(1/k))."""

    def __init__(self, on: str, q, k: int = 200,
                 alias_name: Optional[str] = None):
        scalar = np.isscalar(q)

        def _fin(s: KLL):
            out = s.quantile(q)
            return float(out) if scalar else list(out)

        super().__init__(on, lambda: KLL(k),
                         alias_name or f"kll_quantile({on})", finalizer=_fin)


class BloomAgg(SketchAgg):
    """Merged Bloom filter (serialized) over a key column."""

    def __init__(self, on: str, nbits: int = 1 << 20, k: int = 7,
                 alias_name: Optional[str] = None):
        super().__init__(on, lambda: BloomFilter(nbits, k),
                         alias_name or f"bloom({on})")


class CountMinAgg(SketchAgg):
    """Merged count-min sketch (serialized) over a key column."""

    def __init__(self, on: str, depth: int = 4, width: int = 2048,
                 alias_name: Optional[str] = None):
        super().__init__(on, lambda: CountMin(depth, width),
                         alias_name or f"countmin({on})")


class BottomKSampleAgg(SketchAgg):
    """Deterministic uniform sample of k distinct values (bottom-k hashing;
    merge-order independent, retry-safe). Finalize returns the sampled
    values as a list."""

    def __init__(self, on: str, k: int = 256, alias_name: Optional[str] = None):
        from tdigest_ray.sketches.sampling import BottomKSample

        super().__init__(on, lambda: BottomKSample(k),
                         alias_name or f"sample({on})",
                         finalizer=lambda s: s.sample())


class HeavyHittersAgg(AggregateFnV2):
    """Approximate top-k frequent values (heavy hitters).

    Count-min sketch for frequencies + a bounded per-block candidate set
    (every block's local top ``candidates`` keys). Merge adds tables and
    unions candidates; finalize queries the merged sketch for every
    candidate and returns the top-k ``[(value, est_count), ...]``.

    Guarantee: any value with true frequency > N/candidates in some block
    is in that block's candidate set, and CM estimates are overestimates
    within eps*N — so true global heavy hitters cannot be missed by the
    sketch, only over-reported.
    """

    def __init__(self, on: str, k: int = 10, depth: int = 5,
                 width: int = 8192, candidates: int = 128,
                 alias_name: Optional[str] = None):
        from tdigest_ray.sketches.countmin import CountMin

        self._k = k
        self._depth = depth
        self._width = width
        self._ncand = candidates
        self._cm_cls = CountMin
        super().__init__(alias_name or f"heavy_hitters({on})",
                         zero_factory=lambda: None, on=on, ignore_nulls=True)

    def aggregate_block(self, block: Block):
        import pickle

        import pyarrow as pa
        import pyarrow.compute as pc

        from tdigest_ray.sketches.base import column_array, column_hashes

        col = self._target_col_name
        cm = self._cm_cls(self._depth, self._width)
        # candidates: the block's top ``candidates`` values by count,
        # ties broken by ascending value
        h = column_hashes(block, col)
        if h is not None:
            # Arrow string column: hashes from the buffers, counts from
            # Arrow — no Python object per row
            if len(h) == 0:
                return None
            cm.update(h)
            vc = pc.value_counts(pc.drop_null(block.column(col)))
            values = vc.field("values")
            order = pc.select_k_unstable(
                pa.table({"c": vc.field("counts"), "v": values}),
                self._ncand, [("c", "descending"), ("v", "ascending")])
            top = values.take(order).to_pylist()
        else:
            values = column_array(block, col)
            if len(values) == 0:
                return None
            cm.update(values)
            uniq, counts = np.unique(values, return_counts=True)
            top = list(uniq[np.argsort(-counts, kind="stable")[: self._ncand]])
        return pickle.dumps((cm.to_bytes(), top))

    def combine(self, current, new):
        import pickle

        cm_b, cand = pickle.loads(current)
        cm2_b, cand2 = pickle.loads(new)
        cm = self._cm_cls.from_bytes(cm_b)
        cm.merge(self._cm_cls.from_bytes(cm2_b))
        merged = list(dict.fromkeys(list(cand) + list(cand2)))
        cap = 16 * self._ncand
        if len(merged) > cap:
            # rank survivors by the MERGED sketch's estimate (not insertion
            # order): a true heavy hitter surfaced by a late block keeps its
            # global count and therefore survives the cap
            arr = np.asarray(merged, dtype=object)
            est = cm.query(arr)
            keep = np.lexsort((arr.astype(str), -est))[:cap]
            merged = [merged[i] for i in np.sort(keep)]
        return pickle.dumps((cm.to_bytes(), merged))

    def finalize(self, accumulator):
        import pickle

        if accumulator is None:
            return None
        cm_b, cand = pickle.loads(accumulator)
        cm = self._cm_cls.from_bytes(cm_b)
        arr = np.asarray(cand, dtype=object)
        est = cm.query(arr)
        order = np.lexsort((arr.astype(str), -est))[: self._k]
        return [[str(arr[i]), int(est[i])] for i in order]
