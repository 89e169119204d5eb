"""The read path of stored digests: one decode for every binary blob,
digests that hold their centroids at their exact size until written, and
point queries on them.

* The decode accepts and rejects exactly what the ordered checks of
  ``tdigest_recv`` (tdigest.c:2826-2939) accept and reject, with the same
  message.
* Quantile, cdf and trimmed answers are bit-identical to the per-centroid
  definitions they vectorize.
* Writing to a decoded digest gives the bytes of a digest that had its
  append buffers all along.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdigest_ray.functions import scalar, serde
from tdigest_ray.sketches.tdigest import TDigest, buffer_size

_PAIR = np.dtype([("mean", ">f8"), ("count", ">i8")])
_I64 = 2**63


def _ordered_decode(b: bytes):
    """``(count, compression, means, counts)`` through the ordered checks
    alone: header, length, then each centroid check in the reference's
    order, each with its own message."""
    if len(b) < 20:
        raise ValueError("invalid t-digest binary value")
    flags, count, compression, n = struct.unpack_from(">iqii", b)
    serde._validate_header(flags, count, compression, n)
    if len(b) != 20 + 16 * n:
        raise ValueError("invalid t-digest binary length")
    pairs = np.frombuffer(b, dtype=_PAIR, offset=20)
    means, counts = serde._validate_centroids(
        flags, count, pairs["mean"].astype(np.float64),
        pairs["count"].astype(np.int64))
    return count, compression, means, counts


def _outcome(fn, b):
    try:
        return "ok", fn(b)
    except ValueError as e:
        return "error", str(e)


def _wrap(x: int) -> int:
    """``x`` as an int64 wraps it."""
    return (x + _I64) % 2**64 - _I64


def _blob(flags, count, compression, means, counts, ncentroids=None):
    n = len(means) if ncentroids is None else ncentroids
    pairs = np.empty(len(means), dtype=_PAIR)
    pairs["mean"] = means
    pairs["count"] = counts
    return struct.pack(">iqii", flags, count, compression, n) + pairs.tobytes()


_DEFECTS = ["flags", "legacy", "nan", "order", "count", "total",
            "compression", "ncentroids", "length"]


@st.composite
def _blobs(draw):
    """A valid blob with up to two defects: a bad flag, legacy (sum,
    count) pairs, a NaN mean (first, in the middle, last), out-of-order
    means, a zero, negative or oversized count (first, in the middle,
    last), a total that is off, a compression or a centroid count out of
    range, and a wrong length."""
    n = draw(st.integers(1, 12))
    means = sorted(draw(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n)))
    counts = draw(st.lists(st.integers(1, 50), min_size=n, max_size=n))
    flags, compression, ncentroids = 1, 100, n
    cut, pad = 0, b""
    where = {"first": 0, "middle": n // 2, "last": n - 1}
    defects = draw(st.lists(st.sampled_from(_DEFECTS), max_size=2))
    for defect in defects:
        if defect == "flags":
            flags = draw(st.sampled_from([2, 3, -1]))
        elif defect == "legacy":  # pairs store sums
            flags = 0
            means = [m * c for m, c in zip(means, counts)]
        elif defect == "nan":
            means[where[draw(st.sampled_from(sorted(where)))]] = math.nan
        elif defect == "order" and n > 1:
            i = draw(st.integers(0, n - 2))
            means[i], means[i + 1] = means[i + 1], means[i]
        elif defect == "count":
            counts[where[draw(st.sampled_from(sorted(where)))]] = draw(
                st.sampled_from([0, -1, -3, _I64 - 1, 2**62, -_I64]))
    total = _wrap(sum(counts))
    if "total" in defects:
        total = draw(st.sampled_from([_wrap(total + 1), _wrap(total - 1), 0,
                                      -5, _I64 - 1]))
    if "compression" in defects:
        compression = draw(st.sampled_from([9, 10001, -1]))
    if "ncentroids" in defects:
        ncentroids = draw(st.sampled_from([0, -1, n + 1, n - 1,
                                           10 * compression + 1]))
    b = _blob(flags, total, compression, means, counts, ncentroids)
    if "length" in defects:
        cut = draw(st.sampled_from([0, 1, 8, 16, len(b) - 19]))
        pad = draw(st.sampled_from([b"", b"\x00", b"\x00" * 16]))
    return b[: len(b) - cut] + pad


class TestOneDecode:
    @settings(max_examples=400, deadline=None)
    @given(b=_blobs())
    # counts in [1, count] whose int64 sum wraps around to count: valid
    @example(b=_blob(1, _I64 - 1, 10, [1.0, 2.0, 3.0, 4.0],
                     [_I64 - 1, _I64 - 1, _I64 - 1, 2]))
    # a count that is not positive, first or last, behind a right total
    @example(b=_blob(1, 5, 100, [1.0, 2.0], [0, 5]))
    @example(b=_blob(1, 4, 100, [1.0, 2.0], [-1, 5]))
    @example(b=_blob(1, 5, 100, [1.0, 2.0], [5, 0]))
    # a NaN first, in the middle and last of sorted means
    @example(b=_blob(1, 3, 10, [math.nan, 1.0, 2.0], [1, 1, 1]))
    @example(b=_blob(1, 3, 10, [0.0, math.nan, 2.0], [1, 1, 1]))
    @example(b=_blob(1, 3, 10, [0.0, 1.0, math.nan], [1, 1, 1]))
    @example(b=_blob(1, 1, 10, [math.nan], [1]))
    def test_accepts_and_rejects_like_the_ordered_checks(self, b):
        want = _outcome(_ordered_decode, b)
        got = _outcome(serde.from_bytes, b)
        assert got[0] == want[0], (got, want)
        if got[0] == "error":
            assert got[1] == want[1]
            # every reader of a blob goes through the same decode
            assert _outcome(serde.merge_blobs, [b]) == got
            acc = TDigest(10)
            acc.add(1.0)
            assert _outcome(lambda x: serde.merge_blobs([x], acc), b) == got
            return
        count, compression, means, counts = want[1]
        d = got[1]
        assert (d.count, d.compression) == (count, compression)
        got_means, got_counts = d.centroids()
        assert got_means.tobytes() == means.tobytes()
        assert got_counts.tobytes() == counts.tobytes()
        # exactly sized: no append buffers on a digest that is only read
        assert len(d._means) == len(d._counts) == d.ncentroids == len(means)


# --------------------------------------------------------------------- #
# answers
# --------------------------------------------------------------------- #

def _stored_blobs():
    rng = np.random.default_rng(20261020)
    out = []
    for compression in (10, 37, 100, 500):
        for shape in range(4):
            n = int(rng.integers(1, 6000))
            if shape == 0:
                v = rng.random(n)
            elif shape == 1:
                v = rng.lognormal(0.0, 2.0, n)
            elif shape == 2:  # equal-mean runs
                v = rng.integers(0, 30, n).astype(float)
            else:
                v = np.round(rng.normal(size=n), 1)
            d = TDigest(compression)
            d.add_many(v)
            d.compress()
            out.append(serde.to_bytes(d))
    return out


_PS = [0.0, 0.001, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 0.999, 1.0]


def test_quantile_and_cdf_answers_are_pinned():
    """The float64 bits of scalar and vector quantile/cdf answers on 16
    stored digests, as the point-query code gave them before the read-only
    digests and the one decode (sha256 of the answers)."""
    h = hashlib.sha256()
    for b in _stored_blobs():
        d = serde.from_bytes(b)
        means = d.centroids()[0]
        xs = [means[0] - 1.0, *means.tolist(), means[-1] + 1.0, 0.5]
        h.update(np.asarray([serde.from_bytes(b).quantile(p)
                             for p in _PS]).tobytes())
        h.update(np.asarray(d.quantile(_PS)).tobytes())
        h.update(np.asarray([serde.from_bytes(b).cdf(x)
                             for x in xs]).tobytes())
        h.update(np.asarray(d.cdf(xs)).tobytes())
    assert h.hexdigest() == (
        "92c5a3b3629bff46613c5338d1fd7ab42a26e5ccb28789249b327b48c52cebcf")


def _walk_trimmed(d: TDigest, low: float, high: float):
    """The per-centroid trimmed walk (tdigest.c:3306-3357) over the sorted
    digest, the sum taken as one ``np.dot`` of the means and the counts
    each centroid adds."""
    d._sort()
    means, counts = d.centroids()
    count_low = math.floor(d.count * low)
    count_high = math.ceil(d.count * high)
    done = 0
    adds = []
    for c in counts.tolist():
        add = c
        if count_low > done:
            add -= min(count_low - done, add)
        add = min(count_high - done, add) if count_high > done else 0
        adds.append(add)
        done += c
    return float(np.dot(means, np.asarray(adds, dtype=np.float64))), sum(adds)


_TRIMS = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(
    lambda t: t[0] < t[1])


class TestTrimmedAnswers:
    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(st.floats(-1e3, 1e3, allow_nan=False),
                           min_size=1, max_size=3000),
           rounding=st.sampled_from([None, 0, 1]),
           compression=st.integers(10, 200), trims=st.lists(_TRIMS,
                                                            min_size=1,
                                                            max_size=4),
           compact=st.booleans())
    def test_same_as_the_walk(self, values, rounding, compression, trims,
                              compact):
        v = np.asarray(values)
        if rounding is not None:  # equal-mean runs
            v = np.round(v, rounding)
        d = TDigest(compression)
        d.add_many(v)
        if compact:
            d.compress()
            d = serde.from_bytes(serde.to_bytes(d))
        for low, high in trims:
            s, c = _walk_trimmed(d.copy(), low, high)
            assert d._trimmed(low, high) == (s, c) or c == 0
            got_sum, got_avg = d.trimmed_sum(low, high), d.trimmed_avg(low,
                                                                      high)
            if c == 0:
                assert got_sum is None and got_avg is None
            else:
                assert got_sum == s and got_avg == s / c

    @pytest.mark.parametrize("low, high", [
        (0.0, 1.0), (0.05, 0.95), (0.3, 0.31), (0.5, 0.5000001),
        (0.9, 1.0), (0.0, 1e-9)])
    def test_stored_digests(self, low, high):
        for b in _stored_blobs():
            s, c = _walk_trimmed(serde.from_bytes(b), low, high)
            want = (s, s / c) if c else (None, None)
            assert (scalar.tdigest_digest_sum(b, low, high),
                    scalar.tdigest_digest_avg(b, low, high)) == want


# --------------------------------------------------------------------- #
# writes to a decoded digest
# --------------------------------------------------------------------- #

def _state(d: TDigest):
    m, c = d.centroids()
    return m.tobytes(), c.tobytes(), d.count, d.ncompactions, d.ncompacted


def _buffered(b: bytes) -> TDigest:
    """The digest of ``b`` with its append buffers allocated up front."""
    d = serde.from_bytes(b)
    d._capacity()
    assert len(d._means) == buffer_size(d.compression)
    return d


_WRITES = st.sampled_from(["add", "add_many", "add_centroid",
                           "add_centroids", "add_weighted", "merge_blobs",
                           "merge_digest"])


class TestWritesToDecodedDigests:
    @settings(max_examples=120, deadline=None)
    @given(blob=st.sampled_from(_stored_blobs()), ops=st.lists(
        st.tuples(_WRITES, st.integers(1, 3000), st.integers(0, 2**16)),
        min_size=1, max_size=4))
    def test_same_bytes_as_with_buffers(self, blob, ops):
        got, want = serde.from_bytes(blob), _buffered(blob)
        assert len(got._means) == got.ncentroids
        for op, size, seed in ops:
            rng = np.random.default_rng(seed)
            values = rng.normal(size=size)
            weights = rng.integers(1, 9, size)
            other = TDigest(10 + seed % 200)
            other.add_many(values)
            other.compress()
            for d in (got, want):
                if op == "add":
                    d.add(float(values[0]), size)
                elif op == "add_many":
                    d.add_many(values)
                elif op == "add_centroid":
                    d.add_centroid(float(values[0]), size)
                elif op == "add_centroids":
                    d.add_centroids(*other.centroids())
                elif op == "add_weighted":
                    d.add_weighted(values, weights)
                elif op == "merge_blobs":
                    assert serde.merge_blobs([serde.to_bytes(other)], d) is d
                else:
                    d.merge_digest(other)
            assert _state(got) == _state(want), op
        assert serde.to_bytes(got) == serde.to_bytes(want)

    def test_merge_blobs_continues_a_decoded_digest(self):
        blobs = _stored_blobs()
        one = serde.merge_blobs(blobs)
        two = serde.merge_blobs(blobs[8:], serde.merge_blobs(blobs[:8]))
        assert _state(one) == _state(two)

    def test_copy_is_exactly_sized(self):
        d = TDigest(100)
        d.add_many(np.arange(50.0))
        c = d.copy()
        assert len(c._means) == c.ncentroids == 50
        c.add_many(np.arange(2000.0))
        d.add_many(np.arange(2000.0))
        assert _state(c) == _state(d)


class TestMergeDigestWithItself:
    @pytest.mark.parametrize("compression, n", [(10, 70), (10, 99),
                                                (20, 150), (100, 999)])
    def test_across_a_buffer_full_boundary(self, compression, n):
        # 2n centroids overflow the buffer of 10 * compression slots, so
        # the merge compacts midway through its own centroids
        assert 2 * n > buffer_size(compression)
        rng = np.random.default_rng(n)
        d = TDigest(compression)
        d.add_many(rng.normal(size=n))
        e = d.copy()
        d.merge_digest(d)
        e.merge_digest(e.copy())
        assert _state(d) == _state(e)
        assert serde.to_bytes(d) == serde.to_bytes(e)
