"""Core t-digest unit tests (no Ray) — ports of the reference regression
suite's contracts (test/sql/{conversions,incremental,trimmed_aggregates,
value_count_api,combine,combine_crash}.sql)."""

import hashlib
import math
import struct

import numpy as np
import pytest

from tdigest_ray.functions import scalar, serde
from tdigest_ray.sketches.tdigest import (
    TDigest,
    buffer_size,
    from_value_count,
    generate_centroids,
)


def md5_order(n: int) -> np.ndarray:
    """Values 1..n in the reference's ``ORDER BY md5(i::text)`` permutation
    (incremental.sql:40)."""
    keys = [hashlib.md5(str(i).encode()).hexdigest() for i in range(1, n + 1)]
    return np.asarray(
        [i + 1 for i in sorted(range(n), key=lambda i: keys[i])], dtype=np.float64
    )


# --------------------------------------------------------------------- #
# serde goldens (conversions.sql / conversions.out)
# --------------------------------------------------------------------- #

OLD_FORMAT = (
    "flags 0 count 20 compression 10 centroids 8 (1000.000000, 1) "
    "(2000.000000, 1) (7000.000000, 2) (26000.000000, 4) (84000.000000, 7) "
    "(51000.000000, 3) (19000.000000, 1) (20000.000000, 1)"
)
NEW_FORMAT = (
    "flags 1 count 20 compression 10 centroids 8 (1000.000000, 1) "
    "(2000.000000, 1) (3500.000000, 2) (6500.000000, 4) (12000.000000, 7) "
    "(17000.000000, 3) (19000.000000, 1) (20000.000000, 1)"
)


class TestSerde:
    def test_old_format_conversion_golden(self):
        # legacy (sum,count) input re-emitted as (mean,count) — the
        # conversions.out golden value
        d = serde.from_text(OLD_FORMAT)
        assert serde.to_text(d) == NEW_FORMAT

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="must be positive"):
            serde.from_text(OLD_FORMAT.replace("count 20", "count -20"))

    def test_mismatched_count_rejected(self):
        with pytest.raises(ValueError, match="total count does not match"):
            serde.from_text(OLD_FORMAT.replace("count 20 compression",
                                               "count 21 compression"))

    def test_unsorted_rejected(self):
        bad = OLD_FORMAT.replace("(7000.000000, 2)", "(1000.000000, 2)")
        with pytest.raises(ValueError, match="not sorted by mean"):
            serde.from_text(bad)

    def test_invalid_compression_rejected(self):
        with pytest.raises(ValueError, match="compression for t-digest"):
            serde.from_text(OLD_FORMAT.replace("compression 10 ", "compression 5 "))

    def test_too_many_centroids_rejected(self):
        # ncentroids > BUFFER_SIZE(compression)
        with pytest.raises(ValueError, match="exceeds buffer size"):
            serde.from_text(
                OLD_FORMAT.replace("centroids 8", "centroids 101")
            )

    def test_text_roundtrip(self):
        d = TDigest(100)
        d.add_many(np.arange(1, 1001, dtype=np.float64))
        d.compress()
        rt = serde.from_text(serde.to_text(d))
        # %lf has 6 decimals; integers-ish means survive exactly here
        assert rt.count == d.count
        assert rt.ncentroids == d.ncentroids
        np.testing.assert_allclose(rt.centroids()[0], d.centroids()[0], atol=5e-7)

    def test_text_roundtrip_idempotent(self):
        # copy.sql contract: COPY text export/import compares re-emitted
        # TEXT for equality — i.e. parse(to_text(d)) re-emits the identical
        # string (idempotence at the %lf text level) for random digests
        rng = np.random.default_rng(99)
        for _ in range(25):
            comp = int(rng.integers(100, 1100))
            d = TDigest(comp)
            d.add_many(rng.random(10 * comp))
            d.compress()
            t1 = serde.to_text(d)
            t2 = serde.to_text(serde.from_text(t1))
            assert t1 == t2

    def test_binary_roundtrip_bitexact(self):
        # the copy.sql contract: random digests survive the binary
        # round-trip bit-exactly
        rng = np.random.default_rng(42)
        for _ in range(25):
            comp = int(rng.integers(100, 1100))
            nvals = 10 * comp
            d = TDigest(comp)
            d.add_many(rng.random(nvals))
            d.compress()
            rt = serde.from_bytes(serde.to_bytes(d))
            assert rt == d

    def test_json_golden_shape(self):
        d = serde.from_text(OLD_FORMAT)
        js = serde.to_json(d)
        assert js.startswith('{"flags": 1, "count": 20, "compression": 10, '
                             '"centroids": 8, "mean": [1000, 2000, 3500, ')
        rt = serde.from_json(js)
        assert rt.count == d.count
        assert rt.ncentroids == d.ncentroids

    def test_array_roundtrip(self):
        d = serde.from_text(OLD_FORMAT)
        a = serde.to_array(d)
        assert list(a[:4]) == [1.0, 20.0, 10.0, 8.0]
        rt = serde.from_array(a)
        assert rt == d


# --------------------------------------------------------------------- #
# binary input validation (tdigest_recv, tdigest.c:2826-2939)
# --------------------------------------------------------------------- #

#: the NEW_FORMAT golden's centroids (count 20, compression 10)
GOOD = [(1000.0, 1), (2000.0, 1), (3500.0, 2), (6500.0, 4), (12000.0, 7),
        (17000.0, 3), (19000.0, 1), (20000.0, 1)]


def _with(i, pair):
    out = list(GOOD)
    out[i] = pair
    return out


def _blob(flags, count, compression, pairs, ncentroids=None):
    n = len(pairs) if ncentroids is None else ncentroids
    return struct.pack(">iqii", flags, count, compression, n) + b"".join(
        struct.pack(">dq", m, c) for m, c in pairs)


def _text(flags, count, compression, pairs, ncentroids=None):
    n = len(pairs) if ncentroids is None else ncentroids
    return (f"flags {flags} count {count} compression {compression} "
            f"centroids {n}" + "".join(f" ({m:.6f}, {c})" for m, c in pairs))


# (flags, count, compression, pairs, ncentroids): one defect each
MALFORMED = {
    "nan_mean_single": (1, 5, 10, [(math.nan, 5)], None),
    "nan_mean_many": (1, 20, 10, _with(3, (math.nan, 4)), None),
    "zero_centroid_count": (1, 16, 10, _with(3, (6500.0, 0)), None),
    "negative_centroid_count": (1, 12, 10, _with(3, (6500.0, -4)), None),
    "centroid_count_over_total": (1, 20, 10, _with(4, (12000.0, 21)), None),
    # the int64 sum of these counts wraps around to the total
    "centroid_count_over_total_wrapped_sum": (
        1, 10, 10, [(1.0, 2**63 - 1), (2.0, 2**63 - 1), (3.0, 12)], None),
    "means_out_of_order": (1, 20, 10, _with(2, (1500.0, 2)), None),
    "total_mismatch": (1, 21, 10, GOOD, None),
    "bad_flags": (2, 20, 10, GOOD, None),
    "compression_too_small": (1, 20, 5, GOOD, None),
    "compression_too_large": (1, 20, 10001, GOOD, None),
    "more_centroids_than_buffer": (1, 101, 10, [(float(i), 1)
                                                for i in range(101)], None),
    "nonpositive_total": (1, 0, 10, GOOD, None),
    "nonpositive_ncentroids": (1, 20, 10, [], 0),
}


class TestBinaryValidation:
    """``from_bytes`` rejects each defect with the message ``from_text``
    gives for the same defect."""

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_same_message_as_text(self, case):
        flags, count, compression, pairs, n = MALFORMED[case]
        with pytest.raises(ValueError) as text_err:
            serde.from_text(_text(flags, count, compression, pairs, n))
        with pytest.raises(ValueError) as bin_err:
            serde.from_bytes(_blob(flags, count, compression, pairs, n))
        assert str(bin_err.value) == str(text_err.value)

    @pytest.mark.parametrize("blob, message", [
        (b"\x00" * 19, "invalid t-digest binary value"),
        (_blob(1, 20, 10, GOOD)[:-1], "invalid t-digest binary length"),
        (_blob(1, 20, 10, GOOD)[:-16], "invalid t-digest binary length"),
        (_blob(1, 20, 10, GOOD) + b"\x00", "invalid t-digest binary length"),
    ], ids=["shorter_than_header", "truncated_pair", "missing_pair",
            "overlong"])
    def test_length_defects(self, blob, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            serde.from_bytes(blob)

    def test_legacy_sum_count_blob_converts_like_text(self):
        sums = [(1000.0, 1), (2000.0, 1), (7000.0, 2), (26000.0, 4),
                (84000.0, 7), (51000.0, 3), (19000.0, 1), (20000.0, 1)]
        d = serde.from_bytes(_blob(0, 20, 10, sums))
        assert serde.to_text(d) == NEW_FORMAT
        assert d == serde.from_text(OLD_FORMAT)

    def test_legacy_blob_is_checked_after_conversion(self):
        # sorted as sums, unsorted as means (tdigest.c:2726-2738)
        sums = [(1000.0, 1), (1500.0, 2)]
        with pytest.raises(ValueError, match="not sorted by mean"):
            serde.from_bytes(_blob(0, 3, 10, sums))


class TestDigestCount:
    """``tdigest_count`` on bytes reads the header only, but validates it
    and the length the way the decoder does."""

    @pytest.mark.parametrize("fn", [serde.digest_count,
                                    scalar.tdigest_count])
    def test_counts_a_good_blob(self, fn):
        assert fn(_blob(1, 20, 10, GOOD)) == 20

    @pytest.mark.parametrize("fn", [serde.digest_count,
                                    scalar.tdigest_count])
    @pytest.mark.parametrize("blob", [
        b"\x00" * 5, b"\x00" * 30, _blob(1, 20, 10, GOOD)[:-3],
        _blob(1, 20, 10, GOOD) + b"\x00", _blob(1, 20, 5, GOOD),
        _blob(1, -20, 10, GOOD)],
        ids=["short", "zeros", "truncated", "overlong", "compression",
             "negative_total"])
    def test_rejects_what_the_decoder_rejects(self, fn, blob):
        with pytest.raises(ValueError) as decode_err:
            serde.from_bytes(blob)
        with pytest.raises(ValueError) as count_err:
            fn(blob)
        assert str(count_err.value) == str(decode_err.value)


# --------------------------------------------------------------------- #
# incremental determinism (incremental.sql)
# --------------------------------------------------------------------- #

class TestIncremental:
    def test_one_at_a_time_matches_oneshot(self):
        vals = md5_order(1000)
        d = None
        for v in vals:
            d = scalar.tdigest_add(d, float(v), 100, compact=False)
        incremental = scalar.tdigest_union(None, d)  # force compaction

        oneshot = TDigest(100)
        oneshot.add_many(vals)
        oneshot.compress()
        assert serde.to_text(incremental) == serde.to_text(oneshot)

    def test_batched_matches_oneshot(self):
        vals = md5_order(1000)
        groups = np.asarray(vals) % 5
        d = None
        order = []
        for g in range(5):
            batch = vals[groups == g]
            order.append(batch)
            d = scalar.tdigest_add(d, batch, 100, compact=False)
        incremental = scalar.tdigest_union(None, d)

        oneshot = TDigest(100)
        oneshot.add_many(np.concatenate(order))
        oneshot.compress()
        assert serde.to_text(incremental) == serde.to_text(oneshot)

    def test_union_matches_oneshot(self):
        vals = md5_order(1000)
        groups = np.asarray(vals) % 5
        d = None
        partials = []
        for g in range(5):
            batch = vals[groups == g]
            p = TDigest(100)
            p.add_many(batch)
            p.compress()
            partials.append(p)
            d = scalar.tdigest_union(d, p, compact=False)
        incremental = scalar.tdigest_union(None, d)

        merged = TDigest(100)
        for p in partials:
            merged.merge_digest(p)
        merged.compress()
        assert serde.to_text(incremental) == serde.to_text(merged)

    def test_null_semantics(self):
        assert scalar.tdigest_add(None, None) is None
        assert scalar.tdigest_union(None, None) is None
        d = scalar.tdigest_add(None, 1.0, 100)
        assert scalar.tdigest_add(d, None) == d
        with pytest.raises(ValueError, match="compression value not supplied"):
            scalar.tdigest_add(None, 1.0)


# --------------------------------------------------------------------- #
# weighted <value,count> API (value_count_api.sql)
# --------------------------------------------------------------------- #

class TestWeighted:
    def test_small_count_equals_expansion(self):
        # count <= buffer: weighted add is exactly the one-at-a-time loop
        d1 = TDigest(10)
        d1.add(5.0, 42)
        d2 = TDigest(10)
        for _ in range(42):
            d2.add(5.0)
        assert d1 == d2

    def test_generate_fast_path_invariants(self):
        comp = 10
        count = buffer_size(comp) * 100 + 7
        means, counts = generate_centroids(comp, 3.25, count)
        assert counts.sum() == count
        assert (counts > 0).all()
        assert (means == 3.25).all()
        # k2 criterion keeps the generated digest small (a hair above
        # `compression` is possible on the tails)
        assert len(counts) <= 2 * comp

        d = from_value_count(comp, 3.25, count)
        assert d.count == count
        assert d.quantile(0.5) == 3.25

    def test_weighted_quantiles_match_expansion(self):
        # value_count_api.sql:88-139 — weighted digest vs expanded rows,
        # compared against exact quantiles of the expanded multiset
        from tdigest_ray.sources.synthetic import lcg

        x = lcg(1000)
        cnt = (10 + 100 * lcg(1000, seed=29823218)).astype(np.int64)
        d = TDigest(100)
        d.add_weighted(x, cnt)
        expanded = np.repeat(x, cnt)
        for p in (0.1, 0.5, 0.9, 0.95, 0.99):
            exact = np.quantile(expanded, p)
            est = d.quantile(p)
            assert abs(est - exact) < 0.01, (p, est, exact)

    def test_invalid_count_rejected(self):
        d = TDigest(100)
        with pytest.raises(ValueError, match="must be a positive value"):
            d.add(1.0, 0)
        with pytest.raises(ValueError, match="must be a positive value"):
            d.add_weighted([1.0], [-1])

    def test_weighted_length_mismatch_rejected(self):
        # one count per value: a surplus value or count is an error, raised
        # before anything is appended
        d = TDigest(100)
        d.add_many([0.5, 2.5])
        before = serde.to_bytes(d)
        for values, counts in (([1.0, 2.0, 3.0], [1, 1]), ([1.0], [1, 2])):
            with pytest.raises(ValueError,
                               match=f"{len(values)} values but "
                                     f"{len(counts)} counts"):
                d.add_weighted(values, counts)
            assert serde.to_bytes(d) == before
            assert d.count == 2 and d.ncentroids == 2


# --------------------------------------------------------------------- #
# trimmed aggregates (trimmed_aggregates.sql)
# --------------------------------------------------------------------- #

class TestTrimmed:
    def test_uniform_ranges(self):
        from tdigest_ray.sources.synthetic import lcg

        u = lcg(10_000)
        d = TDigest(100)
        d.add_many(u)
        for lo, hi in [(0.1, 0.9), (0.25, 0.75), (0.0, 0.5), (0.5, 1.0)]:
            exact = np.sort(u)[
                math.floor(len(u) * lo) : math.ceil(len(u) * hi)
            ]
            # reference gates are ±0.05 on the mean (trimmed_aggregates.sql:31-45)
            assert abs(d.trimmed_avg(lo, hi) - exact.mean()) < 0.05
            assert abs(d.trimmed_sum(lo, hi) - exact.sum()) / exact.sum() < 0.05

    def test_order_independence_no_compaction(self):
        # compression 10000 with n=10000 values: buffer never fills, so the
        # trimmed sum must be EXACTLY order-independent
        # (trimmed_aggregates.sql:94-110)
        vals = np.arange(1, 10_001, dtype=np.float64)
        for lo, hi in [(0.05, 0.95), (0.1, 0.9), (0.2, 0.8)]:
            a = TDigest(10000)
            a.add_many(vals)
            b = TDigest(10000)
            b.add_many(vals[::-1].copy())
            assert a.trimmed_sum(lo, hi) == b.trimmed_sum(lo, hi)
            assert a.trimmed_avg(lo, hi) == b.trimmed_avg(lo, hi)

    def test_digest_sum_avg_full_range(self):
        vals = np.arange(1, 1501, dtype=np.float64)
        d = TDigest(100)
        d.add_many(vals)
        d.compress()
        assert abs(scalar.tdigest_digest_sum(d) - vals.sum()) / vals.sum() < 1e-6
        assert abs(scalar.tdigest_digest_avg(d) - vals.mean()) / vals.mean() < 1e-6

    def test_invalid_trim_values(self):
        d = TDigest(100)
        d.add(1.0)
        with pytest.raises(ValueError):
            d.trimmed_sum(0.9, 0.1)
        with pytest.raises(ValueError):
            d.trimmed_sum(-0.1, 0.5)


# --------------------------------------------------------------------- #
# merges across compression values (combine.sql / combine_crash.sql)
# --------------------------------------------------------------------- #

class TestCombine:
    def test_combine_crash_regression(self):
        # (comp=10, 100 values) merged with (comp=10000, 10000 values)
        a = TDigest(10)
        a.add_many(np.arange(100, dtype=np.float64))
        a.compress()
        b = TDigest(10000)
        b.add_many(np.arange(10_000, dtype=np.float64))
        b.compress()
        a.merge_digest(b)
        a.compress()
        assert a.count == 10_100
        assert a.compression == 10  # first-seen compression wins
        assert a.ncentroids <= buffer_size(10)

    def test_randomized_heterogeneous_merges(self):
        rng = np.random.default_rng(7)
        state = None
        total = 0
        for _ in range(30):
            comp = int(rng.integers(10, 10000))
            nrows = int(rng.integers(1, 5000))
            part = TDigest(comp)
            part.add_many(rng.random(nrows))
            part.compress()
            total += nrows
            if state is None:
                state = TDigest(comp)
            state.merge_digest(part)
        state.compress()
        assert state.count == total
        assert state.ncentroids < buffer_size(state.compression)

    def test_merge_mid_quantile_stability(self):
        # merged digest of two uniform halves still estimates the median
        a = TDigest(100)
        a.add_many(np.linspace(0, 1, 50_001))
        b = TDigest(100)
        b.add_many(np.linspace(0, 1, 50_001))
        a.merge_digest(b)
        assert abs(a.quantile(0.5) - 0.5) < 0.01


# --------------------------------------------------------------------- #
# quantile / cdf edge cases (basic.sql:977-1006)
# --------------------------------------------------------------------- #

class TestEdgeCases:
    def test_extreme_percentiles_in_range(self):
        # estimates for extreme percentiles stay within [min, max]
        from tdigest_ray.sources.synthetic import lcg

        u = 1000.0 * lcg(1000)
        d = TDigest(10)
        d.add_many(u)
        qs = d.quantile([0.0, 0.0001, 0.001, 0.999, 0.9999, 1.0])
        assert (qs >= u.min()).all() and (qs <= u.max()).all()

    def test_quantile_monotonicity(self):
        from tdigest_ray.sources.synthetic import lcg

        u = lcg(10_000)
        for comp in (10, 100, 1000):
            d = TDigest(comp)
            d.add_many(u)
            ps = np.arange(1, 100) / 100.0
            qs = d.quantile(ps)
            assert (np.diff(qs) >= 0).all()

    def test_small_digest_monotonicity(self):
        # 15-point edge case (basic.sql:991-1006)
        vals = np.asarray([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
                          dtype=np.float64)
        d = TDigest(10)
        d.add_many(vals)
        ps = np.arange(1, 100) / 100.0
        qs = d.quantile(ps)
        assert (np.diff(qs) >= 0).all()
        assert qs.min() >= 1 and qs.max() <= 15

    def test_p0_p1(self):
        d = TDigest(100)
        d.add_many(np.asarray([3.0, 1.0, 2.0]))
        assert d.quantile(0.0) == 1.0
        assert d.quantile(1.0) == 3.0

    def test_cdf_basic(self):
        d = TDigest(100)
        d.add_many(np.arange(1, 1001, dtype=np.float64))
        assert d.cdf(0.0) == 0.0
        assert d.cdf(2000.0) == 1.0
        assert abs(d.cdf(500.0) - 0.5) < 0.01
        # vectorized form agrees with scalar calls
        vs = np.asarray([10.0, 250.0, 750.0, 990.0])
        np.testing.assert_array_equal(d.cdf(vs),
                                      [d.cdf(float(v)) for v in vs])

    def test_cdf_exact_match_midpoint_rank(self):
        # a value equal to a centroid mean returns the midpoint rank of all
        # equal-mean centroids (tdigest.c:689-705)
        d = TDigest(10000)
        d.add_many(np.asarray([1.0, 2.0, 2.0, 2.0, 3.0]))
        d.compress()
        assert d.cdf(2.0) == (1 + 3 / 2.0) / 5

    def test_empty_digest(self):
        d = TDigest(100)
        assert math.isnan(d.quantile(0.5))
        assert math.isnan(d.cdf(1.0))
        assert d.trimmed_sum(0.1, 0.9) is None

    def test_nan_rejected(self):
        d = TDigest(100)
        with pytest.raises(ValueError):
            d.add(float("nan"))
        with pytest.raises(ValueError):
            d.add_many(np.asarray([1.0, float("nan")]))
        # a NaN pair is refused before anything is appended, so no digest
        # that serde cannot read back is ever written
        d.add_many([0.5, 2.5])
        with pytest.raises(ValueError,
                           match="NaN values cannot be added to a t-digest"):
            d.add_weighted([1.0, float("nan"), 3.0], [2, 3, 1])
        assert d.count == 2 and d.ncentroids == 2
        assert serde.from_bytes(serde.to_bytes(d)) == d

    def test_count_preserved_exactly(self):
        # sum(centroid counts) == count through adds, merges, compactions
        rng = np.random.default_rng(3)
        d = TDigest(50)
        d.add_many(rng.random(25_000))
        other = TDigest(200)
        other.add_many(rng.random(10_000))
        d.merge_digest(other)
        d.compress()
        assert d.count == 35_000
        assert int(d.centroids()[1].sum()) == 35_000

    def test_compression_bounds(self):
        with pytest.raises(ValueError):
            TDigest(9)
        with pytest.raises(ValueError):
            TDigest(10001)
        TDigest(10)
        TDigest(10000)


class TestMergeBlobs:
    """``serde.merge_blobs`` — the one streaming digest-merge helper."""

    @staticmethod
    def _blobs():
        rng = np.random.default_rng(5)
        out = []
        for i in range(60):
            d = TDigest(100 if i % 2 == 0 else 50)
            d.add_many(rng.lognormal(0.0, 1.0, 2000))
            d.compress()
            out.append(serde.to_bytes(d))
        return out

    def test_byte_identical_to_merge_digest_chain(self):
        blobs = self._blobs()
        chain = serde.from_bytes(blobs[0])
        for b in blobs[1:]:
            chain.merge_digest(serde.from_bytes(b))
        with_nulls = [None] + blobs[:7] + [None] + blobs[7:] + [None]
        got = serde.merge_blobs(iter(with_nulls))
        assert got.ncompactions >= 2  # several buffer-full compactions
        assert got.compression == 100  # first-seen compression wins
        got.compress()
        chain.compress()
        assert serde.to_bytes(got) == serde.to_bytes(chain)
        assert got.count == sum(serde.digest_count(b) for b in blobs)

    def test_identical_to_pairwise_chain_mixed_compression(self):
        # 45 digests of compression 10..1000 (some a single repeated value,
        # so equal-mean runs), interleaved with Nones
        rng = np.random.default_rng(11)
        blobs = []
        for i in range(45):
            d = TDigest(int(rng.choice([10, 25, 100, 300, 1000])))
            if i % 5 == 0:
                d.add(float(i % 3), int(rng.integers(1, 20000)))
            else:
                d.add_many(rng.normal(i, 1.0 + i % 4, int(rng.integers(1, 3000))))
            d.compress()
            blobs.append(serde.to_bytes(d))
        chain = serde.from_bytes(blobs[0])
        for b in blobs[1:]:
            chain.merge_digest(serde.from_bytes(b))
        with_nulls = [None, None] + [x for b in blobs for x in (b, None)]
        got = serde.merge_blobs(with_nulls)
        assert (got.compression, got.count, got.ncompactions,
                got.ncompacted) == (chain.compression, chain.count,
                                    chain.ncompactions, chain.ncompacted)
        assert got == chain
        got.compress()
        chain.compress()
        assert serde.to_bytes(got) == serde.to_bytes(chain)

    def test_lone_digest_comes_back_unchanged(self):
        b = self._blobs()[1]
        got = serde.merge_blobs([None, b, None])
        got.compress()
        assert serde.to_bytes(got) == b

    def test_no_digest_gives_none(self):
        assert serde.merge_blobs([None, None]) is None
        assert serde.merge_blobs([]) is None
