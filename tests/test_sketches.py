"""Sibling sketches (HLL / count-min / KLL / Bloom): published error bounds,
merge associativity/commutativity, serde round-trips, and Ray aggregation."""

import numpy as np
import pyarrow as pa
import pytest
import ray

from tdigest_ray.aggregates import (
    BloomAgg,
    CountMinAgg,
    HLLCountAgg,
    KLLQuantileAgg,
)
from tdigest_ray.sketches.bloom import BloomFilter
from tdigest_ray.sketches.countmin import CountMin
from tdigest_ray.sketches.hll import HLL
from tdigest_ray.sketches.kll import KLL


class TestHLL:
    def test_estimate_within_bound(self):
        # std error = 1.04/sqrt(m); assert 4 sigma
        p = 14
        sigma = 1.04 / np.sqrt(1 << p)
        for n in (100, 10_000, 200_000):
            h = HLL(p)
            h.update(np.arange(n, dtype=np.int64))
            est = h.estimate()
            assert abs(est - n) / n < 4 * sigma, (n, est)

    def test_merge_equals_union(self):
        a = HLL(12)
        b = HLL(12)
        a.update(np.arange(0, 60_000, dtype=np.int64))
        b.update(np.arange(40_000, 100_000, dtype=np.int64))  # overlap
        u = HLL(12)
        u.update(np.arange(100_000, dtype=np.int64))
        merged = HLL.from_bytes(a.to_bytes()).merge(b)
        assert merged == u  # register-exact: max is idempotent

    def test_merge_commutative(self):
        a = HLL(10)
        b = HLL(10)
        a.update(np.arange(1000, dtype=np.int64))
        b.update(np.arange(500, 2000, dtype=np.int64))
        ab = HLL.from_bytes(a.to_bytes()).merge(b)
        ba = HLL.from_bytes(b.to_bytes()).merge(a)
        assert ab == ba

    def test_string_values(self):
        h = HLL(12)
        h.update(np.asarray([f"user-{i}" for i in range(5000)], dtype=object))
        assert abs(h.estimate() - 5000) / 5000 < 0.1

    def test_serde(self):
        h = HLL(12)
        h.update(np.arange(1234, dtype=np.int64))
        assert HLL.from_bytes(h.to_bytes()) == h

    def test_precision_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HLL(10).merge(HLL(11))


class TestCountMin:
    def test_overestimate_only_and_eps_bound(self):
        # est >= true; est <= true + eps*N with prob 1-delta
        rng = np.random.default_rng(5)
        keys = rng.zipf(1.3, 100_000) % 10_000
        cm = CountMin.from_error(eps=0.005, delta=0.01)
        cm.update(keys)
        true = np.bincount(keys, minlength=10_000)
        probe = np.arange(10_000)
        est = cm.query(probe)
        assert (est >= true).all()
        assert (est <= true + 0.005 * len(keys)).all()

    def test_weighted_update_and_total(self):
        cm = CountMin(4, 1024)
        cm.update(np.asarray(["a", "b"], dtype=object), weights=[10, 32])
        assert cm.total() == 42
        assert cm.query(np.asarray(["a"], dtype=object))[0] >= 10

    def test_merge_is_addition(self):
        a = CountMin(4, 512)
        b = CountMin(4, 512)
        a.update(np.arange(100, dtype=np.int64))
        b.update(np.arange(100, dtype=np.int64))
        a2 = CountMin.from_bytes(a.to_bytes())
        a2.merge(b)
        assert a2.total() == 200
        assert (a2.query(np.arange(100)) >= 2).all()

    def test_serde(self):
        cm = CountMin(3, 256)
        cm.update(np.arange(50, dtype=np.int64))
        assert CountMin.from_bytes(cm.to_bytes()) == cm


class TestKLL:
    def test_rank_error_bound(self):
        rng = np.random.default_rng(11)
        vals = rng.random(200_000)
        s = KLL(200)
        # stream in chunks like blocks
        for chunk in np.array_split(vals, 37):
            s.update(chunk)
        assert s.n == len(vals)
        for p in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            est = s.quantile(p)
            true_rank = (vals < est).mean()
            assert abs(true_rank - p) < 0.02, (p, est, true_rank)

    def test_weight_preserved_exactly(self):
        s = KLL(64)
        s.update(np.arange(99_999, dtype=np.float64))
        items, weights = s._weighted_items()
        assert int(weights.sum()) == 99_999

    def test_merge_accuracy(self):
        rng = np.random.default_rng(13)
        vals = rng.random(100_000)
        shards = np.array_split(vals, 16)
        parts = []
        for sh in shards:
            p = KLL(200)
            p.update(sh)
            parts.append(p)
        merged = parts[0]
        for p in parts[1:]:
            merged.merge(p)
        assert merged.n == len(vals)
        for p in (0.1, 0.5, 0.9):
            est = merged.quantile(p)
            assert abs((vals < est).mean() - p) < 0.03

    def test_rank_inverse(self):
        s = KLL(200)
        s.update(np.linspace(0, 1, 50_000))
        assert abs(s.rank(0.25) - 0.25) < 0.02
        np.testing.assert_allclose(
            s.rank(np.asarray([0.1, 0.9])), [0.1, 0.9], atol=0.02
        )

    def test_serde(self):
        s = KLL(128)
        s.update(np.arange(10_000, dtype=np.float64))
        rt = KLL.from_bytes(s.to_bytes())
        assert rt == s
        assert rt.quantile(0.5) == s.quantile(0.5)


class TestBloom:
    def test_no_false_negatives(self):
        keys = np.asarray([f"k{i}" for i in range(50_000)], dtype=object)
        bf = BloomFilter.from_capacity(50_000, fpr=0.01)
        bf.update(keys)
        assert bf.contains(keys).all()

    def test_false_positive_rate(self):
        keys = np.arange(50_000, dtype=np.int64)
        bf = BloomFilter.from_capacity(50_000, fpr=0.01)
        bf.update(keys)
        absent = np.arange(1_000_000, 1_100_000, dtype=np.int64)
        fpr = bf.contains(absent).mean()
        assert fpr < 0.02  # 2x the design target

    def test_merge_is_or(self):
        a = BloomFilter(1 << 16, 5)
        b = BloomFilter(1 << 16, 5)
        a.update(np.arange(100, dtype=np.int64))
        b.update(np.arange(100, 200, dtype=np.int64))
        a.merge(b)
        assert a.contains(np.arange(200, dtype=np.int64)).all()

    def test_serde(self):
        bf = BloomFilter(1 << 12, 3)
        bf.update(np.arange(64, dtype=np.int64))
        assert BloomFilter.from_bytes(bf.to_bytes()) == bf


class TestSketchAggsRay:
    @pytest.fixture(scope="class")
    def events_ds(self):
        n = 50_000
        rng = np.random.default_rng(21)
        tbl = pa.table(
            {
                "user_id": rng.integers(0, 5000, n),
                "event_type": pa.array(
                    np.asarray(["click", "view", "buy"], dtype=object)[
                        rng.integers(0, 3, n)
                    ]
                ),
                "value": rng.random(n),
            }
        )
        return ray.data.from_arrow(tbl).repartition(8), tbl

    def test_hll_count(self, events_ds):
        ds, tbl = events_ds
        exact = len(set(tbl.column("user_id").to_pylist()))
        res = ds.aggregate(HLLCountAgg("user_id", p=14, alias_name="nd"))
        assert abs(res["nd"] - exact) / exact < 0.03

    def test_grouped_hll(self, events_ds):
        ds, tbl = events_ds
        df = tbl.to_pandas()
        out = (
            ds.groupby("event_type")
            .aggregate(HLLCountAgg("user_id", p=14, alias_name="nd"))
            .to_pandas()
            .set_index("event_type")
        )
        exact = df.groupby("event_type")["user_id"].nunique()
        rel = ((out["nd"] - exact) / exact).abs().max()
        assert rel < 0.03

    def test_kll_quantile_agg(self, events_ds):
        ds, tbl = events_ds
        v = tbl.column("value").to_numpy()
        res = ds.aggregate(KLLQuantileAgg("value", 0.9, alias_name="q90"))
        assert abs((v < res["q90"]).mean() - 0.9) < 0.02

    def test_bloom_agg(self, events_ds):
        ds, tbl = events_ds
        res = ds.aggregate(BloomAgg("user_id", alias_name="bf"))
        bf = BloomFilter.from_bytes(res["bf"])
        present = np.unique(tbl.column("user_id").to_numpy())
        assert bf.contains(present).all()

    def test_countmin_agg(self, events_ds):
        ds, tbl = events_ds
        res = ds.aggregate(CountMinAgg("event_type", width=4096,
                                       alias_name="cm"))
        cm = CountMin.from_bytes(res["cm"])
        df = tbl.to_pandas()
        exact = df["event_type"].value_counts()
        probe = np.asarray(exact.index.to_numpy(), dtype=object)
        est = cm.query(probe)
        assert (est >= exact.to_numpy()).all()
        assert cm.total() == len(df)


class TestPrehashedStringParity:
    """Buffer-level string hashing in SketchAgg (VERDICT r4 #4): the
    pre-hashed route must change NO sketch output vs the object route."""

    def _tbl(self):
        rng = np.random.default_rng(3)
        vals = [None, "", "a", "béta", "long " * 40, "x"]
        return pa.table({"s": pa.array(
            [vals[i] for i in rng.integers(0, len(vals), 2000)])})

    def test_column_hashes_matches_hash64(self):
        from tdigest_ray.sketches.base import column_array, column_hashes
        from tdigest_ray.sketches.hashing import hash64

        tbl = self._tbl()
        h = column_hashes(tbl, "s")
        vals = column_array(tbl, "s")
        assert h.dtype == np.uint64 and len(h) == len(vals)
        assert (h == hash64(vals)).all()

    def test_sketch_bytes_identical_either_route(self):
        from tdigest_ray.sketches.base import column_array, column_hashes

        tbl = self._tbl()
        h = column_hashes(tbl, "s")
        vals = column_array(tbl, "s")
        for make in (lambda: HLL(12), lambda: CountMin(4, 256),
                     lambda: BloomFilter(1 << 12, 4)):
            a, b = make(), make()
            a.update(vals)
            b.update(h)
            assert a.to_bytes() == b.to_bytes(), type(a).__name__

    def test_column_hashes_fallbacks(self):
        from tdigest_ray.sketches.base import column_hashes

        assert column_hashes(pa.table({"v": pa.array([1, 2])}), "v") is None
        empty = column_hashes(pa.table({"s": pa.array([], pa.string())}), "s")
        assert len(empty) == 0 and empty.dtype == np.uint64

    def test_agg_over_strings_still_green(self):
        tbl = self._tbl()
        ds = ray.data.from_arrow(tbl).repartition(4)
        res = ds.aggregate(HLLCountAgg("s", alias_name="nd"))
        col = tbl.column("s")
        exact = len(np.unique(col.drop_null().to_numpy(
            zero_copy_only=False)))
        assert abs(res["nd"] - exact) <= max(1, round(0.03 * exact))


NUL_TEXTS = ["a\x00b", "x", "a\x00c", "yy"]


class TestOneStringHash:
    """Arrow blocks (``column_hashes``) and Python/pandas input hash a
    string the same way, NULs and all, so the sketches agree across
    block types."""

    def test_bloom_no_false_negative_on_nul_strings(self):
        from tdigest_ray.sketches.base import column_hashes

        bf = BloomFilter.from_capacity(1000)
        bf.update(column_hashes(pa.table({"k": ["a\x00b", "zz"]}), "k"))
        assert bf.contains(np.array(["a\x00b"], dtype=object)).tolist() == [
            True]
        assert bf.contains(["a"]).tolist() == [False]

    def test_hll_arrow_block_equals_arrow_plus_object_block(self):
        from tdigest_ray.sketches.base import column_hashes

        one = HLL(12)
        one.update(column_hashes(pa.table({"k": NUL_TEXTS}), "k"))
        two = HLL(12)
        two.update(column_hashes(pa.table({"k": NUL_TEXTS[:2]}), "k"))
        two.update(np.array(NUL_TEXTS[2:], dtype=object))
        assert np.array_equal(one.registers, two.registers)

    def test_countmin_query_on_objects_counts_arrow_updates(self):
        from tdigest_ray.sketches.base import column_hashes

        counts = [3, 1, 2, 5]
        col = [t for t, c in zip(NUL_TEXTS, counts) for _ in range(c)]
        cm = CountMin(4, 2048)
        cm.update(column_hashes(pa.table({"k": col}), "k"))
        est = cm.query(np.array(NUL_TEXTS, dtype=object))
        assert est.tolist() == counts


def _bloom_reference(nbits, k, h):
    """The filter's bits set through ``np.bitwise_or.at``, positions
    reduced with ``%``."""
    from tdigest_ray.sketches.hashing import splitmix64

    bits = np.zeros((nbits + 7) // 8, dtype=np.uint8)
    h2 = splitmix64(h) | np.uint64(1)
    with np.errstate(over="ignore"):
        pos = ((h[None, :] + np.arange(k, dtype=np.uint64)[:, None]
                * h2[None, :]) % np.uint64(nbits)).astype(np.int64).ravel()
    np.bitwise_or.at(bits, pos >> 3, np.uint8(1) << (pos & 7).astype(np.uint8))
    return bits


class TestScatterKernels:
    """Bloom and count-min updates equal their ``ufunc.at`` references
    bit for bit."""

    def test_hypothesis_bloom_bits_equal_reference(self):
        from hypothesis import given, settings, strategies as st

        hashes = st.lists(st.integers(0, 2**64 - 1), max_size=300).map(
            lambda v: np.array(v, dtype=np.uint64))

        @settings(max_examples=150, deadline=None)
        @given(hashes, st.integers(8, 1 << 13), st.booleans(),
               st.integers(1, 8), st.integers(0, 2))
        def prop(h, nbits, pow2, k, batches):
            if pow2:
                nbits = 1 << nbits.bit_length()
            bf = BloomFilter(nbits, k)
            ref = np.zeros_like(bf.bits)
            # bitmap branch (nbits <= 8 * probes) and the ufunc.at branch
            # (a small batch into a big filter) both meet every filter
            for part in np.array_split(h, batches + 1):
                bf.update(part)
                ref |= _bloom_reference(nbits, k, part)
            assert np.array_equal(bf.bits, ref)
            assert bf.contains(h).all()

        prop()

    def test_bloom_branches_both_taken(self):
        rng = np.random.default_rng(5)
        h = rng.integers(0, 2**64, 5000, dtype=np.uint64)
        for nbits, k, n in [(1 << 12, 3, 5000), (1 << 20, 7, 10),
                            (10007, 4, 5000), (10007, 4, 3)]:
            bf = BloomFilter(nbits, k)
            bf.update(h[:n])
            assert np.array_equal(bf.bits, _bloom_reference(nbits, k, h[:n]))

    def test_hypothesis_countmin_table_equals_reference(self):
        from hypothesis import given, settings, strategies as st

        from tdigest_ray.sketches.hashing import derive_hash

        @settings(max_examples=150, deadline=None)
        @given(st.lists(st.integers(0, 2**64 - 1), max_size=300),
               st.integers(1, 6), st.integers(1, 3000), st.booleans())
        def prop(values, depth, width, weighted):
            h = np.array(values, dtype=np.uint64)
            # weights above 2^53, where float64 bincount weights round
            w = ((np.arange(len(h), dtype=np.int64) % 5 + 1) * (2**52 + 1)
                 if weighted else None)
            cm = CountMin(depth, width)
            cm.update(h, w)
            ref = np.zeros((depth, width), dtype=np.int64)
            for r in range(depth):
                idx = (derive_hash(h, r) % np.uint64(width)).astype(np.int64)
                np.add.at(ref[r], idx, 1 if w is None else w)
            assert np.array_equal(cm.table, ref)

        prop()


class TestHeavyHittersArrow:
    def test_arrow_block_matches_object_path_on_zipf_strings(self):
        import pickle

        from tdigest_ray.aggregates import HeavyHittersAgg
        from tdigest_ray.sketches.base import column_array

        rng = np.random.default_rng(11)
        vals = [f"item-{z}" for z in rng.zipf(1.3, 20000)]
        vals[::97] = [None] * len(vals[::97])
        vals[1::89] = ["nul\x00" + str(i % 7) for i in range(len(vals[1::89]))]
        tbl = pa.table({"k": pa.array(vals, pa.string())})
        agg = HeavyHittersAgg("k", candidates=64)
        cm_bytes, cand = pickle.loads(agg.aggregate_block(tbl))

        values = column_array(tbl, "k")
        ref = CountMin(5, 8192)
        ref.update(values)
        uniq, counts = np.unique(values, return_counts=True)
        top = uniq[np.argsort(-counts, kind="stable")[:64]]
        assert cm_bytes == ref.to_bytes()
        assert len(cand) == 64 and set(cand) == set(top.tolist())
