"""Property-based invariants (hypothesis) for the sketches.

These pin the algebraic contracts that make distributed execution safe:
exact count conservation, quantile bounds/monotonicity, serde round-trips,
merge tolerance, and the no-false-negative / overestimate-only guarantees.
"""

import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tdigest_ray.functions import serde
from tdigest_ray.sketches.bloom import BloomFilter
from tdigest_ray.sketches.countmin import CountMin
from tdigest_ray.sketches.hll import HLL
from tdigest_ray.sketches.kll import KLL
from tdigest_ray.sketches.tdigest import TDigest, from_value_count

finite_floats = st.floats(min_value=-1e12, max_value=1e12,
                          allow_nan=False, allow_infinity=False)
value_lists = st.lists(finite_floats, min_size=1, max_size=500)
compressions = st.sampled_from([10, 37, 100, 500])


class TestTDigestProperties:
    @settings(max_examples=60, deadline=None)
    @given(values=value_lists, compression=compressions)
    def test_count_and_bounds(self, values, compression):
        d = TDigest(compression)
        d.add_many(np.asarray(values))
        assert d.count == len(values)
        means, counts = d.centroids()
        assert int(counts.sum()) == len(values)
        qs = d.quantile([0.0, 0.25, 0.5, 0.75, 1.0])
        assert qs[0] == min(values) and qs[-1] == max(values)
        assert (np.diff(qs) >= 0).all()
        assert qs.min() >= min(values) and qs.max() <= max(values)

    @settings(max_examples=40, deadline=None)
    @given(values=value_lists, compression=compressions)
    def test_serde_roundtrip_bitexact(self, values, compression):
        d = TDigest(compression)
        d.add_many(np.asarray(values))
        d.compress()
        assert serde.from_bytes(serde.to_bytes(d)) == d
        rt = serde.from_array(serde.to_array(d))
        assert rt == d

    @settings(max_examples=40, deadline=None)
    @given(a=value_lists, b=value_lists, compression=compressions)
    def test_merge_count_conservation(self, a, b, compression):
        da = TDigest(compression)
        da.add_many(np.asarray(a))
        db = TDigest(compression)
        db.add_many(np.asarray(b))
        da.merge_digest(db)
        da.compress()
        assert da.count == len(a) + len(b)
        lo = min(min(a), min(b))
        hi = max(max(a), max(b))
        assert lo <= da.quantile(0.5) <= hi

    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(st.floats(min_value=0, max_value=1,
                                     allow_nan=False), min_size=50,
                           max_size=500, unique=True))
    def test_cdf_quantile_consistency(self, values):
        # unique values: for point masses cdf(mean) is the midpoint rank
        # by design (tdigest.c:689-705), which breaks naive inversion
        d = TDigest(100)
        d.add_many(np.asarray(values))
        for p in (0.2, 0.5, 0.8):
            q = d.quantile(p)
            r = d.cdf(q)
            assert abs(r - p) < 0.2  # loose inverse-consistency

    @settings(max_examples=40, deadline=None)
    @given(values=value_lists, compression=compressions)
    def test_compress_idempotent(self, values, compression):
        d = TDigest(compression)
        d.add_many(np.asarray(values))
        d.compress()
        snapshot = serde.to_bytes(d)
        d.compress()  # second compaction with no new data is a no-op
        assert serde.to_bytes(d) == snapshot
        q1 = d.quantile(0.5)
        q2 = d.quantile(0.5)  # queries don't mutate observable state
        assert q1 == q2 and serde.to_bytes(d) == snapshot

    @settings(max_examples=30, deadline=None)
    @given(value=finite_floats,
           count=st.integers(min_value=1, max_value=10_000_000))
    def test_weighted_single_value(self, value, count):
        d = TDigest(10)
        d.add(value, count)
        assert d.count == count
        # all mass at one point: every quantile is that point exactly
        # (equal means never re-averaged)
        assert d.quantile(0.5) == value

    @settings(max_examples=60, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(0, 4), st.integers(1, 50)),
                          min_size=2, max_size=60),
           seed=st.integers(0, 2**32 - 1))
    def test_compaction_ignores_buffer_order(self, pairs, seed):
        # (mean, count) sort plus equal-mean rebalancing make one buffer's
        # compaction independent of insertion order, also for input that
        # is already sorted by mean alone
        by_mean = sorted(pairs, key=lambda mc: mc[0])
        shuffled = [pairs[i] for i in np.random.default_rng(seed).permutation(
            len(pairs))]
        out = []
        for seq in (by_mean, shuffled):
            d = TDigest(10)
            m, c = zip(*seq)
            d.add_centroids(np.asarray(m, float), np.asarray(c))
            d.compress()
            out.append(serde.to_bytes(d))
        assert out[0] == out[1]

    @settings(max_examples=60, deadline=None)
    @given(
        # few distinct values with large counts give equal-mean runs; a
        # single (value, count) pair can give a single centroid
        pairs=st.lists(st.tuples(st.integers(-3, 3).map(float) | finite_floats,
                                 st.integers(1, 5000)),
                       min_size=1, max_size=12),
        compression=st.integers(10, 1000),
        ps=st.lists(st.floats(0.0, 1.0), max_size=5),
        xs=st.lists(finite_floats, max_size=5),
        trim=st.tuples(st.floats(0.0, 0.5), st.floats(0.5, 1.0)).filter(
            lambda t: t[0] < t[1]),
    )
    def test_decoded_digest_answers_like_in_memory(self, pairs, compression,
                                                   ps, xs, trim):
        d = TDigest(compression)
        for v, c in pairs:
            d.add(v, c)
        d.compress()
        rt = serde.from_bytes(serde.to_bytes(d))
        assert rt == d
        means = d.centroids()[0]
        ps = [0.0, 1.0, *ps]
        xs = [float(means[0]) - 1.0, float(means[-1]) + 1.0,
              *means.tolist(), *xs]
        for dig in (d, rt):
            qs = dig.quantile(ps)
            assert [dig.quantile(p) for p in ps] == qs.tolist()
            rs = dig.cdf(xs)
            assert [dig.cdf(x) for x in xs] == rs.tolist()
        assert rt.quantile(ps).tolist() == d.quantile(ps).tolist()
        assert rt.cdf(xs).tolist() == d.cdf(xs).tolist()
        assert rt.trimmed_sum(*trim) == d.trimmed_sum(*trim)
        assert rt.trimmed_avg(*trim) == d.trimmed_avg(*trim)


class _OracleTDigest(TDigest):
    """The build as a per-item transcription: a full ``lexsort``, a Python
    loop over equal-mean runs, a per-output-centroid ``bisect`` walk and a
    per-pair ``add_weighted`` loop. The library must produce its bytes."""

    def add_weighted(self, values, counts):
        cap = self._capacity()
        for v, c in zip(np.asarray(values, float).tolist(),
                        np.asarray(counts, np.int64).tolist()):
            remaining = c
            while remaining > 0:
                if self._n == cap:
                    self.compress()
                k = min(cap - self._n, remaining)
                self._means[self._n:self._n + k] = v
                self._counts[self._n:self._n + k] = 1
                self._n += k
                self.count += k
                remaining -= k

    def _sort(self):
        n = self._n
        means, counts = self._means[:n], self._counts[:n]
        order = np.lexsort((counts, means))
        means[:] = means[order]
        counts[:] = counts[order]
        if not (means[1:] == means[:-1]).any():
            return
        median_count = self.count // 2
        boundaries = np.flatnonzero(means[1:] != means[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [n]))
        cum = np.cumsum(counts)
        for s, e in zip(starts.tolist(), ends.tolist()):
            if e - s <= 1:
                continue
            count_so_far = int(cum[s - 1]) if s > 0 else 0
            next_group = int(cum[e - 1])
            if count_so_far >= median_count:
                means[s:e] = means[s:e][::-1]
                counts[s:e] = counts[s:e][::-1]
            elif next_group >= median_count:
                self._rebalance(s, e, median_count - count_so_far,
                                next_group - median_count)

    def compress(self):
        if self.ncompacted == self._n:
            return
        self._sort()
        self.ncompactions += 1
        n, total = self._n, self.count
        if total <= 1 or n <= 1:
            self.ncompacted = n
            return
        normalizer = self.compression / (
            2.0 * math.pi * total * math.log(total))
        backward = self.ncompactions % 2 == 1
        step = -1 if backward else 1
        m = self._means[:n][::step].copy()
        c = self._counts[:n][::step].copy()
        clist = np.cumsum(c).tolist()
        T = float(total)
        tt_norm = T * T * normalizer
        inv_norm = 1.0 / normalizer
        starts = []
        i = 0
        while i < n:
            base = clist[i - 1] if i else 0.0
            q0 = base / T
            r1 = q0 * (1.0 - q0) * inv_norm
            b = T - 2.0 * base - tt_norm
            cc = base * T - base * base
            r2 = (b + math.sqrt(b * b + 4.0 * cc)) * 0.5
            wmax = base + (r1 if r1 < r2 else r2)
            starts.append(i)
            i = bisect.bisect_right(clist, wmax, i + 1)
        sidx = np.asarray(starts)
        gcounts = np.diff(np.append(np.cumsum(c)[sidx - 1] * (sidx > 0), total))
        gmeans = np.add.reduceat(m * c.astype(float), sidx) / gcounts
        gmin = np.minimum.reduceat(m, sidx)
        same = gmin == np.maximum.reduceat(m, sidx)
        gmeans[same] = gmin[same]  # equal means are never re-averaged
        k = len(sidx)
        self._means[:k] = gmeans[::step]
        self._counts[:k] = gcounts[::step]
        self._n = self.ncompacted = k


def _shaped_values(shape, size, seed):
    rng = np.random.default_rng(seed)
    if shape == "uniform":
        return rng.random(size)
    if shape == "few":  # equal-mean runs, including zeros of both signs
        return rng.choice([-2.0, -0.0, 0.0, 1.0, 3.5], size)
    if shape == "sorted":
        return np.sort(rng.normal(size=size))
    if shape == "reversed":
        return np.sort(rng.lognormal(size=size))[::-1].copy()
    return np.round(rng.normal(size=size), 1)  # many short runs


_shapes = st.sampled_from(["uniform", "few", "sorted", "reversed", "rounded"])
_build_ops = st.lists(st.tuples(
    st.sampled_from(["add_many", "add_weighted", "add", "merge_digest",
                     "compress"]),
    _shapes, st.floats(0, 3), st.integers(0, 2**16)), min_size=1, max_size=8)


def _state(d):
    m, c = d.centroids()
    return m.tobytes(), c.tobytes(), d.count, d.ncompactions, d.ncompacted


class TestBuildByteIdentity:
    """The library's build gives the bytes of :class:`_OracleTDigest`."""

    @staticmethod
    def _apply(d, op, shape, scale, seed):
        cap = 10 * d.compression
        size = 1 + int(scale * cap)  # up to three buffer fills
        if op == "add_many":
            d.add_many(_shaped_values(shape, size, seed))
        elif op == "add_weighted":
            rng = np.random.default_rng(seed + 1)
            values = _shaped_values(shape, size, seed)
            d.add_weighted(values, rng.integers(1, 2 + seed % 40, size))
        elif op == "add":  # count above the buffer size takes generate
            d.add(float(_shaped_values(shape, 1, seed)[0]), size)
        elif op == "merge_digest":
            other = TDigest(10 + seed % 300)
            other.add_many(_shaped_values(shape, size, seed))
            if seed % 2:
                other.compress()
            d.merge_digest(other)
        else:
            d.compress()

    @settings(max_examples=60, deadline=None)
    @given(ops=_build_ops, compression=st.integers(10, 1000),
           start=st.one_of(st.none(),
                           st.tuples(_shapes, st.integers(1, 400),
                                     st.integers(0, 2**16))))
    def test_same_bytes_as_oracle(self, ops, compression, start):
        if start is None:
            got, want = TDigest(compression), _OracleTDigest(compression)
        else:  # a restored state with nothing compacted yet
            shape, size, seed = start
            size = min(size, 10 * compression)
            means = np.sort(_shaped_values(shape, size, seed))
            counts = np.random.default_rng(seed).integers(1, 9, size)
            got = TDigest.from_centroids(compression, means, counts,
                                         ncompacted=0)
            want = _OracleTDigest.from_centroids(compression, means, counts,
                                                 ncompacted=0)
        for op in ops:
            for d in (got, want):
                self._apply(d, *op)
            assert _state(got) == _state(want), op
        got.compress()
        want.compress()
        assert _state(got) == _state(want)

    @pytest.mark.parametrize("means,counts", [
        ([5.0, 1.0, 5.0], [3, 3, 1]),  # run starts exactly at the median
        ([5.0, 1.0, 5.0, 5.0], [3, 2, 1, 2]),  # run straddles it
        ([2.0, 2.0, 0.0, 2.0, 9.0, 9.0], [1, 4, 2, 2, 1, 3]),
    ])
    def test_equal_mean_runs_around_the_median(self, means, counts):
        # trimmed_sum sorts without compacting, so the order of each run
        # shows: reversed above the median, rebalanced across it
        states = []
        for cls in (TDigest, _OracleTDigest):
            d = cls.from_centroids(10, np.asarray(means), np.asarray(counts),
                                   ncompacted=0)
            d.trimmed_sum(0.0, 1.0)
            states.append(_state(d))
        assert states[0] == states[1]

    @pytest.mark.parametrize("value,count", [
        (1.5, 2**53 + 12345), (0.25, 2**60 + 7), (3.0, 10**17 + 1)])
    def test_totals_above_2_53(self, value, count):
        # The walk compares cumulative counts with float bounds exactly and
        # squares them exactly; above 2^53 float arithmetic would round the
        # counts. The first digest starts from the one-pass generation of a
        # single value, the second re-inserts it into another compression.
        states = []
        for cls in (TDigest, _OracleTDigest):
            if cls is TDigest:
                d = from_value_count(100, value, count)
            else:
                d = cls(100)
                d.add(value, count)
            d.add_many(np.linspace(0.0, 5.0, 3000))
            d.compress()
            e = cls(50)
            e.add(value, count)
            e.merge_digest(d)
            e.compress()
            states.append((_state(d), _state(e)))
        assert states[0][0][2] == count + 3000
        assert states[0] == states[1]


class TestSiblingProperties:
    @settings(max_examples=20, deadline=None)
    @given(keys=st.lists(st.integers(min_value=0, max_value=10**9),
                         min_size=1, max_size=300))
    def test_bloom_no_false_negatives(self, keys):
        bf = BloomFilter(1 << 14, 5)
        bf.update(np.asarray(keys, dtype=np.int64))
        assert bf.contains(np.asarray(keys, dtype=np.int64)).all()

    @settings(max_examples=20, deadline=None)
    @given(keys=st.lists(st.integers(min_value=0, max_value=1000),
                         min_size=1, max_size=300))
    def test_countmin_overestimates(self, keys):
        cm = CountMin(4, 512)
        arr = np.asarray(keys, dtype=np.int64)
        cm.update(arr)
        uniq, true = np.unique(arr, return_counts=True)
        est = cm.query(uniq)
        assert (est >= true).all()
        assert cm.total() == len(keys)

    @settings(max_examples=20, deadline=None)
    @given(keys=st.lists(st.integers(min_value=0, max_value=10**9),
                         min_size=1, max_size=500))
    def test_hll_merge_idempotent(self, keys):
        arr = np.asarray(keys, dtype=np.int64)
        a = HLL(10)
        a.update(arr)
        b = HLL(10)
        b.update(arr)
        merged = HLL.from_bytes(a.to_bytes()).merge(b)
        assert merged == a  # union with itself is itself

    @settings(max_examples=20, deadline=None)
    @given(values=st.lists(finite_floats, min_size=1, max_size=1000))
    def test_kll_weight_conservation(self, values):
        s = KLL(32)
        s.update(np.asarray(values))
        items, weights = s._weighted_items()
        assert int(weights.sum()) == len(values)
        q = s.quantile(0.5)
        assert min(values) <= q <= max(values)


class TestNgramJoinKernels:
    """Pure-kernel invariants for the distributed exact Jaccard join
    (stages/dedup.py): the vectorized pair expansion and the per-doc
    distinct-gram extraction, each against a plain-Python oracle."""

    @given(st.lists(st.integers(min_value=2, max_value=9),
                    min_size=0, max_size=8),
           st.lists(st.integers(min_value=0, max_value=5),
                    min_size=0, max_size=8))
    def test_expand_run_pairs_matches_oracle(self, lens, gaps):
        from tdigest_ray.stages.dedup import _expand_run_pairs

        lens = np.asarray(lens[:len(gaps)], dtype=np.int64)
        gaps = np.asarray(gaps[:len(lens)], dtype=np.int64)
        # disjoint sorted runs with arbitrary gaps between them
        starts = np.cumsum(np.concatenate([[0], (lens + gaps)[:-1]])) \
            if len(lens) else np.empty(0, np.int64)
        left, right = _expand_run_pairs(starts, lens)
        expect = [(i, j)
                  for s, m in zip(starts, lens)
                  for i in range(s, s + m)
                  for j in range(i + 1, s + m)]
        assert list(zip(left.tolist(), right.tolist())) == expect

    @given(st.lists(st.one_of(
        st.none(),
        st.text(alphabet="ab x", min_size=0, max_size=24)),
        min_size=0, max_size=12),
        st.integers(min_value=1, max_value=4))
    def test_distinct_gram_rows_matches_oracle(self, texts, k):
        import pyarrow as pa

        from tdigest_ray.stages.dedup import _distinct_gram_rows

        arr = pa.array(texts, pa.string())
        d, g, doc_n = _distinct_gram_rows(arr, k)
        # oracle: the documented shingling contract — whitespace tokens,
        # empties dropped, word-k-grams, whole-text fallback below k
        # tokens (null reads as ''); per-doc DISTINCT gram multiset
        per_doc_sets = []
        for t in texts:
            toks = (t or "").split()
            grams = ({" ".join(toks[i:i + k])
                      for i in range(len(toks) - k + 1)}
                     if len(toks) >= k else {t or ""})
            per_doc_sets.append(grams)
        assert doc_n.tolist() == [len(s) for s in per_doc_sets]
        # row counts per doc match; distinct-hash count == distinct grams
        # (64-bit collisions impossible to hit at this size)
        got_per_doc = np.bincount(d, minlength=len(texts)).tolist() \
            if len(d) else [0] * len(texts)
        assert got_per_doc == [len(s) for s in per_doc_sets]
        # equal gram strings hash equal ACROSS docs: the number of
        # distinct hashes globally == number of distinct gram strings
        all_grams = set().union(*per_doc_sets) if per_doc_sets else set()
        assert len(np.unique(g)) == len(all_grams)


class TestSessionKernelProperties:
    """stages/sessions._assign_arrays vs a per-key scalar reference."""

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 5),        # key
                      st.integers(0, 500),      # ts
                      st.integers(0, 10**6)),   # id
            min_size=1, max_size=80, unique_by=lambda r: r[2]),
        gap=st.integers(1, 100),
    )
    def test_matches_scalar_reference(self, rows, gap):
        import pyarrow as pa

        from tdigest_ray.stages.sessions import _assign_arrays

        t = pa.table({
            "event_id": pa.array([r[2] for r in rows], pa.int64()),
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "_ts": pa.array([r[1] for r in rows], pa.int64()),
        })
        order, first, gap_prev, seq = _assign_arrays(
            t, "user_id", "event_id", np.int64(gap))
        ids = t["event_id"].to_numpy()[order]
        keys = t["user_id"].to_numpy()[order]
        got = {i: (k, s) for i, k, s in zip(ids, keys, seq)}
        # scalar reference
        ref = {}
        per = {}
        for k, ts_, i in sorted(rows, key=lambda r: (r[0], r[1], r[2])):
            per.setdefault(k, []).append((i, ts_))
        for k, evs in per.items():
            s, prev = 0, None
            for i, ts_ in evs:
                if prev is not None and ts_ - prev > gap:
                    s += 1
                ref[i] = (k, s)
                prev = ts_
        assert got == ref


class TestTopNKernelProperties:
    """stages/topn._block_topn vs a pandas reference."""

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 4),        # group
                      st.integers(0, 9),        # score (ties likely)
                      st.integers(0, 10**6)),   # id
            min_size=0, max_size=60, unique_by=lambda r: r[2]),
        n=st.integers(1, 5),
        ascending=st.booleans(),
    )
    def test_matches_pandas_reference(self, rows, n, ascending):
        import pandas as pd
        import pyarrow as pa

        from tdigest_ray.stages.topn import _block_topn

        t = pa.table({
            "g": pa.array([r[0] for r in rows], pa.int64()),
            "s": pa.array([float(r[1]) for r in rows], pa.float64()),
            "i": pa.array([r[2] for r in rows], pa.int64()),
        })
        got = set(_block_topn(t, n, "g", "s", "i",
                              ascending).column("i").to_pylist())
        df = pd.DataFrame(rows, columns=["g", "s", "i"])
        if len(df):
            df = df.sort_values(["g", "s", "i"],
                                ascending=[True, ascending, True])
            ref = set(df.groupby("g").head(n)["i"])
        else:
            ref = set()
        assert got == ref
