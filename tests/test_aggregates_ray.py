"""Ray Data aggregation tests: global + grouped t-digest aggregates, the
parallel-equals-serial contract (test/sql/parallel_query.sql), and digest
rollup re-aggregation (README.md:104-155)."""

import numpy as np
import pyarrow as pa
import pytest
import ray

from tdigest_ray.aggregates import (
    TDigestAgg,
    TDigestCountAgg,
    TDigestMergeAgg,
    TDigestMergePercentile,
    TDigestMergeTrimmedAvg,
    TDigestPercentile,
    TDigestPercentileOf,
    TDigestTrimmedAvg,
    TDigestTrimmedSum,
    TDigestWeightedPercentile,
    TDigestWeightedAgg,
)
from tdigest_ray.functions import serde
from tdigest_ray.sources.synthetic import lcg

NROWS = 100_000


@pytest.fixture(scope="module")
def grouped_ds():
    """FIXTURES.md F4: v = 1000*uniform, c = 1 + i%7, d = i%113."""
    u = lcg(NROWS)
    i = np.arange(NROWS)
    tbl = pa.table(
        {
            "v": 1000.0 * u,
            "c": (1 + i % 7).astype(np.int64),
            "d": (i % 113).astype(np.int32),
        }
    )
    return ray.data.from_arrow(tbl).repartition(8), tbl


class TestGlobalAggregates:
    def test_percentile_scalar(self, grouped_ds):
        ds, tbl = grouped_ds
        v = tbl.column("v").to_numpy()
        res = ds.aggregate(TDigestPercentile("v", 0.95, 100, alias_name="p95"))
        exact = np.quantile(v, 0.95)
        assert abs(res["p95"] - exact) < 0.01 * 1000

    def test_percentile_array(self, grouped_ds):
        ds, tbl = grouped_ds
        v = tbl.column("v").to_numpy()
        res = ds.aggregate(
            TDigestPercentile("v", [0.1, 0.5, 0.9], 100, alias_name="ps")
        )
        exact = np.quantile(v, [0.1, 0.5, 0.9])
        assert np.abs(np.asarray(res["ps"]) - exact).max() < 0.01 * 1000

    def test_percentile_of(self, grouped_ds):
        ds, tbl = grouped_ds
        v = tbl.column("v").to_numpy()
        res = ds.aggregate(TDigestPercentileOf("v", 500.0, 100, alias_name="r"))
        exact = (v < 500.0).mean()
        assert abs(res["r"] - exact) < 0.01

    def test_trimmed(self, grouped_ds):
        ds, tbl = grouped_ds
        v = np.sort(tbl.column("v").to_numpy())
        lo, hi = 0.1, 0.9
        sel = v[int(len(v) * lo) : int(np.ceil(len(v) * hi))]
        res_avg = ds.aggregate(TDigestTrimmedAvg("v", lo, hi, 100, alias_name="a"))
        res_sum = ds.aggregate(TDigestTrimmedSum("v", lo, hi, 100, alias_name="s"))
        assert abs(res_avg["a"] - sel.mean()) < 0.05 * 1000
        assert abs(res_sum["s"] - sel.sum()) / sel.sum() < 0.05

    def test_digest_materialize_and_count(self, grouped_ds):
        ds, tbl = grouped_ds
        res = ds.aggregate(TDigestAgg("v", 100, alias_name="dg"))
        d = serde.from_bytes(res["dg"])
        assert d.count == NROWS  # exact count invariant through the merge
        assert d.compression == 100

    def test_weighted_percentile(self, grouped_ds):
        ds, tbl = grouped_ds
        v = tbl.column("v").to_numpy()
        c = tbl.column("c").to_numpy()
        expanded = np.repeat(v, c)
        res = ds.aggregate(
            TDigestWeightedPercentile("v", "c", 0.5, 100, alias_name="m")
        )
        exact = np.quantile(expanded, 0.5)
        assert abs(res["m"] - exact) < 0.01 * 1000

    def test_parallel_equals_serial_within_tolerance(self, grouped_ds):
        # parallel_query.sql contract: parallel plan within 1% of exact
        ds, tbl = grouped_ds
        v = tbl.column("v").to_numpy()
        for p in (0.1, 0.5, 0.9, 0.95, 0.99):
            res = ds.aggregate(TDigestPercentile("v", p, 100, alias_name="q"))
            exact = np.quantile(v, p)
            assert abs(res["q"] - exact) < 0.01 * 1000, p


class TestGroupedAggregates:
    def test_grouped_percentile(self, grouped_ds):
        ds, tbl = grouped_ds
        df = tbl.to_pandas()
        out = (
            ds.groupby("d")
            .aggregate(TDigestPercentile("v", 0.9, 100, alias_name="p90"))
            .to_pandas()
            .set_index("d")
        )
        assert len(out) == 113
        exact = df.groupby("d")["v"].quantile(0.9)
        err = (out["p90"] - exact).abs().max()
        assert err < 0.02 * 1000

    def test_grouped_digest_counts(self, grouped_ds):
        ds, tbl = grouped_ds
        out = (
            ds.groupby("d")
            .aggregate(TDigestAgg("v", 100, alias_name="dg"))
            .to_pandas()
        )
        counts = out["dg"].map(lambda b: serde.digest_count(bytes(b)))
        exact = tbl.to_pandas().groupby("d").size()
        assert counts.sum() == NROWS
        assert (counts.values == exact.reindex(out["d"]).values).all()


class TestRollup:
    """The flagship pre-aggregation pattern (README.md:104-155): digest per
    (fine group) stored, then re-aggregated per (coarse group)."""

    def test_reaggregation_matches_direct(self, grouped_ds):
        ds, tbl = grouped_ds
        df = tbl.to_pandas()
        df["coarse"] = (df["d"] % 7).astype(np.int32)

        def add_coarse(b: pa.Table) -> pa.Table:
            coarse = (b.column("d").to_numpy() % 7).astype(np.int32)
            return b.append_column("coarse", pa.array(coarse))

        # fine rollup: digest per d, then derive the coarse key per group row
        fine = ds.groupby("d").aggregate(TDigestAgg("v", 100, alias_name="dg"))
        fine = fine.map_batches(add_coarse, batch_format="pyarrow")
        out = (
            fine.groupby("coarse")
            .aggregate(
                TDigestMergePercentile("dg", 0.95, alias_name="p95"),
                TDigestCountAgg("dg", alias_name="n"),
            )
            .to_pandas()
            .set_index("coarse")
        )
        exact_q = df.groupby("coarse")["v"].quantile(0.95)
        exact_n = df.groupby("coarse").size()
        assert (out["n"] == exact_n.reindex(out.index)).all()
        assert (out["p95"] - exact_q.reindex(out.index)).abs().max() < 0.02 * 1000

    def test_merge_agg_roundtrip(self, grouped_ds):
        ds, tbl = grouped_ds
        fine = ds.groupby("d").aggregate(TDigestAgg("v", 100, alias_name="dg"))
        merged = fine.aggregate(TDigestMergeAgg("dg", alias_name="all"))
        d = serde.from_bytes(merged["all"])
        assert d.count == NROWS
        v = tbl.column("v").to_numpy()
        assert abs(d.quantile(0.5) - np.quantile(v, 0.5)) < 0.02 * 1000

    def test_merge_heterogeneous_compressions(self, grouped_ds):
        # combine_crash.sql at the aggregate level: stored digests with
        # wildly different compression values merge through the agg chain
        from tdigest_ray.sketches.tdigest import TDigest

        blobs = []
        total = 0
        for comp, n in [(10, 100), (10000, 10000), (100, 5000), (50, 333)]:
            d = TDigest(comp)
            d.add_many(np.arange(n, dtype=np.float64))
            d.compress()
            blobs.append(serde.to_bytes(d))
            total += n
        ds = ray.data.from_arrow(
            pa.table({"dg": pa.array(blobs, pa.binary())})).repartition(4)
        res = ds.aggregate(TDigestMergeAgg("dg", alias_name="m"))
        merged = serde.from_bytes(res["m"])
        assert merged.count == total
        assert merged.ncentroids <= 10 * merged.compression

    def test_merge_trimmed(self, grouped_ds):
        ds, tbl = grouped_ds
        fine = ds.groupby("d").aggregate(TDigestAgg("v", 100, alias_name="dg"))
        res = fine.aggregate(TDigestMergeTrimmedAvg("dg", 0.25, 0.75,
                                                    alias_name="ta"))
        v = np.sort(tbl.column("v").to_numpy())
        sel = v[len(v) // 4 : (3 * len(v)) // 4]
        assert abs(res["ta"] - sel.mean()) < 0.05 * 1000


class TestRemainingAggSurface:
    """Cover the rest of SURVEY §2.2: weighted percentile_of / trimmed /
    digest output, and merge percentile_of (rows 9-10, 13, 15)."""

    def test_weighted_agg_digest_output(self, grouped_ds):
        from tdigest_ray.aggregates import TDigestWeightedAgg

        ds, tbl = grouped_ds
        res = ds.aggregate(TDigestWeightedAgg("v", "c", 100, alias_name="dg"))
        d = serde.from_bytes(res["dg"])
        assert d.count == int(tbl.column("c").to_numpy().sum())

    def test_weighted_percentile_of(self, grouped_ds):
        from tdigest_ray.aggregates import TDigestWeightedPercentileOf

        ds, tbl = grouped_ds
        v = tbl.column("v").to_numpy()
        c = tbl.column("c").to_numpy()
        expanded = np.repeat(v, c)
        res = ds.aggregate(
            TDigestWeightedPercentileOf("v", "c", 500.0, 100, alias_name="r"))
        exact = (expanded < 500.0).mean()
        assert abs(res["r"] - exact) < 0.01

    def test_weighted_trimmed(self, grouped_ds):
        from tdigest_ray.aggregates import (
            TDigestWeightedTrimmedAvg,
            TDigestWeightedTrimmedSum,
        )

        ds, tbl = grouped_ds
        expanded = np.sort(np.repeat(tbl.column("v").to_numpy(),
                                     tbl.column("c").to_numpy()))
        lo, hi = 0.1, 0.9
        sel = expanded[int(len(expanded) * lo):
                       int(np.ceil(len(expanded) * hi))]
        ra = ds.aggregate(TDigestWeightedTrimmedAvg("v", "c", lo, hi, 100,
                                                    alias_name="a"))
        rs = ds.aggregate(TDigestWeightedTrimmedSum("v", "c", lo, hi, 100,
                                                    alias_name="s"))
        assert abs(ra["a"] - sel.mean()) < 0.05 * 1000
        assert abs(rs["s"] - sel.sum()) / sel.sum() < 0.05

    def test_merge_percentile_of(self, grouped_ds):
        from tdigest_ray.aggregates import (
            TDigestAgg,
            TDigestMergePercentileOf,
        )

        ds, tbl = grouped_ds
        fine = ds.groupby("d").aggregate(TDigestAgg("v", 100, alias_name="dg"))
        res = fine.aggregate(
            TDigestMergePercentileOf("dg", [250.0, 750.0], alias_name="rs"))
        v = tbl.column("v").to_numpy()
        exact = [(v < 250.0).mean(), (v < 750.0).mean()]
        assert np.abs(np.asarray(res["rs"]) - exact).max() < 0.02


class TestCombineChain:
    """Regression: the internal accumulator header must carry ncompactions
    across the combine chain — the wire format cannot, and losing it made
    every chain compaction scan the same direction (biasing mid-stream
    quantiles at low compression)."""

    def test_state_header_carries_compaction_parity(self):
        from tdigest_ray.aggregates import (
            _combine_bytes,
            _freeze_bytes,
            _unpack_state,
        )
        from tdigest_ray.sketches.tdigest import TDigest

        rng = np.random.default_rng(2)
        acc = None
        for _ in range(40):
            part = TDigest(10)
            part.add_many(rng.random(2000))
            blob = _freeze_bytes(part)
            acc = blob if acc is None else _combine_bytes(acc, blob)
        # many chain compactions happened; the counter survived serialization
        assert _unpack_state(acc).ncompactions > 2

    def test_chained_merge_accuracy_comp10(self):
        from tdigest_ray.aggregates import (
            _combine_bytes,
            _final_digest,
            _freeze_bytes,
        )
        from tdigest_ray.sketches.tdigest import TDigest

        vals = lcg(50_000)
        worst = 0.0
        for order in range(5):
            rng = np.random.default_rng(order)
            v = rng.permutation(vals)
            acc = None
            for chunk in np.array_split(v, 16):
                part = TDigest(10)
                part.add_many(chunk)
                blob = _freeze_bytes(part)
                acc = blob if acc is None else _combine_bytes(acc, blob)
            est = _final_digest(acc).quantile(0.9)
            worst = max(worst, abs(est - np.quantile(vals, 0.9)))
        assert worst < 0.15  # always-backward bias pushed this past 0.15


class TestNullHandling:
    def test_null_count_means_one(self):
        # weighted API: a NULL count is treated as 1 (tdigest.c:1210-1215)
        from tdigest_ray.aggregates import TDigestWeightedAgg

        tbl = pa.table({"v": pa.array([1.0, 2.0, 3.0]),
                        "c": pa.array([5, None, 2], pa.int64())})
        ds = ray.data.from_arrow(tbl)
        res = ds.aggregate(TDigestWeightedAgg("v", "c", 100, alias_name="dg"))
        assert serde.digest_count(res["dg"]) == 8

    def test_nulls_skipped(self):
        tbl = pa.table({"v": pa.array([1.0, None, 2.0, None, 3.0])})
        ds = ray.data.from_arrow(tbl)
        res = ds.aggregate(TDigestAgg("v", 100, alias_name="dg"))
        d = serde.from_bytes(res["dg"])
        assert d.count == 3

    def test_all_null_returns_null(self):
        tbl = pa.table({"v": pa.array([None, None], type=pa.float64())})
        ds = ray.data.from_arrow(tbl)
        res = ds.aggregate(TDigestPercentile("v", 0.5, 100, alias_name="q"))
        assert res["q"] is None


class TestHeavyHitterCombineCap:
    def test_late_heavy_hitter_survives_candidate_cap(self):
        """VERDICT r1 #6: when the merged candidate list overflows the cap,
        survivors must be chosen by CM estimate, not first-seen order — a
        true heavy hitter surfaced only by LATE blocks must not be dropped.

        Deterministic fold: 20 noise blocks (2 local candidates each = 40
        distinct > cap of 16*2=32 with candidates=2) combined first, the
        heavy hitter's block combined last. Insertion-order truncation
        would evict it; estimate-ranked truncation keeps it.
        """
        from tdigest_ray.aggregates import HeavyHittersAgg

        agg = HeavyHittersAgg("k", k=3, candidates=2)
        acc = None
        for i in range(20):
            block = pa.table(
                {"k": pa.array([f"noise_{i}_a"] * 50 + [f"noise_{i}_b"] * 50)})
            part = agg.aggregate_block(block)
            acc = part if acc is None else agg.combine(acc, part)
        hh_block = pa.table({"k": pa.array(["HH"] * 1000)})
        acc = agg.combine(acc, agg.aggregate_block(hh_block))
        top = agg.finalize(acc)
        assert top[0][0] == "HH"
        assert top[0][1] >= 1000


class TestHeterogeneousCompressionShuffle:
    def test_randomized_heterogeneous_combine_through_shuffle(self):
        """Ray-level port of the reference's randomized partitionwise
        combine stress (test/sql/combine.sql:36-97): 90 random
        (compression, nrows) digest pairs — compressions drawn across three
        decades, so most merges combine wildly different compressions —
        duplicated partitionwise and merged through a REAL
        groupby().aggregate(TDigestMergeAgg) shuffle. Asserts the exact
        count invariant and quantile sanity per group (the reference's
        gate is weaker: merely 'no crash')."""
        from tdigest_ray.aggregates import (
            TDigestMergeAgg,
            TDigestMergePercentile,
        )
        from tdigest_ray.functions import serde
        from tdigest_ray.sketches.tdigest import TDigest

        rng = np.random.default_rng(23982)  # the reference's PRNG seed
        DUP = 4  # partitionwise duplication (reference uses 16)
        rows_g, rows_dg = [], []
        expected = {}
        g = 0
        for s1 in (1, 2, 3):
            for s2 in (1, 2, 3):
                for _ in range(10):
                    total, vmax = 0, 0.0
                    for s in (s1, s2):
                        comp = int(10 ** s + rng.random() * 10 ** (s + 1))
                        comp = max(10, min(comp, 10000))
                        n = int(rng.random() * comp * 10)
                        n = max(100, min(n, 100_000))
                        vals = np.arange(1, n + 1) * rng.random(n)
                        d = TDigest(comp)
                        d.add_many(vals)
                        d.compress()
                        blob = serde.to_bytes(d)
                        rows_g.extend([g] * DUP)
                        rows_dg.extend([blob] * DUP)
                        total += DUP * n
                        vmax = max(vmax, float(vals.max()))
                    expected[g] = (total, vmax)
                    g += 1
        tbl = pa.table({"g": pa.array(rows_g, pa.int64()),
                        "dg": pa.array(rows_dg, pa.binary())})
        out = (
            ray.data.from_arrow(tbl)
            .repartition(16)  # force merges across many blocks
            .groupby("g")
            .aggregate(
                TDigestMergeAgg("dg", alias_name="dg"),
                TDigestMergePercentile("dg", 0.5, alias_name="q50"),
            )
            .to_pandas()
        )
        assert len(out) == 90
        for _, row in out.iterrows():
            total, vmax = expected[row["g"]]
            assert serde.digest_count(bytes(row["dg"])) == total
            assert 0.0 <= row["q50"] <= vmax


# --------------------------------------------------------------------- #
# every public t-digest aggregate through Ray, against an exact oracle
# --------------------------------------------------------------------- #

import tdigest_ray.aggregates as _aggs  # noqa: E402

# ACCURACY.md's reference gate for uniform data at compression 100
# (absolute error on values in [0, 1), i.e. rank error)
_GATE = 0.01
_QS = [0.1, 0.5, 0.9]
_XS = [0.25, 0.75]

# name -> (input mode, constructor args after the input column(s))
_ALL_TDIGEST_AGGS = {
    "TDigestAgg": ("values", ()),
    "TDigestPercentile": ("values", (_QS,)),
    "TDigestPercentileOf": ("values", (_XS,)),
    "TDigestTrimmedSum": ("values", (0.1, 0.9)),
    "TDigestTrimmedAvg": ("values", (0.1, 0.9)),
    "TDigestWeightedAgg": ("pairs", ()),
    "TDigestWeightedPercentile": ("pairs", (_QS,)),
    "TDigestWeightedPercentileOf": ("pairs", (_XS,)),
    "TDigestWeightedTrimmedSum": ("pairs", (0.1, 0.9)),
    "TDigestWeightedTrimmedAvg": ("pairs", (0.1, 0.9)),
    "TDigestMergeAgg": ("digests", ()),
    "TDigestMergePercentile": ("digests", (_QS,)),
    "TDigestMergePercentileOf": ("digests", (_XS,)),
    "TDigestMergeTrimmedSum": ("digests", (0.1, 0.9)),
    "TDigestMergeTrimmedAvg": ("digests", (0.1, 0.9)),
    "TDigestCountAgg": ("digests", ()),
}


@pytest.fixture(scope="module")
def mode_inputs():
    """Uniform values with 2% null values and 5% null counts (a null
    count means 1); the digest input holds per-group partial digests of
    the same values. Returns the datasets per input mode and the exact
    sorted (expanded) data each mode represents."""
    from tdigest_ray.stages.partial import make_partial_digest_fn

    rng = np.random.default_rng(16)
    n = 20_000
    v = rng.random(n)
    v[rng.random(n) < 0.02] = np.nan
    c = rng.integers(1, 5, n).astype(np.float64)
    c[rng.random(n) < 0.05] = np.nan
    tbl = pa.table({"v": pa.array(v, from_pandas=True),
                    "c": pa.array(c, from_pandas=True),
                    "g": pa.array(np.arange(n) % 16)})
    digests = make_partial_digest_fn(["g"], ["v"], 100)(tbl)
    keep = ~np.isnan(v)
    values = np.sort(v[keep])
    pairs = np.sort(np.repeat(v[keep], np.nan_to_num(c[keep], nan=1.0)
                              .astype(np.int64)))
    ds = ray.data.from_arrow(tbl).repartition(6)
    return {
        "values": (ds, values, _aggs.TDigestAgg("v", alias_name="w")),
        "pairs": (ds, pairs, _aggs.TDigestWeightedAgg("v", "c",
                                                      alias_name="w")),
        "digests": (ray.data.from_arrow(digests).repartition(4), values,
                    _aggs.TDigestMergeAgg("v_digest", alias_name="w")),
    }


@pytest.mark.parametrize("name", sorted(_ALL_TDIGEST_AGGS))
def test_every_tdigest_aggregate_against_oracle(name, mode_inputs):
    """One case per public aggregate, i.e. per (input mode x finalizer)
    cell. The count through the case's input mode is exact (checked on a
    digest aggregated in the same pass), and the answer is within the
    reference's accuracy gate of the exact answer on the same data."""
    mode, args = _ALL_TDIGEST_AGGS[name]
    ds, exact, witness = mode_inputs[mode]
    cols = {"values": ("v",), "pairs": ("v", "c"),
            "digests": ("v_digest",)}[mode]
    agg = getattr(_aggs, name)(*cols, *args, alias_name="out")
    res = ds.aggregate(agg, witness)
    assert serde.from_bytes(bytes(res["w"])).count == len(exact)
    out = res["out"]
    n = len(exact)
    if name in ("TDigestAgg", "TDigestWeightedAgg", "TDigestMergeAgg"):
        d = serde.from_bytes(bytes(out))
        assert d.count == n
        assert abs(d.quantile(0.5) - np.quantile(exact, 0.5)) <= _GATE
    elif name == "TDigestCountAgg":
        assert out == n
    elif "PercentileOf" in name:
        want = np.searchsorted(exact, _XS, side="right") / n
        assert np.max(np.abs(np.asarray(out) - want)) <= _GATE
    elif "Percentile" in name:
        want = np.quantile(exact, _QS)
        assert np.max(np.abs(np.asarray(out) - want)) <= _GATE
    else:
        window = exact[int(np.floor(0.1 * n)):int(np.ceil(0.9 * n))]
        if name.endswith("Sum"):
            assert abs(out - window.sum()) <= _GATE * len(window)
        else:
            assert abs(out - window.mean()) <= _GATE
