"""Vectorized per-block partial sketch stage vs the built-in grouped path."""

import numpy as np
import pyarrow as pa
import ray

from tdigest_ray.aggregates import TDigestAgg
from tdigest_ray.functions import serde
from tdigest_ray.stages.partial import grouped_digests_fast
from tdigest_ray.sources.synthetic import lcg


def make_ds(n=50_000):
    u = lcg(n)
    i = np.arange(n)
    tbl = pa.table(
        {
            "k": pa.array(np.asarray(["a", "b", "c", "d"], dtype=object)[i % 4]),
            "k2": pa.array((i % 3).astype(np.int32)),
            "v": pa.array(1000.0 * u),
        }
    )
    return ray.data.from_arrow(tbl).repartition(8), tbl


class TestPartialDigests:
    def test_matches_builtin_grouped(self):
        ds, tbl = make_ds()
        fast = (
            grouped_digests_fast(ds, "k", "v")
            .to_pandas().set_index("k").sort_index())
        slow = (
            ds.groupby("k").aggregate(TDigestAgg("v", 100,
                                                 alias_name="v_digest"))
            .to_pandas().set_index("k").sort_index())
        fc = fast["v_digest"].map(lambda b: serde.digest_count(bytes(b)))
        sc = slow["v_digest"].map(lambda b: serde.digest_count(bytes(b)))
        assert (fc == sc).all() and fc.sum() == tbl.num_rows
        fq = fast["v_digest"].map(
            lambda b: serde.from_bytes(bytes(b)).quantile(0.9))
        sq = slow["v_digest"].map(
            lambda b: serde.from_bytes(bytes(b)).quantile(0.9))
        assert ((fq - sq).abs() / sq).max() < 0.01

    def test_multi_key(self):
        ds, tbl = make_ds()
        out = grouped_digests_fast(ds, ["k", "k2"], "v").to_pandas()
        assert len(out) == 12
        counts = out["v_digest"].map(lambda b: serde.digest_count(bytes(b)))
        assert counts.sum() == tbl.num_rows

    def test_null_values_skipped(self):
        tbl = pa.table(
            {"k": pa.array(["a", "a", "b"]),
             "v": pa.array([1.0, None, 2.0])})
        ds = ray.data.from_arrow(tbl)
        out = grouped_digests_fast(ds, "k", "v").to_pandas().set_index("k")
        assert serde.digest_count(bytes(out.loc["a", "v_digest"])) == 1

    def test_null_group_keys(self):
        tbl = pa.table(
            {"k": pa.array(["a", None, "a", None, "b"]),
             "v": pa.array([1.0, 2.0, 3.0, 4.0, 5.0])})
        ds = ray.data.from_arrow(tbl)
        out = grouped_digests_fast(ds, "k", "v").to_pandas()
        counts = {
            row["k"]: serde.digest_count(bytes(row["v_digest"]))
            for _, row in out.iterrows()
        }
        assert counts.get("a") == 2 and counts.get("b") == 1
        # the two null-key rows end up in one group of 2
        null_counts = [v for k, v in counts.items() if k is None]
        assert null_counts == [2]


class TestGlobalDigestTree:
    def test_tree_matches_flat_within_bound(self):
        """Two-level tree merge (the >=10^5-block scale path) agrees with
        the flat aggregate within the digest's own error bound and keeps
        the exact count invariant."""
        import ray

        from tdigest_ray.functions import serde
        from tdigest_ray.stages.partial import global_digest_tree

        rng = np.random.default_rng(8)
        vals = rng.random(200_000) * 500.0
        tbl = pa.table({"v": pa.array(vals)})
        ds = ray.data.from_arrow(tbl).repartition(24)
        blob = global_digest_tree(ds, "v", compression=100)
        d = serde.from_bytes(bytes(blob))
        assert d.count == len(vals)
        qs = d.quantile([0.05, 0.5, 0.95])
        exact = np.quantile(vals, [0.05, 0.5, 0.95])
        assert np.all(np.abs(np.asarray(qs) - exact) <= 0.01 * 500.0)

    def test_tree_empty_and_null_input(self):
        import ray

        from tdigest_ray.stages.partial import global_digest_tree

        empty = ray.data.from_arrow(
            pa.table({"v": pa.array([], pa.float64())}))
        assert global_digest_tree(empty, "v") is None
        nulls = ray.data.from_arrow(
            pa.table({"v": pa.array([None, None], pa.float64())}))
        assert global_digest_tree(nulls, "v") is None
