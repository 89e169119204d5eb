"""Vectorized per-block partial sketch stage vs the built-in grouped path."""

from collections import Counter

import numpy as np
import pyarrow as pa
import pytest
import ray

from tdigest_ray.aggregates import TDigestAgg
from tdigest_ray.functions import serde
from tdigest_ray.stages.partial import grouped_digests_fast
from tdigest_ray.sources.synthetic import lcg

SENTINEL = "\x00\x00__null__"


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

    @pytest.mark.parametrize("cols", [
        {"k": pa.array(["a", None, None, None, "a", "b", None, "b"])},
        # the string the old null-key mask filled nulls with: an ordinary
        # group, apart from the null group
        {"k": pa.array(["a", SENTINEL, None, SENTINEL, None, "a",
                        SENTINEL, None])},
        {"k": pa.array(["a", "a", "b", "b", "a", "b", "a", "b"]),
         "k2": pa.array(["x", None, "x", None, None, "y", "x", None])},
        {"k": pa.array([1, None, 2, None, 1, 3, None, 2], pa.int64())},
    ], ids=["string", "sentinel_string", "second_key", "int64"])
    def test_null_group_keys(self, cols):
        """Null keys, spread over 4 blocks, form one group per null key
        combination, kept as null, with exact counts."""
        keys = list(cols)
        tbl = pa.table({**cols, "v": pa.array(np.arange(8.0))})
        ds = ray.data.from_arrow([tbl.slice(i, 2) for i in range(0, 8, 2)])
        out = grouped_digests_fast(ds, keys, "v").to_pylist()
        counts = {tuple(r[k] for k in keys): serde.digest_count(r["v_digest"])
                  for r in out}
        assert len(counts) == len(out)
        assert counts == Counter(
            zip(*(tbl.column(k).to_pylist() for k in keys)))

    def test_empty_input_keeps_key_types(self):
        """An input with no rows gives no groups, with the input's key
        types, and the per-file finisher types its empty result alike."""
        from tdigest_ray.pipelines import flagship

        tbl = pa.table({"lang": pa.array([], pa.string()),
                        "k2": pa.array([], pa.int64()),
                        "text_len": pa.array([], pa.float64())})
        ds = ray.data.from_arrow(tbl)
        out = grouped_digests_fast(ds, ["lang", "k2"], "text_len")
        assert out.num_rows == 0
        assert out.schema.types == [pa.string(), pa.int64(), pa.binary()]
        table = flagship.grouped_digests_table(ds, features=["text_len"])
        assert table.num_rows == 0
        assert table.schema == pa.schema([("lang", pa.string()),
                                          ("text_len_digest", pa.binary())])

    def test_no_sort_or_aggregate_in_the_executed_plan(self, monkeypatch):
        """With more partial blocks (8) than the merge width (4 CPUs), the
        rollup executes partials, a repartition and a fold per block, then
        folds in the driver, with exact counts: no Aggregate or Sort
        operator (Ray's sort shuffle samples keys with numpy, which cannot
        compare a null key with a string)."""
        from tdigest_ray.stages import common

        executed, block_refs = [], common.block_refs

        def recording_block_refs(ds):
            executed.append(ds)
            return block_refs(ds)

        monkeypatch.setattr(common, "block_refs", recording_block_refs)
        ds, tbl = make_ds()
        out = grouped_digests_fast(ds, "k", "v").to_pylist()
        assert {r["k"]: serde.digest_count(r["v_digest"]) for r in out} \
            == Counter(tbl.column("k").to_pylist())
        assert len(executed) == 1
        ops = _plan_ops(executed[0])
        assert "Repartition" in ops
        assert not {"Aggregate", "Sort"} & set(ops), ops

    @pytest.mark.parametrize("blocks", [2, 4])
    def test_few_partial_blocks_fold_in_the_driver(self, blocks, materialized,
                                                   monkeypatch):
        """With no more partial blocks than the merge width (4 CPUs),
        nothing executed holds a repartition, and the result is
        byte-identical to one in-process fold of the partial tables."""
        from ray.data import DataContext

        from tdigest_ray.stages import partial

        monkeypatch.setattr(DataContext.get_current().execution_options,
                            "preserve_order", True)
        _, tbl = make_ds(20_000)
        parts = [tbl.slice(i * len(tbl) // blocks, len(tbl) // blocks)
                 for i in range(blocks)]
        out = grouped_digests_fast(ray.data.from_arrow(parts), "k", "v")
        assert not any("Repartition" in _plan_ops(ds) for ds in materialized)
        fn = partial.make_partial_digest_fn(["k"], ["v"], 100)
        want = partial.merge_partial_digest_table([fn(p) for p in parts],
                                                  ["k"], ["v"])
        assert out.equals(want)


def _plan_ops(ds) -> list:
    """The logical operator names of ``ds``'s plan, without arguments."""
    ops, stack = [], [ds._logical_plan.dag]
    while stack:
        op = stack.pop()
        ops.append(op.name.split("(")[0])
        stack.extend(op.input_dependencies)
    return ops


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
