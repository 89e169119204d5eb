"""Deterministic splits (stages/splits.py)."""
import numpy as np
import pyarrow as pa
import pytest
import ray

from tdigest_ray.stages import splits


def _ref_bucket(i, seed=0):
    x = (i + seed) % 2147483647
    for _ in range(2):
        x = (x * 16807) % 2147483647
    return x % 10000


class TestLehmerBuckets:
    def test_matches_scalar_reference(self):
        ids = np.array([0, 1, 2, 41, 999983, 2**31, 10**12], dtype=np.int64)
        got = splits.lehmer_buckets(ids, seed=7)
        exp = [_ref_bucket(int(i), 7) for i in ids]
        assert got.tolist() == exp

    def test_uniformity(self):
        """Buckets of sequential ids spread roughly uniformly (the whole
        point of hashing vs doc_id % N)."""
        b = splits.lehmer_buckets(np.arange(100_000, dtype=np.int64))
        counts = np.bincount(b // 1000, minlength=10)  # deciles
        assert counts.min() > 8_000 and counts.max() < 12_000

    def test_seed_changes_assignment(self):
        ids = np.arange(1000, dtype=np.int64)
        assert not np.array_equal(splits.lehmer_buckets(ids, 0),
                                  splits.lehmer_buckets(ids, 1))


class TestAddSplit:
    def _ds(self, n=2000):
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(n), pa.int64()),
            "v": pa.array(np.arange(n, dtype=np.float64)),
        }))

    def test_disjoint_exhaustive_deterministic(self):
        df = splits.add_split(self._ds(), seed=3).to_pandas()
        assert set(df["split"].unique()) <= {"train", "val", "test"}
        assert len(df) == 2000
        again = splits.add_split(self._ds(), seed=3).to_pandas()
        assert (df.sort_values("doc_id")["split"].values
                == again.sort_values("doc_id")["split"].values).all()
        frac = (df["split"] == "train").mean()
        assert 0.95 < frac < 1.0  # ~98%

    def test_split_table_partition(self):
        df = splits.add_split(self._ds(), seed=3).to_pandas()
        ids = {name: set(df.loc[df["split"] == name, "doc_id"])
               for name in ("train", "val", "test")}
        allids = set()
        for s in ids.values():
            assert not (allids & s)  # disjoint
            allids |= s
        assert allids == set(range(2000))  # exhaustive

    def test_custom_fractions_and_validation(self):
        df = splits.add_split(self._ds(), {"a": 0.5, "b": 0.5}).to_pandas()
        assert set(df["split"].unique()) == {"a", "b"}
        with pytest.raises(ValueError):
            splits.add_split(self._ds(), {"a": 0.5, "b": 0.4})
        with pytest.raises(ValueError):
            splits.add_split(self._ds(), {"a": 0.99999, "b": 0.00001})
