"""Deterministic dataset splitting (train/val/test) by id hashing.

Every training pipeline needs held-out splits that are (a) stable
across reruns and cluster layouts, (b) computable row-locally with no
shuffle, and (c) auditable by an external system. Hashing the document
id through a Lehmer LCG (the same ``x -> x * 16807 mod 2^31-1``
generator the reference's regression suite uses for its deterministic
datasets — /root/reference/test/sql/basic.sql:19-31) gives all three:
the bucket arithmetic is plain integer math any SQL engine reproduces
bit-for-bit, unlike an opaque hash function.

Scale shape: a pure ``map_batches`` column append — no state, no
shuffle, no driver participation; composes with ``write_parquet``
partitioned by split.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

_M = np.int64(2147483647)   # 2^31 - 1 (Mersenne prime; Lehmer modulus)
_A = np.int64(16807)        # Park-Miller multiplier

N_BUCKETS = 10_000


def lehmer_buckets(ids: np.ndarray, seed: int = 0,
                   rounds: int = 2) -> np.ndarray:
    """Deterministic bucket in [0, N_BUCKETS) per id: seed-offset, then
    ``rounds`` Lehmer steps. int64 throughout — safe because
    x < 2^31 after each mod, so x * 16807 < 2^45."""
    x = (ids.astype(np.int64) + np.int64(seed)) % _M
    for _ in range(rounds):
        x = (x * _A) % _M
    return (x % np.int64(N_BUCKETS)).astype(np.int64)


def _boundaries(splits: dict) -> list:
    """[(name, lo_bucket, hi_bucket)] from fraction dict (must sum to 1
    within float tolerance); boundaries are exact integers so the SQL
    oracle reproduces them."""
    total = sum(splits.values())
    if not np.isclose(total, 1.0):
        raise ValueError(f"split fractions must sum to 1, got {total}")
    out, lo = [], 0
    names = list(splits)
    for i, name in enumerate(names):
        hi = N_BUCKETS if i == len(names) - 1 else lo + round(
            splits[name] * N_BUCKETS)
        if hi <= lo:
            raise ValueError(f"split '{name}' rounds to zero buckets")
        out.append((name, lo, hi))
        lo = hi
    return out


def add_split(ds, splits: dict | None = None, id_col: str = "doc_id",
              seed: int = 0, out_col: str = "split"):
    """Append a ``split`` column assigning each row to a named split by
    its id's Lehmer bucket. Default 98/1/1 train/val/test."""
    splits = splits or {"train": 0.98, "val": 0.01, "test": 0.01}
    bounds = _boundaries(splits)

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        b = lehmer_buckets(ids, seed=seed)
        # few splits: one vectorized mask per split, not per-row Python
        out = np.empty(len(ids), dtype=object)
        for name, lo, hi in bounds:
            out[(b >= lo) & (b < hi)] = name
        return batch.append_column(out_col, pa.array(out, pa.string()))

    return ds.map_batches(assign, batch_format="pyarrow")
