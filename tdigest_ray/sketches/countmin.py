"""Count-min frequency sketch.

From-scratch implementation of Cormode & Muthukrishnan, "An improved data
stream summary: the count-min sketch and its applications" (J. Algorithms
2005): a depth x width int64 matrix; each row uses an independently seeded
SplitMix64 mix of the 64-bit item hash reduced mod width (strong finalizer
mixing in place of the paper's pairwise-independent family — standard
practice, and the eps/delta bounds hold empirically; see tests). Point
estimate = min over rows; guarantees est >= true always, and
est <= true + eps*N with width = ceil(e/eps), depth = ceil(ln(1/delta)).

Merge is elementwise addition — associative and commutative.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from tdigest_ray.sketches.hashing import splitmix64, to_hashes

_U64 = np.uint64


class CountMin:
    __slots__ = ("depth", "width", "table")

    # update()/query() read uint64 arrays as pre-hashed values;
    # SketchAgg may feed buffer-level string hashes (sketches/base.py)
    PREHASHED_OK = True

    def __init__(self, depth: int = 4, width: int = 2048,
                 table: np.ndarray | None = None):
        if depth < 1 or width < 1:
            raise ValueError("count-min depth and width must be positive")
        self.depth = depth
        self.width = width
        if table is None:
            self.table = np.zeros((depth, width), dtype=np.int64)
        else:
            table = np.asarray(table, dtype=np.int64)
            if table.shape != (depth, width):
                raise ValueError("count-min table shape mismatch")
            self.table = table.copy()

    @classmethod
    def from_error(cls, eps: float = 0.001, delta: float = 0.01) -> "CountMin":
        width = int(math.ceil(math.e / eps))
        depth = int(math.ceil(math.log(1.0 / delta)))
        return cls(depth=depth, width=width)

    def _indices(self, h: np.ndarray) -> np.ndarray:
        """(depth, n) column indices: row r uses the r-th derived
        (independently seeded SplitMix64) hash, ``derive_hash(h, r)``,
        reduced mod width — every row mixed in one (depth, n) pass."""
        seeds = splitmix64(np.arange(1, self.depth + 1, dtype=np.uint64))
        g = splitmix64(h[None, :] ^ seeds[:, None])
        if self.width & (self.width - 1):
            g %= _U64(self.width)
        else:
            g &= _U64(self.width - 1)
        return g.view(np.int64)

    def update(self, values, weights=None) -> None:
        h = to_hashes(values)
        idx = self._indices(h)
        if weights is None:
            idx += (np.arange(self.depth, dtype=np.int64)
                    * self.width)[:, None]
            self.table += np.bincount(
                idx.ravel(), minlength=self.depth * self.width
            ).reshape(self.depth, self.width)
        else:
            # bincount weights are float64, inexact above 2^53
            w = np.asarray(weights, dtype=np.int64)
            rows = np.arange(self.depth)[:, None]
            np.add.at(self.table, (rows, idx), w)

    def merge(self, other: "CountMin") -> "CountMin":
        if (self.depth, self.width) != (other.depth, other.width):
            raise ValueError("cannot merge count-min sketches of different shape")
        self.table += other.table
        return self

    def query(self, values) -> np.ndarray:
        """Point frequency estimates (vectorized)."""
        h = to_hashes(values)
        idx = self._indices(h)
        rows = np.arange(self.depth)[:, None]
        return self.table[rows, idx].min(axis=0)

    def total(self) -> int:
        """Total weight added — exact (row sums are all equal to N)."""
        return int(self.table[0].sum())

    def __eq__(self, other):
        return (
            isinstance(other, CountMin)
            and self.depth == other.depth
            and self.width == other.width
            and bool(np.array_equal(self.table, other.table))
        )

    def to_bytes(self) -> bytes:
        return struct.pack(">BII", 1, self.depth, self.width) + self.table.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "CountMin":
        ver, depth, width = struct.unpack_from(">BII", b)
        if ver != 1:
            raise ValueError("unsupported count-min serialization version")
        table = np.frombuffer(b, dtype=np.int64, offset=9).reshape(depth, width)
        return cls(depth, width, table)
