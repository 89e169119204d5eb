"""HyperLogLog distinct-count sketch.

From-scratch implementation of Flajolet, Fusy, Gandouet, Meunier,
"HyperLogLog: the analysis of a near-optimal cardinality estimation
algorithm" (AofA 2007), adapted to 64-bit hashes (no large-range correction
needed below ~2^57 cardinalities), with the small-range linear-counting
correction. Standard error ~ 1.04 / sqrt(2^p).

Merge is elementwise register max — associative, commutative, idempotent —
which makes it a Ray ``AggregateFnV2`` combine with no ordering caveats.
"""

from __future__ import annotations

import numpy as np

from tdigest_ray.sketches.hashing import ctz_rank, to_hashes


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


class HLL:
    """Dense HyperLogLog with 2^p uint8 registers."""

    __slots__ = ("p", "registers")

    # update()/query() read uint64 arrays as pre-hashed values;
    # SketchAgg may feed buffer-level string hashes (sketches/base.py)
    PREHASHED_OK = True

    def __init__(self, p: int = 14, registers: np.ndarray | None = None):
        if not 4 <= p <= 18:
            raise ValueError(f"HLL precision must be in [4, 18], got {p}")
        self.p = p
        m = 1 << p
        if registers is None:
            self.registers = np.zeros(m, dtype=np.uint8)
        else:
            registers = np.asarray(registers, dtype=np.uint8)
            if registers.shape != (m,):
                raise ValueError("register array size mismatch")
            self.registers = registers.copy()

    @property
    def m(self) -> int:
        return 1 << self.p

    def update(self, values) -> None:
        """Vectorized update from a column of values (pre-hashed uint64
        arrays are accepted as-is)."""
        h = to_hashes(values)
        idx = (h & np.uint64(self.m - 1)).astype(np.int64)
        w = h >> np.uint64(self.p)
        rho = ctz_rank(w, 64 - self.p + 1)
        np.maximum.at(self.registers, idx, rho)

    def merge(self, other: "HLL") -> "HLL":
        if other.p != self.p:
            raise ValueError(
                f"cannot merge HLL sketches with different precision "
                f"({self.p} != {other.p})"
            )
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        m = self.m
        regs = self.registers
        est = _alpha(m) * m * m / np.sum(np.ldexp(1.0, -regs.astype(np.int64)))
        if est <= 2.5 * m:
            zeros = int(np.count_nonzero(regs == 0))
            if zeros:
                est = m * np.log(m / zeros)  # linear counting
        return float(est)

    def __eq__(self, other):
        return (
            isinstance(other, HLL)
            and self.p == other.p
            and bool(np.array_equal(self.registers, other.registers))
        )

    def to_bytes(self) -> bytes:
        return bytes([1, self.p]) + self.registers.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "HLL":
        if b[0] != 1:
            raise ValueError("unsupported HLL serialization version")
        p = b[1]
        return cls(p, np.frombuffer(b, dtype=np.uint8, offset=2))
