"""Bloom membership filter.

From-scratch implementation of Bloom, "Space/time trade-offs in hash coding
with allowable errors" (CACM 1970), with the standard Kirsch-Mitzenmacher
double-hashing scheme (g_i = h1 + i*h2) for the k probe positions.

No false negatives ever; false-positive rate ~ (1 - e^{-kn/m})^k.
Merge is bitwise OR — associative, commutative, idempotent.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from tdigest_ray.sketches.hashing import splitmix64, to_hashes

_U64 = np.uint64


class BloomFilter:
    __slots__ = ("nbits", "k", "bits")

    # update()/query() read uint64 arrays as pre-hashed values;
    # SketchAgg may feed buffer-level string hashes (sketches/base.py)
    PREHASHED_OK = True

    def __init__(self, nbits: int = 1 << 20, k: int = 7,
                 bits: np.ndarray | None = None):
        if nbits < 8 or k < 1:
            raise ValueError("invalid bloom filter parameters")
        self.nbits = int(nbits)
        self.k = int(k)
        nbytes = (self.nbits + 7) // 8
        if bits is None:
            self.bits = np.zeros(nbytes, dtype=np.uint8)
        else:
            bits = np.asarray(bits, dtype=np.uint8)
            if bits.shape != (nbytes,):
                raise ValueError("bloom bit array size mismatch")
            self.bits = bits.copy()

    @classmethod
    def from_capacity(cls, n: int, fpr: float = 0.01) -> "BloomFilter":
        nbits = max(64, int(math.ceil(-n * math.log(fpr) / (math.log(2) ** 2))))
        k = max(1, round(nbits / n * math.log(2))) if n else 1
        return cls(nbits=nbits, k=k)

    def _positions(self, h: np.ndarray) -> np.ndarray:
        """(k, n) bit positions via double hashing. A power-of-two
        ``nbits`` reduces with a mask, the same value as ``%``."""
        h2 = splitmix64(h) | _U64(1)
        with np.errstate(over="ignore"):
            g = np.arange(self.k, dtype=np.uint64)[:, None] * h2
            g += h
        if self.nbits & (self.nbits - 1):
            g %= _U64(self.nbits)
        else:
            g &= _U64(self.nbits - 1)
        return g.view(np.int64)  # every position is < nbits < 2^63

    def update(self, values) -> None:
        h = to_hashes(values)
        pos = self._positions(h).ravel()
        if self.nbits <= 8 * len(pos):
            # a bool bitmap no bigger than ``pos``: one scatter, one pack
            flags = np.zeros(8 * len(self.bits), dtype=bool)
            flags[pos] = True
            self.bits |= np.packbits(flags, bitorder="little")
        else:
            # a small batch into a big filter allocates nothing new
            np.bitwise_or.at(self.bits, pos >> 3,
                             np.uint8(1) << (pos & 7).astype(np.uint8))

    def contains(self, values) -> np.ndarray:
        """Vectorized membership probe."""
        h = to_hashes(values)
        pos = self._positions(h)
        set_ = (self.bits[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1
        return set_.all(axis=0).astype(bool)

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        if (self.nbits, self.k) != (other.nbits, other.k):
            raise ValueError("cannot merge bloom filters of different shape")
        np.bitwise_or(self.bits, other.bits, out=self.bits)
        return self

    def __eq__(self, other):
        return (
            isinstance(other, BloomFilter)
            and self.nbits == other.nbits
            and self.k == other.k
            and bool(np.array_equal(self.bits, other.bits))
        )

    def to_bytes(self) -> bytes:
        return struct.pack(">BQI", 1, self.nbits, self.k) + self.bits.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "BloomFilter":
        ver, nbits, k = struct.unpack_from(">BQI", b)
        if ver != 1:
            raise ValueError("unsupported bloom serialization version")
        return cls(nbits, k, np.frombuffer(b, dtype=np.uint8, offset=13))
