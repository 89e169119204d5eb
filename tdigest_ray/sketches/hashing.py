"""Deterministic, vectorized 64-bit hashing shared by the sketches.

All sketches must produce identical results across processes and runs (no
``PYTHONHASHSEED`` dependence). Text has ONE hash, :func:`hash64_utf8`: a
multilinear (Carter-Wegman-family) block hash read straight from Arrow
string/binary buffers, with SplitMix64-derived constants. :func:`hash64`
sends Python/numpy text through the same function, so a string hashes
alike whether it arrives in an Arrow block, a pandas block or a Python
list. Numeric dtypes keep ``pandas.util.hash_array``'s deterministic
uint64 mix. Derived hash functions use SplitMix64 mixing (Steele et al.,
"Fast Splittable Pseudorandom Number Generators", OOPSLA'14 — public
domain constants).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from pandas.util import hash_array

_U64 = np.uint64


def hash64(values) -> np.ndarray:
    """Deterministic uint64 hash of a 1-D array.

    Text — an array of ``str``/``bytes``/``None`` values, or a numpy
    ``U``/``S`` array — is hashed by :func:`hash64_utf8`, nulls as ``""``.
    Every other dtype (and mixed-type object arrays) keeps ``hash_array``.
    """
    arr = np.asarray(values)
    if arr.dtype.kind in "US":
        # through Python strings: numpy's fixed-width strings drop
        # trailing NULs (a list keeps them), and ``pa.array`` cuts a
        # numpy string at its first NUL
        arr = np.asarray(values, dtype=object)
    if arr.dtype == object:
        try:
            col = pa.array(arr, from_pandas=True)
        except (pa.ArrowInvalid, pa.ArrowTypeError):  # mixed types
            return hash_array(arr)
        if pa.types.is_null(col.type):  # nothing but nulls
            col = col.cast(pa.string())
        if _is_text(col.type):
            return hash64_utf8(col)
    return hash_array(arr)


def to_hashes(values) -> np.ndarray:
    """The uint64 hashes a sketch consumes: a uint64 array is taken as
    already hashed (e.g. ``base.column_hashes``), anything else goes
    through :func:`hash64`."""
    arr = np.asarray(values)
    return arr if arr.dtype == np.uint64 else hash64(values)


def _is_text(t) -> bool:
    return (pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_binary(t) or pa.types.is_large_binary(t))


def _padded_words(data: np.ndarray) -> np.ndarray:
    """The byte buffer as uint64 words, copied with zero padding so the
    8 bytes at any offset ``o <= len(data)`` lie in words ``o >> 3`` and
    ``(o >> 3) + 1``."""
    padded = np.zeros((len(data) // 8 + 3) * 8, dtype=np.uint8)
    padded[:len(data)] = data
    return padded.view(np.uint64)


def _load_blocks(words: np.ndarray, word: np.ndarray,
                 shift: np.ndarray) -> np.ndarray:
    """The 8 little-endian bytes at byte offset ``8 * word + shift / 8``
    of each row, from two aligned loads: ``(A[t] >> s) | (A[t+1] << 64-s)``,
    written ``((A[t+1] << 63-s) << 1)`` so that it also holds at s == 0."""
    return (words[word] >> shift) | (
        (words[word + 1] << (_U64(63) - shift)) << _U64(1))


def _utf8_segments(arr):
    """(data: uint8[], starts, lens) of an Arrow string OR binary column's
    buffers — no Python objects. Nulls read as empty segments."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if not isinstance(arr, pa.Array):
        raise TypeError("hash64_utf8 needs an Arrow string/binary column")
    if pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type):
        off_dtype = np.int64
    elif pa.types.is_string(arr.type) or pa.types.is_binary(arr.type):
        off_dtype = np.int32
    else:
        raise TypeError(f"expected a string/binary column, got {arr.type}")
    n = len(arr)
    if n == 0:
        return (np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64))
    bufs = arr.buffers()
    offsets = np.frombuffer(bufs[1], dtype=off_dtype,
                            count=arr.offset + n + 1)[arr.offset:]
    data = (np.frombuffer(bufs[2], dtype=np.uint8)
            if bufs[2] is not None else np.empty(0, dtype=np.uint8))
    starts = offsets[:-1].astype(np.int64)
    lens = (offsets[1:].astype(np.int64) - starts)
    if arr.null_count:
        nullmask = np.asarray(arr.is_null())
        lens = np.where(nullmask, 0, lens)
    return data, starts, lens


def hash64_utf8(arr) -> np.ndarray:
    """Deterministic uint64 content hash of a string/binary column, read
    from its Arrow (offsets, data) buffers: equal texts always collide,
    distinct texts collide with probability ~2^-64, and the whole batch
    is hashed in ~15 flat numpy kernels regardless of string lengths.

    Accepts string, large_string, binary and large_binary arrays, sliced
    or chunked (:func:`hash64` takes Python and numpy text).
    Every byte counts — texts that differ only after an embedded NUL hash
    differently. Nulls hash as the empty string.

    Construction (multilinear hashing, cf. Carter-Wegman / NH-style
    universal families): every 8-byte block — assembled from two ALIGNED
    uint64 loads of a tail-padded copy of the Arrow data buffer, so no
    per-byte work ever happens — is multiplied by a fixed odd 64-bit
    constant keyed to its position in the row, summed per row with one
    ``np.add.reduceat`` (mod 2^64), and finalized against the byte
    length. Odd multipliers are invertible mod 2^64, so two texts
    differing in exactly one block NEVER collide; multi-block
    differences collide with ~2^-63 probability. There is no sequential
    chain, so cost is O(total_bytes) data-parallel work — skewed length
    distributions (one 1 MB doc among tweets) cost the same as uniform
    ones."""
    data, starts, lens = _utf8_segments(arr)
    n = len(starts)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    nfull = lens >> 3
    nb = nfull + 1  # +1: the (possibly empty) tail block
    bstart = np.concatenate([[0], np.cumsum(nb)])[:-1]

    A = _padded_words(data)

    # block index math: o = starts + 8*pos, and since 8*pos = 0 (mod 8),
    # t = o>>3 = (starts>>3) + pos and the shift s = starts&7 per row —
    # everything derives from ONE repeat of starts plus the pos ramp
    pos = np.arange(int(nb.sum()), dtype=np.int64) - np.repeat(bstart, nb)
    st_rep = np.repeat(starts, nb)
    t = (st_rep >> 3) + pos
    sh = ((st_rep & 7) << 3).astype(np.uint64)
    with np.errstate(over="ignore"):
        m = _load_blocks(A, t, sh)
        # tail blocks: zero the garbage past the string's last rem bytes —
        # an n-sized scatter (tail block = last block of each row)
        tail_idx = bstart + nfull
        rem8 = ((lens & 7).astype(np.uint64)) << _U64(3)
        m[tail_idx] &= (_U64(1) << rem8) - _U64(1)
        # multilinear: block * odd-constant(position), summed per row
        mixed = m * _pos_multipliers(int(pos.max()) + 1)[pos]
        row_sum = np.add.reduceat(mixed, bstart)
        return splitmix64(row_sum ^ (lens.astype(np.uint64) *
                                     _U64(0x9E3779B97F4A7C15)))


_PMIX_CACHE = np.empty(0, dtype=np.uint64)


def _pos_multipliers(size: int) -> np.ndarray:
    """Fixed odd 64-bit multipliers per block position (SplitMix64 stream,
    forced odd), grown on demand and cached."""
    global _PMIX_CACHE
    if len(_PMIX_CACHE) < size:
        grow = max(size, 2 * len(_PMIX_CACHE), 1024)
        _PMIX_CACHE = splitmix64(
            np.arange(grow, dtype=np.uint64)) | _U64(1)
    return _PMIX_CACHE


def splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer — bijective uint64 mixing."""
    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += _U64(0x9E3779B97F4A7C15)
        z = x
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        z = z ^ (z >> _U64(31))
    return z


def derive_hash(h: np.ndarray, seed: int) -> np.ndarray:
    """The seed-th derived hash function of pre-hashed values ``h``."""
    with np.errstate(over="ignore"):
        return splitmix64(h ^ splitmix64(np.uint64(seed + 1) * np.ones(1, np.uint64))[0])


def ctz_rank(w: np.ndarray, max_rank: int) -> np.ndarray:
    """Position of the least-significant 1-bit, 1-based, capped at
    ``max_rank`` (used as the HLL rho). Exact: isolates the lowest set bit
    (a power of two, exactly representable in float64) and takes log2."""
    w = w.astype(np.uint64, copy=False)
    with np.errstate(over="ignore", divide="ignore"):
        lsb = w & (~w + _U64(1))
        rho = np.where(
            w == 0,
            max_rank,
            np.log2(lsb.astype(np.float64) + (w == 0)).astype(np.int64) + 1,
        )
    return np.minimum(rho, max_rank).astype(np.uint8)
