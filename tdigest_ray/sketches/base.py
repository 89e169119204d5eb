"""The ``Sketch`` protocol — the library's user-extension surface.

The reference's extension surface is PostgreSQL's aggregate framework
(SFUNC/COMBINEFUNC/FINALFUNC, SURVEY.md §2.3). Ours is this protocol plus
:class:`SketchAgg`: any object with ``update(values)``, ``merge(other)`` and
``to_bytes()/from_bytes()`` plugs into the same distributed pipeline
machinery (per-block partial update, associative+commutative merge through
the shuffle, finalize).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Protocol, runtime_checkable

import numpy as np

from ray.data.aggregate import AggregateFnV2
from ray.data.block import Block, BlockAccessor


@runtime_checkable
class Sketch(Protocol):
    def update(self, values) -> None: ...

    def merge(self, other: "Sketch") -> "Sketch": ...

    def to_bytes(self) -> bytes: ...


def column_array(block: Block, col: str, drop_nulls: bool = True) -> np.ndarray:
    """Column of an Arrow/pandas block as a numpy array (nulls dropped)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(block, pa.Table):
        arr = block.column(col)
        if drop_nulls and arr.null_count:
            arr = pc.drop_null(arr)
        if pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type):
            return np.asarray(arr.to_pylist(), dtype=object)
        return arr.to_numpy(zero_copy_only=False)
    series = BlockAccessor.for_block(block).to_pandas()[col]
    if drop_nulls:
        series = series.dropna()
    return series.to_numpy()


def column_hashes(block: Block, col: str):
    """Pre-hashed uint64 of an Arrow STRING column, straight from the
    Arrow buffers — the zero-object fast path for hash-consuming
    sketches (HLL / count-min / Bloom), which otherwise pay one Python
    object per row via ``column_array``.

    Bit-equal to ``hash64`` over the same values as an object array
    (both are ``hash64_utf8``), so routing through here changes NO
    sketch output. The block's dictionary is hashed once and gathered
    per occurrence — low-cardinality columns (event types, languages)
    cost per DISTINCT value, not per row. Nulls are dropped
    (ignore_nulls aggregate semantics). Returns ``None`` for non-Arrow
    blocks or non-string columns (caller falls back to ``column_array``).
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    from tdigest_ray.sketches.hashing import hash64_utf8

    if not isinstance(block, pa.Table):
        return None
    arr = block.column(col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if not (pa.types.is_string(arr.type)
            or pa.types.is_large_string(arr.type)):
        return None
    if arr.null_count:
        arr = pc.drop_null(arr)
    if len(arr) == 0:
        return np.empty(0, np.uint64)
    denc = arr.dictionary_encode()
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return hash64_utf8(denc.dictionary)[codes]


class SketchAgg(AggregateFnV2):
    """Generic AggregateFnV2 over any :class:`Sketch`.

    ``factory`` builds an empty sketch (captured parameters play the role of
    the reference's aggregate arguments); ``finalizer`` maps the merged
    sketch to the output cell (default: the serialized sketch itself).
    """

    def __init__(
        self,
        on: str,
        factory: Callable[[], Sketch],
        name: str,
        finalizer: Optional[Callable[[Sketch], Any]] = None,
    ):
        self._factory = factory
        self._finalizer = finalizer
        # accumulators travel as serialized bytes: Arrow-native block
        # columns, no per-block type-inference fallback
        self._cls = type(factory())
        super().__init__(name, zero_factory=lambda: None, on=on,
                         ignore_nulls=True)

    def aggregate_block(self, block: Block) -> Optional[bytes]:
        # sketches that consume hashes (PREHASHED_OK: their update()
        # treats a uint64 array as already-hashed) take string columns
        # from the Arrow buffers — same bits, no per-row Python objects
        values = None
        if getattr(self._cls, "PREHASHED_OK", False):
            values = column_hashes(block, self._target_col_name)
        if values is None:
            values = column_array(block, self._target_col_name)
        if len(values) == 0:
            return None
        s = self._factory()
        s.update(values)
        return s.to_bytes()

    def combine(self, current: bytes, new: bytes) -> bytes:
        s = self._cls.from_bytes(current)
        s.merge(self._cls.from_bytes(new))
        return s.to_bytes()

    def finalize(self, accumulator: Optional[bytes]):
        if accumulator is None:
            return None
        if self._finalizer is not None:
            return self._finalizer(self._cls.from_bytes(accumulator))
        return accumulator
