"""Streaming / incremental digest maintenance.

Two building blocks for the reference's incremental-update workflow
(``UPDATE t SET d = tdigest_add(d, v)``, README.md:192-248) at Ray scale:

* :class:`DigestStore` — a named Ray actor holding a per-key digest index:
  the one legitimately *shared mutable* piece of state, so it is a raw
  actor (SURVEY.md §2.3). Batched, mergeable updates: writers fold their
  rows into local digests first and send ONE merge per (batch x key), so
  actor traffic is O(batches), never O(rows).
* :class:`StreamUpdater` — an actor-pool ``map_batches`` stage that folds
  each batch per key and forwards the partial digests to a
  :class:`DigestStore` (asynchronously, bounded in-flight; ``flush()``
  drains at end-of-stream), passing rows through unchanged — drop it into
  any pipeline to maintain a live quantile index alongside it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa

import ray

from tdigest_ray.functions import serde
from tdigest_ray.sketches.tdigest import TDigest
from tdigest_ray.stages.partial import make_partial_digest_fn


def _fold_batch(batch: pa.Table, key_col: str, value_col: str,
                compression: int) -> dict[str, bytes]:
    """One partial digest per DISTINCT key in the batch — the map-side
    partial of :func:`~tdigest_ray.stages.partial.make_partial_digest_fn`
    as a dict. Python work is per distinct key, never per row. Null keys
    form their own group under key ``None``, the library's null-group
    convention; keys whose values are all null are left out."""
    out = make_partial_digest_fn([key_col], [value_col], compression)(batch)
    return {k: b for k, b in zip(out.column(key_col).to_pylist(),
                                 out.column(f"{value_col}_digest").to_pylist())
            if b is not None}


@ray.remote(num_cpus=0)
class DigestStore:
    """Shared per-key digest index with mergeable batched updates."""

    def __init__(self, compression: int = 100):
        self._compression = compression
        self._digests: dict[str, TDigest] = {}

    def merge_partials(self, partials: dict[str, bytes]) -> None:
        for key, blob in partials.items():
            self._digests[key] = serde.merge_blobs([blob],
                                                   self._digests.get(key))

    def add(self, key: str, values) -> None:
        """Direct add (small updates); prefer merge_partials for volume."""
        d = self._digests.setdefault(key, TDigest(self._compression))
        d.add_many(np.asarray(values, dtype=np.float64))

    def quantile(self, key: str, percentiles) -> Optional[list]:
        d = self._digests.get(key)
        if d is None:
            return None
        out = d.quantile(percentiles)
        return [float(out)] if np.isscalar(out) else list(out)

    def count(self, key: str) -> int:
        d = self._digests.get(key)
        return 0 if d is None else d.count

    def keys(self) -> list[str]:
        # None (the null-key group) sorts last rather than breaking the
        # comparison against real keys
        return sorted(self._digests, key=lambda k: (k is None, k))

    def snapshot(self) -> dict[str, bytes]:
        """Serialized state — persist it, or seed another store (resume)."""
        out = {}
        for k, d in self._digests.items():
            d.compress()
            out[k] = serde.to_bytes(d)
        return out

    def restore(self, snapshot: dict[str, bytes]) -> None:
        self.merge_partials(snapshot)


def get_digest_store(name: str = "tdigest_ray_store",
                     compression: int = 100):
    """Get-or-create the named store.

    Call this from the DRIVER before launching updater stages: an actor
    lazily created inside a map worker would be owned by (and die with)
    that worker. Worker-side code should use ``ray.get_actor(name)``.
    """
    return DigestStore.options(name=name, get_if_exists=True).remote(
        compression)


class StreamUpdater:
    """Actor-pool pass-through stage that maintains a DigestStore.

    Use: ``ds.map_batches(StreamUpdater, fn_constructor_kwargs=dict(
    store_name=..., key_col="lang", value_col="text_len"),
    concurrency=(2, 8), batch_format="pyarrow")``.
    """

    def __init__(self, store_name: str, key_col: str, value_col: str,
                 compression: int = 100):
        # the store must already exist (created by the driver via
        # get_digest_store) — see ownership note there
        self._store = ray.get_actor(store_name)
        self._key_col = key_col
        self._value_col = value_col
        self._compression = compression
        self._pending = []

    def __call__(self, batch: pa.Table) -> pa.Table:
        partials = _fold_batch(batch, self._key_col, self._value_col,
                               self._compression)
        if partials:
            # bounded in-flight pipeline of asynchronous merges
            self._pending.append(self._store.merge_partials.remote(partials))
            if len(self._pending) > 8:
                _, self._pending = ray.wait(self._pending, num_returns=1)
        return batch

    def flush(self) -> None:
        """Drain all in-flight merges. Readers that query the DigestStore
        right after the pipeline finishes must see every batch. Drivers
        holding a direct instance should call this at end-of-stream;
        ``__del__`` calls it as a BEST-EFFORT backstop only (Ray Data may
        tear pool actors down without running finalizers), so driver code
        reading the store after a pipeline should confirm quiescence —
        e.g. poll until the per-key totals are stable (every merge is
        submitted before the pipeline finishes; the store drains its
        queue in milliseconds once idle)."""
        if self._pending:
            ray.get(self._pending)
            self._pending = []

    def __del__(self):  # actor teardown == end-of-stream
        try:
            self.flush()
        except Exception:
            pass
