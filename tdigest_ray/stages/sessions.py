"""Sessionization: split each key's event stream into sessions at idle
gaps — the standard event-log primitive (funnels, engagement, abuse
detection) and the canonical "needs per-key ordering" operator.

Scale shape: only narrow rows ``(key, ts, id)`` move — one
bounded-partition hash exchange on the key (the same pattern as the
dedup/packing reduces: Python callback count is P, never per row or
per key). Within a partition every key's full history is present, so
ordering, gap detection, and session assignment are single lexsort +
boundary-diff numpy passes over the whole partition at once.

Skew note: one key's history must fit a partition task (a key with
10^9 events is a bot — cap upstream); keys are hash-spread so hot
PARTITIONS don't form, and per-partition work is linear in rows.

Key contract: integer and string key columns are supported (strings
hash via ``hash64_utf8`` and pass through unchanged); float /
decimal keys are rejected up front — cast them first. Null keys form one
key of their own (the library's null-group convention, like SQL's
``PARTITION BY``), sorted after every other key.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

from tdigest_ray.sketches.hashing import hash64_utf8, splitmix64
from tdigest_ray.stages.graph import auto_partitions


def _ts_us(col) -> np.ndarray:
    """int64 microseconds from a timestamp or numeric column."""
    arr = col.to_numpy(zero_copy_only=False)
    if np.issubdtype(arr.dtype, np.datetime64):
        return arr.astype("datetime64[us]").view(np.int64)
    return arr.astype(np.int64)


def _is_str(t) -> bool:
    return pa.types.is_string(t) or pa.types.is_large_string(t)


def _filled(col):
    """The key column with nulls replaced by the type's zero value, so
    that numpy can sort and hash it (callers keep the null mask)."""
    if not col.null_count:
        return col
    return col.fill_null("" if _is_str(col.type) else
                         False if pa.types.is_boolean(col.type) else 0)


def _key_hash(col) -> np.ndarray:
    """uint64 partition hash for integer OR string key columns (the
    topn._group_hash idiom); every null key lands in one partition.
    Anything else is rejected up front with a clear error instead of
    failing deep inside numpy."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if _is_str(col.type):
        return hash64_utf8(col)
    if not (pa.types.is_integer(col.type) or pa.types.is_boolean(col.type)):
        raise TypeError(
            f"sessionize key column must be integer or string, got "
            f"{col.type}; cast float/decimal ids to int64 or string first")
    with np.errstate(over="ignore"):
        return splitmix64(
            _filled(col).to_numpy(zero_copy_only=False).astype(np.uint64))


def _narrow_fn(key_col, ts_col, id_col, num_partitions):
    def narrow(batch: pa.Table) -> pa.Table:
        part = (_key_hash(batch.column(key_col))
                % np.uint64(num_partitions)).astype(np.int64)
        return pa.table({
            id_col: batch.column(id_col),
            key_col: batch.column(key_col),
            "_ts": pa.array(_ts_us(batch.column(ts_col)), pa.int64()),
            "_part": pa.array(part, pa.int64())})
    return narrow


def _assign_arrays(group: pa.Table, key_col, id_col, gap_us):
    """(order, first, gap_prev, session_seq) for one partition, the last
    three in ``order`` (by key, nulls last, then ts and id) — vectorized
    across all keys in the partition at once."""
    kcol = group.column(key_col)
    null = kcol.is_null().to_numpy(zero_copy_only=False)
    ids = group.column(id_col).to_numpy(zero_copy_only=False)
    keys = _filled(kcol).to_numpy(zero_copy_only=False)
    ts = group.column("_ts").to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, ts, keys, null))
    keys, ts, null = keys[order], ts[order], null[order]
    first = np.concatenate(
        ([True], (keys[1:] != keys[:-1]) | (null[1:] != null[:-1])))
    gap_prev = np.empty(len(ts), np.int64)
    gap_prev[0] = 0
    gap_prev[1:] = ts[1:] - ts[:-1]
    new_sess = first | (gap_prev > gap_us)
    # per-key 0-based session index: global cumsum of session starts
    # minus its value at each key's first row
    cums = np.cumsum(new_sess)
    key_base = np.repeat(
        cums[first] - 1,
        np.diff(np.concatenate((np.flatnonzero(first), [len(keys)]))))
    return order, first, gap_prev, cums - 1 - key_base


def sessionize(ds, key_col: str = "user_id", ts_col: str = "ts",
               id_col: str = "event_id", gap: float = 1800.0,
               num_partitions: int | None = None):
    """Per-event session assignment: ``(id, key, session_seq,
    gap_prev_us)`` where ``session_seq`` is the key's 0-based session
    index (a new session starts when the time since the key's previous
    event exceeds ``gap`` seconds) and ``gap_prev_us`` is that gap in
    microseconds (null for each key's first event).

    Ties on ``ts`` break by ``id_col`` — deterministic regardless of
    partitioning, so reruns and the SQL oracle agree exactly.
    """
    num_partitions = auto_partitions(num_partitions)
    gap_us = np.int64(round(gap * 1_000_000))

    def assign(group: pa.Table) -> pa.Table:
        # key/id output types follow the input schema (int or string
        # keys both work; group carries the schema even when empty)
        ktype = group.schema.field(key_col).type
        itype = group.schema.field(id_col).type
        if group.num_rows == 0:
            return pa.table({
                id_col: pa.array([], itype),
                key_col: pa.array([], ktype),
                "session_seq": pa.array([], pa.int64()),
                "gap_prev_us": pa.array([], pa.int64())})
        order, first, gap_prev, seq = _assign_arrays(
            group, key_col, id_col, gap_us)
        return pa.table({
            id_col: group.column(id_col).take(order),
            key_col: group.column(key_col).take(order),
            "session_seq": pa.array(seq, pa.int64()),
            "gap_prev_us": pa.array(gap_prev, pa.int64(), mask=first),
        })

    return (ds.map_batches(
                _narrow_fn(key_col, ts_col, id_col, num_partitions),
                batch_format="pyarrow")
            .groupby("_part")
            .map_groups(assign, batch_format="pyarrow"))


def session_stats(ds, key_col: str = "user_id", ts_col: str = "ts",
                  id_col: str = "event_id", gap: float = 1800.0,
                  num_partitions: int | None = None):
    """Per-key rollup: ``(key, n_events, n_sessions,
    max_session_events)``. Computed inside the SAME partition callback
    as the assignment (a key's full history is co-located there), so no
    second shuffle and no risk of a key's stats splitting across
    blocks."""
    num_partitions = auto_partitions(num_partitions)
    gap_us = np.int64(round(gap * 1_000_000))

    def roll(group: pa.Table) -> pa.Table:
        ktype = group.schema.field(key_col).type
        if group.num_rows == 0:
            return pa.table({
                key_col: pa.array([], ktype),
                "n_events": pa.array([], pa.int64()),
                "n_sessions": pa.array([], pa.int64()),
                "max_session_events": pa.array([], pa.int64())})
        order, first, _, seq = _assign_arrays(
            group, key_col, id_col, gap_us)
        key_idx = np.cumsum(first) - 1          # dense key index, sorted
        n_events = np.bincount(key_idx)
        # session lengths: runs of (key_idx, seq) — both sorted, so a
        # boundary diff segments them
        sess_first = np.concatenate(
            ([True], (key_idx[1:] != key_idx[:-1]) | (seq[1:] != seq[:-1])))
        sess_len = np.diff(np.concatenate(
            (np.flatnonzero(sess_first), [len(order)])))
        sess_key = key_idx[sess_first]
        n_sessions = np.bincount(sess_key)
        max_len = np.maximum.reduceat(
            sess_len, np.concatenate(
                ([0], np.flatnonzero(sess_key[1:] != sess_key[:-1]) + 1)))
        return pa.table({
            key_col: group.column(key_col).take(order[first]),
            "n_events": pa.array(n_events, pa.int64()),
            "n_sessions": pa.array(n_sessions, pa.int64()),
            "max_session_events": pa.array(max_len, pa.int64())})

    return (ds.map_batches(
                _narrow_fn(key_col, ts_col, id_col, num_partitions),
                batch_format="pyarrow")
            .groupby("_part")
            .map_groups(roll, batch_format="pyarrow"))
