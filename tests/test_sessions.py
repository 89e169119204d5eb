"""Sessionization (stages/sessions.py) vs a per-key Python reference."""
import numpy as np
import pyarrow as pa
import ray

from tdigest_ray.stages.sessions import session_stats, sessionize

GAP = 60.0  # seconds

# (event_id, user_id, ts_us) — ties, out-of-order arrival, singletons
EVENTS = [
    (0, 1, 0),
    (1, 1, 30_000_000),            # same session (30s)
    (2, 1, 200_000_000),           # new session (170s)
    (3, 2, 0),
    (4, 2, 61_000_000),            # new session (61s > 60s)
    (5, 2, 121_000_000),           # exactly 60s -> SAME session (> only)
    (6, 3, 5_000_000),             # singleton user
    (7, 1, 200_000_000),           # tie ts with event 2 -> same session,
                                   # ordered by id
    (8, 1, 100_000_000),           # arrives "late", sits between
]


def _table(order=None):
    rows = [EVENTS[i] for i in (order or range(len(EVENTS)))]
    return pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array([r[2] for r in rows], pa.int64()),  # numeric path
    })


def _ref():
    """{event_id: (user, session_seq, gap_prev_or_None)} +
    {user: (n_events, n_sessions, max_len)}."""
    per_user = {}
    for eid, uid, ts in sorted(EVENTS, key=lambda e: (e[1], e[2], e[0])):
        per_user.setdefault(uid, []).append((eid, ts))
    assign, stats = {}, {}
    for uid, evs in per_user.items():
        seq, prev, lens = 0, None, [0]
        for eid, ts in evs:
            gap = None if prev is None else ts - prev
            if prev is not None and gap > GAP * 1e6:
                seq += 1
                lens.append(0)
            assign[eid] = (uid, seq, gap)
            lens[-1] += 1
            prev = ts
        stats[uid] = (len(evs), seq + 1, max(lens))
    return assign, stats


class TestSessionize:
    def test_matches_reference(self):
        ref, _ = _ref()
        df = sessionize(ray.data.from_arrow(_table()),
                        gap=GAP).to_pandas().set_index("event_id")
        assert len(df) == len(EVENTS)
        for eid, (uid, seq, gap) in ref.items():
            row = df.loc[eid]
            assert row["user_id"] == uid
            assert row["session_seq"] == seq, (eid, row["session_seq"], seq)
            if gap is None:
                assert row.isna()["gap_prev_us"]
            else:
                assert row["gap_prev_us"] == gap

    def test_arrival_order_invariance(self):
        a = sessionize(ray.data.from_arrow(_table()), gap=GAP).to_pandas()
        perm = [8, 3, 0, 7, 5, 1, 6, 2, 4]
        b = sessionize(ray.data.from_arrow(_table(perm)),
                       gap=GAP).to_pandas()
        a = a.sort_values("event_id").reset_index(drop=True)
        b = b.sort_values("event_id").reset_index(drop=True)
        assert a.equals(b)

    def test_stats_match_reference(self):
        _, ref = _ref()
        df = session_stats(ray.data.from_arrow(_table()),
                           gap=GAP).to_pandas().set_index("user_id")
        assert len(df) == len(ref)
        for uid, (ne, ns, ml) in ref.items():
            row = df.loc[uid]
            assert (row["n_events"], row["n_sessions"],
                    row["max_session_events"]) == (ne, ns, ml)

    def test_timestamp_column_path(self):
        t = _table()
        ts = pa.array(
            np.array([r[2] for r in EVENTS], "datetime64[us]"))
        t = t.set_column(2, "ts", ts)
        df = sessionize(ray.data.from_arrow(t), gap=GAP).to_pandas()
        ref, _ = _ref()
        got = {int(r.event_id): int(r.session_seq)
               for r in df.itertuples()}
        assert got == {e: s for e, (_, s, _) in ref.items()}

    def test_empty(self):
        df = sessionize(ray.data.from_arrow(_table().slice(0, 0)),
                        gap=GAP).to_pandas()
        assert len(df) == 0

    def test_string_keys(self):
        """String user ids hash via fast_hash64_utf8 and pass through
        with their type preserved (ADVICE r4: the int-only cast used to
        fail deep inside numpy)."""
        t = _table()
        skey = pa.array([f"u{v}" for v in t.column("user_id").to_pylist()])
        t = t.set_column(1, "user_id", skey)
        ref, ref_stats = _ref()
        df = sessionize(ray.data.from_arrow(t),
                        gap=GAP).to_pandas().set_index("event_id")
        for eid, (uid, seq, _) in ref.items():
            assert df.loc[eid]["user_id"] == f"u{uid}"
            assert df.loc[eid]["session_seq"] == seq
        st = session_stats(ray.data.from_arrow(t),
                           gap=GAP).to_pandas().set_index("user_id")
        for uid, (ne, ns, ml) in ref_stats.items():
            row = st.loc[f"u{uid}"]
            assert (row["n_events"], row["n_sessions"],
                    row["max_session_events"]) == (ne, ns, ml)

    def test_float_keys_rejected(self):
        import pytest

        t = _table()
        fkey = pa.array(
            np.asarray(t.column("user_id").to_numpy(), np.float64))
        t = t.set_column(1, "user_id", fkey)
        with pytest.raises(Exception, match="integer or string"):
            sessionize(ray.data.from_arrow(t), gap=GAP).to_pandas()

    def test_null_keys_form_one_key(self):
        """Null keys are one key of their own (the library's null-group
        convention) instead of a ``TypeError`` from sorting ``None``
        against strings; an int key column with nulls works the same."""
        for keys in (pa.array(["a", None, "a", None, "", None]),
                     pa.array([7, None, 7, None, 0, None], pa.int64())):
            t = pa.table({
                "event_id": pa.array(range(6), pa.int64()),
                "user_id": keys,
                # nulls at 0s, 30s and 500s: the last is a new session
                "ts": pa.array([0, 0, 10_000_000, 30_000_000, 5, 500_000_000],
                               pa.int64())})
            df = sessionize(ray.data.from_arrow(t), gap=GAP).to_pandas()
            df = df.set_index("event_id").sort_index()
            assert df["session_seq"].to_dict() == {
                0: 0, 1: 0, 2: 0, 3: 0, 4: 0, 5: 1}
            assert df["gap_prev_us"].isna().tolist() == [
                True, True, False, False, True, False]
            assert df["user_id"].isna().tolist() == [
                False, True, False, True, False, True]
            st = session_stats(ray.data.from_arrow(t), gap=GAP).to_pandas()
            rows = {(None if k is None or k != k else k):
                    (ne, ns, ml) for k, ne, ns, ml in st.itertuples(
                        index=False)}
            blank, key = keys[4].as_py(), keys[0].as_py()
            assert rows == {key: (2, 1, 2), blank: (1, 1, 1),
                            None: (3, 2, 2)}
