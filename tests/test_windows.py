"""Temporal windowing stages."""

import datetime

import numpy as np
import pyarrow as pa
import pytest
import ray

from tdigest_ray.functions import serde
from tdigest_ray.stages import windows


@pytest.fixture
def event_batch():
    base = datetime.datetime(2025, 3, 1)
    ts = [base + datetime.timedelta(hours=3 * i) for i in range(16)]
    return pa.table(
        {
            "ts": pa.array(ts, pa.timestamp("us")),
            "value": pa.array(np.arange(16, dtype=np.float64)),
        }
    )


def test_tumbling_assignment(event_batch):
    out = windows.assign_tumbling(event_batch, "ts", 86_400)
    ws = out.column("window_start").to_pylist()
    day0 = int(datetime.datetime(2025, 3, 1,
                                 tzinfo=datetime.timezone.utc).timestamp())
    assert ws[0] == day0
    assert len(set(ws)) == 2  # 48 hours of events -> 2 day windows
    assert all(w % 86_400 == 0 for w in ws)


def test_sliding_assignment_fanout(event_batch):
    out = windows.assign_sliding(event_batch, "ts", 86_400, 21_600)
    assert out.num_rows == 16 * 4  # each event in exactly width/slide windows
    ws = np.asarray(out.column("window_start").to_pylist())
    assert (ws % 21_600 == 0).all()
    # every (row, window) pair satisfies ws <= ts < ws + width
    ts_us = out.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
    epoch = ts_us // 1_000_000
    assert ((ws <= epoch) & (epoch < ws + 86_400)).all()


def test_sliding_invalid_slide(event_batch):
    with pytest.raises(ValueError):
        windows.assign_sliding(event_batch, "ts", 86_400, 10_000)


def test_windowed_digests_counts(event_batch):
    ds = ray.data.from_arrow(event_batch).repartition(2)
    out = windows.windowed_digests(ds, "ts", "value", 86_400,
                                   21_600).to_pandas()
    counts = out["value_digest"].map(lambda b: serde.digest_count(bytes(b)))
    assert counts.sum() == 16 * 4  # total mass = rows x fanout
    # the fully-covered windows hold 8 events (24h of 3h-spaced events)
    assert counts.max() == 8


def test_windowed_digests_missing_value_column_raises(event_batch):
    """A value column the input lacks is refused by the rollup with a
    ValueError naming the columns, not a KeyError inside a Ray task."""
    ds = ray.data.from_arrow(event_batch)
    with pytest.raises(ValueError, match=r"none of the requested features "
                                         r"\('nope',\)"):
        windows.windowed_digests(ds, "ts", "nope", 86_400)


def test_epoch_seconds_unit_independent(event_batch):
    """ADVICE r1: ns/ms/s-typed timestamp columns must window identically
    to the us-typed column (divisor derived from the Arrow unit)."""
    ref = windows.assign_tumbling(event_batch, "ts", 86_400)
    ref_ws = ref.column("window_start").to_pylist()
    for unit in ("s", "ms", "ns"):
        cast = event_batch.set_column(
            0, "ts", event_batch.column("ts").cast(pa.timestamp(unit)))
        out = windows.assign_tumbling(cast, "ts", 86_400)
        assert out.column("window_start").to_pylist() == ref_ws, unit


def test_epoch_seconds_integer_column(event_batch):
    epochs = windows._epoch_seconds(event_batch, "ts")
    int_batch = pa.table({"ts": pa.array(epochs, pa.int64()),
                          "value": event_batch.column("value")})
    out = windows.assign_tumbling(int_batch, "ts", 86_400)
    ref = windows.assign_tumbling(event_batch, "ts", 86_400)
    assert (out.column("window_start").to_pylist()
            == ref.column("window_start").to_pylist())


def test_epoch_seconds_rejects_strings():
    bad = pa.table({"ts": pa.array(["2025-01-01"]),
                    "value": pa.array([1.0])})
    with pytest.raises(TypeError):
        windows.assign_tumbling(bad, "ts", 86_400)


def test_integer_unit_parameter():
    """Integer epoch columns in non-second units via the explicit unit=
    parameter (ADVICE r2: the r1->r2 silent semantic change is now an
    explicit caller choice)."""
    import numpy as np
    import pyarrow as pa

    from tdigest_ray.stages.windows import assign_tumbling

    secs = np.array([0, 59, 60, 3600], dtype=np.int64)
    t_us = pa.table({"ts": pa.array(secs * 1_000_000, pa.int64())})
    t_s = pa.table({"ts": pa.array(secs, pa.int64())})
    out_us = assign_tumbling(t_us, "ts", 60, unit="us")
    out_s = assign_tumbling(t_s, "ts", 60)  # default: seconds
    expect = [0, 0, 60, 3600]
    assert out_us.column("window_start").to_pylist() == expect
    assert out_s.column("window_start").to_pylist() == expect
