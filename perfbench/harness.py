"""Measurement plumbing shared by the workloads: spans, correctness checks,
process accounting from ``/proc``, the Ray session and Ray Data's stats.

Nothing here imports ``tdigest_ray``; the workloads call into the library
and this module only times and counts around those calls.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import logging
import os
import signal
import statistics
import sys
import threading
import time

import numpy as np

# Rank-error gate for a compression-100 digest: the tolerance of
# tests/test_accuracy.py::test_merge_preserves_accuracy, twice the loosest
# compression-100 value-error gate in ACCURACY.md. A digest interpolates
# inside centroids that near the median hold ~pi/100 of the mass, so its
# rank error can reach ~0.016 on some inputs: add_weighted on runs of equal
# values (identical to add_many on the expanded run) measured 0.0134.
TDIGEST_RANK_GATE = 0.02
# Digests of at least this many rows are gated on rank error and feed
# quantile_rank_err.
RANK_MIN_ROWS = 1000
# KLL(k=200) normalized rank error is ~1.3%; allow about 4 sigma.
KLL_RANK_GATE = 0.05
# HLL(p=14) standard error is 1.04/128 = 0.8%; allow about 6 sigma.
HLL_REL_GATE = 0.05

# AF_UNIX socket paths are limited to 107 bytes, and Ray appends about 63
# characters (session dir + sockets/plasma_store) to its temp dir.
_RAY_SOCKET_SUFFIX = 63
_AF_UNIX_MAX = 107


def median(xs) -> float:
    return float(statistics.median(xs))


def rank_error(sorted_exact: np.ndarray, estimates, ps) -> float:
    """max |rank(estimate) - p| against the exact sample.

    With ties the rank of a value is the interval [#<v, #<=v]/n, and the
    error is the distance from p to that interval."""
    n = len(sorted_exact)
    est = np.atleast_1d(np.asarray(estimates, dtype=np.float64))
    ps = np.atleast_1d(np.asarray(ps, dtype=np.float64))
    lo = np.searchsorted(sorted_exact, est, side="left") / n
    hi = np.searchsorted(sorted_exact, est, side="right") / n
    return float(np.max(np.maximum(0.0, np.maximum(lo - ps, ps - hi))))


# ------------------------------------------------------------------ #
# tracing
# ------------------------------------------------------------------ #

class Tracer:
    """In-memory spans around calls into the library.

    A span has a name, start, end, the span that caused it and the job it
    belongs to. Disabled tracers keep only the duration of each step of a
    job, so the untraced and traced runs execute the same workload code."""

    def __init__(self):
        self.enabled = False
        self.job = 0
        self.spans: list[dict] = []
        # (name, seconds) of each step of the current job, traced or not:
        # a step is a span directly inside the "job" span
        self.steps: list[tuple[str, float]] = []
        self.stats: list[tuple[int, str, object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield attrs
        finally:
            t1 = time.perf_counter()
            stack.pop()
            if len(stack) == 1:
                self.steps.append((name, t1 - t0))
            if self.enabled:
                self.spans.append({"id": sid, "parent": parent,
                                   "job": self.job, "name": name,
                                   "start": t0, "end": t1, "attrs": attrs})

    def ray_stats(self, label: str, ds) -> None:
        """Keep Ray Data's stats summary of an executed dataset."""
        if self.enabled:
            self.stats.append((self.job, label, ds._get_stats_summary()))

    def jobs(self) -> list[int]:
        return sorted({s["job"] for s in self.spans if s["job"] > 0})

    def per_job(self, name: str) -> list[float]:
        """Total duration of spans called ``name`` in each traced job."""
        out = []
        for j in self.jobs():
            out.append(sum(s["end"] - s["start"] for s in self.spans
                           if s["job"] == j and s["name"] == name))
        return out

    def dump(self, path: str) -> None:
        t0 = min((s["start"] for s in self.spans), default=0.0)
        spans = [dict(s, start=s["start"] - t0, end=s["end"] - t0)
                 for s in self.spans]
        with open(path, "w") as f:
            json.dump(spans, f, default=str)


class Checks:
    """Correctness gates of the current job; a failed gate fails the job."""

    def __init__(self):
        self.failures: list[str] = []
        self.max_rank_err = 0.0
        self._job_failed = False

    def begin(self) -> None:
        self._job_failed = False

    def end(self) -> bool:
        return not self._job_failed

    def fail(self, msg: str) -> None:
        self._job_failed = True
        if len(self.failures) < 50:
            self.failures.append(msg)
        print(f"[perfbench] check failed: {msg}", file=sys.stderr)

    def that(self, ok: bool, msg: str) -> None:
        if not ok:
            self.fail(msg)

    def rank(self, err: float, gate: float, what: str,
             report: bool = True) -> None:
        """Gate a rank error; ``report`` feeds ``quantile_rank_err``."""
        if report:
            self.max_rank_err = max(self.max_rank_err, err)
        self.that(err <= gate, f"{what}: rank error {err:.5f} > {gate}")

    def group_rank(self, exact: "Exact", estimates, ps, what: str) -> None:
        """Gate a digest's quantiles against the exact sample.

        Digests of at least ``RANK_MIN_ROWS`` rows are gated on rank error.
        A smaller group spans few centroids of a few points each, so its
        rank error is a few points over n, not a sketch accuracy figure:
        those quantiles must lie, in order, within the group's range."""
        q = np.atleast_1d(np.asarray(estimates, dtype=np.float64))
        if exact.n >= RANK_MIN_ROWS:
            self.rank(rank_error(exact.sorted, q, ps),
                      TDIGEST_RANK_GATE + exact.slack, what)
        else:
            self.that(bool(np.all(np.diff(q) >= 0)
                           & (q[0] >= exact.sorted[0])
                           & (q[-1] <= exact.sorted[-1])),
                      f"{what}: quantiles {q} out of order or range")


class Exact:
    """A sorted exact sample and the rank slack of its ties.

    A digest interpolates between centroids, so an estimate can land
    between two adjacent distinct values; its rank is then off by up to
    the mass of one value (1/n for distinct values, more with ties)."""

    def __init__(self, values):
        self.sorted = np.sort(np.asarray(values, dtype=np.float64))
        self.n = len(self.sorted)
        edges = np.flatnonzero(np.diff(self.sorted)) + 1
        runs = np.diff(np.concatenate([[0], edges, [self.n]]))
        self.slack = float(runs.max()) / self.n


# ------------------------------------------------------------------ #
# processes (psutil is not installed: read /proc directly)
# ------------------------------------------------------------------ #

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            data = f.read()
    except OSError:
        return None
    # the command name may hold spaces; fields resume after the last ')'
    return data[data.rindex(")") + 2:].split()


def descendants(root: int | None = None) -> list[int]:
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        fields = _stat_fields(int(name))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(name))
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def ray_worker_pids() -> list[int]:
    """Ray worker processes started under this driver."""
    return [p for p in descendants()
            if "default_worker.py" in _cmdline(p)
            or _cmdline(p).startswith("ray::")]


def process_cpu_s(pid: int) -> float:
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    # utime and stime are fields 14 and 15 of /proc/<pid>/stat
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mb(pids) -> float:
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


class CpuMeter:
    """CPU seconds of the driver (all threads) plus every Ray worker."""

    def __init__(self, with_workers: bool):
        self.with_workers = with_workers

    def snapshot(self) -> dict:
        snap = {"driver": time.process_time()}
        if self.with_workers:
            for pid in ray_worker_pids():
                snap[pid] = process_cpu_s(pid)
        return snap

    @staticmethod
    def delta(a: dict, b: dict) -> float:
        return sum(v - a.get(k, 0.0) for k, v in b.items())


def host_fields() -> dict:
    with open("/proc/loadavg") as f:
        load = f.read().split()[:3]
    return {"nproc": nproc(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "loadavg": [float(x) for x in load]}


def nproc() -> int:
    """What ``nproc`` reports: it honours OMP_NUM_THREADS, then affinity."""
    omp = os.environ.get("OMP_NUM_THREADS", "")
    if omp.isdigit() and int(omp) > 0:
        return int(omp)
    return len(os.sched_getaffinity(0))


def versions() -> dict:
    import numpy
    import pyarrow
    import ray
    return {"ray": ray.__version__, "pyarrow": pyarrow.__version__,
            "numpy": numpy.__version__, "python": sys.version.split()[0]}


# ------------------------------------------------------------------ #
# Ray session
# ------------------------------------------------------------------ #

class RaySession:
    """A local Ray session whose workers import the library from ``root``.

    The repository root reaches the workers through ``runtime_env``: a
    driver-side ``sys.path`` entry does not."""

    def __init__(self, root: str, num_cpus: int):
        self.root = root
        self.num_cpus = num_cpus
        temp = os.path.join(root, ".perfbench_ray")
        self.temp_dir = (temp if len(temp) + _RAY_SOCKET_SUFFIX <= _AF_UNIX_MAX
                         else None)
        self._pids: list[int] = []

    def start(self) -> None:
        import ray
        import ray.data

        if self.temp_dir is None:
            print("[perfbench] checkout path too long for Ray's sockets; "
                  "using Ray's default temp dir", file=sys.stderr)
        ray.init(address="local", num_cpus=self.num_cpus,
                 include_dashboard=False, log_to_driver=False,
                 logging_level=logging.WARNING,
                 object_store_memory=512 * 1024 * 1024,
                 runtime_env={"env_vars": {"PYTHONPATH": self.root}},
                 _temp_dir=self.temp_dir)
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)

    def remember_processes(self) -> None:
        self._pids = descendants()

    def stop(self) -> None:
        """Shut Ray down and wait until every process it started is gone."""
        import ray

        pids = set(self._pids) | set(descendants())
        ray.shutdown()
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            alive = [p for p in pids if _alive(p)]
            if not alive:
                break
            time.sleep(0.1)
        for p in pids:
            if _alive(p):
                with contextlib.suppress(OSError):
                    os.kill(p, signal.SIGKILL)
        for p in pids:
            with contextlib.suppress(ChildProcessError, OSError):
                os.waitpid(p, os.WNOHANG)
        if self.temp_dir:
            import shutil
            shutil.rmtree(self.temp_dir, ignore_errors=True)


def _alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


# ------------------------------------------------------------------ #
# Ray Data stats
# ------------------------------------------------------------------ #

RAY_OP_KINDS = ("read", "map", "repartition", "agg_map", "agg_reduce",
                "write")
RAY_OP_FIELDS = ("wall_s", "cpu_s", "udf_s", "rows_out", "bytes_out")


def op_kind(name: str) -> str:
    if "Read" in name:
        return "read"
    if "Write" in name:
        return "write"
    if name.startswith("Aggregate"):
        return "agg_reduce" if "Reduce" in name else "agg_map"
    if name.startswith("Repartition") or name.startswith("Split"):
        return "repartition"
    return "map"


def _walk(summary, seen):
    if id(summary) in seen:
        return
    seen.add(id(summary))
    for p in summary.parents:
        yield from _walk(p, seen)
    yield summary


def ray_ops(summary) -> tuple[list[dict], float, float]:
    """(operators, spilled bytes, scheduling seconds) of one executed
    dataset, the operators of its upstream datasets included. Spill and
    scheduling time are totals of the execution, read from the top."""
    def total(d):
        return float((d or {}).get("sum", 0) or 0)

    ops = []
    for s in _walk(summary, set()):
        for op in s.operators_stats:
            ops.append({"name": op.operator_name,
                        "wall_s": total(op.wall_time),
                        "cpu_s": total(op.cpu_time),
                        "udf_s": total(op.udf_time),
                        "rows_out": total(op.output_num_rows),
                        "bytes_out": total(op.output_size_bytes)})
    return (ops, float(summary.dataset_bytes_spilled or 0),
            float(summary.streaming_exec_schedule_s or 0.0))


def raydata_metrics(stats, job_walls: dict[int, float]) -> dict:
    """Per-job Ray Data operator totals, as medians over jobs. ``stats``
    holds (job, stats summary) pairs of the datasets each job executed."""
    per_job: dict[int, dict] = {}
    for job, summary in stats:
        m = per_job.setdefault(job, {})
        ops, spilled, sched = ray_ops(summary)
        for op in ops:
            kind = op_kind(op["name"])
            for f in RAY_OP_FIELDS:
                key = f"raydata.{kind}.{f}"
                m[key] = m.get(key, 0.0) + op[f]
        m["raydata.spilled_bytes"] = m.get("raydata.spilled_bytes", 0.0) + spilled
        m["raydata.sched_s"] = m.get("raydata.sched_s", 0.0) + sched
    for job, m in per_job.items():
        udf = sum(v for k, v in m.items() if k.endswith(".udf_s"))
        m["raydata.overhead_s"] = job_walls.get(job, 0.0) - udf
    keys = sorted({k for m in per_job.values() for k in m})
    return {k: median([m.get(k, 0.0) for m in per_job.values()])
            for k in keys}




# ------------------------------------------------------------------ #
# driver-side replay of Ray's sort-based aggregate
# ------------------------------------------------------------------ #

def replay_aggregate(tr: Tracer, label: str, blocks: list, key, aggs) -> dict:
    """Run Ray's own map and reduce steps of ``groupby(key).aggregate(aggs)``
    on ``blocks`` in the driver, timing each call.

    Map: ``sort_and_partition`` then ``_aggregate``, which walks the sorted
    block row by row to find groups and calls ``aggregate_block`` once per
    group. Reduce: ``_combine_aggregated_blocks``, which calls ``combine``
    and ``finalize``. The AggregateFnV2 callbacks are timed separately, so
    the walk's own time is the difference. One partition per block: the
    boundary sampling of a multi-reducer shuffle is not replayed."""
    from ray.data._internal.planner.exchange.sort_task_spec import SortKey
    from ray.data.block import BlockAccessor

    acc = {"block_calls": 0, "block_s": 0.0, "combine_calls": 0,
           "combine_s": 0.0, "finalize_s": 0.0, "state_bytes": 0}

    def timed(fn, calls, secs, measure_state=False):
        def wrapper(*a):
            t0 = time.perf_counter()
            out = fn(*a)
            acc[secs] += time.perf_counter() - t0
            if calls:
                acc[calls] += 1
            if measure_state and isinstance(out, (bytes, bytearray)):
                acc["state_bytes"] += len(out)
            return out
        return wrapper

    for agg in aggs:
        agg.accumulate_block = timed(agg.accumulate_block, "block_calls",
                                     "block_s", measure_state=True)
        agg.merge = timed(agg.merge, "combine_calls", "combine_s")
        agg.finalize = timed(agg.finalize, None, "finalize_s")

    sort_key = SortKey(key)
    sort_s = walk_s = 0.0
    parts = []
    with tr.span(f"{label}.map"):
        for block in blocks:
            t0 = time.perf_counter()
            pieces = (BlockAccessor.for_block(block).sort_and_partition(
                [], sort_key) if key else [block])
            t1 = time.perf_counter()
            block_s0 = acc["block_s"]
            parts.extend(BlockAccessor.for_block(p)._aggregate(sort_key, aggs)
                         for p in pieces)
            t2 = time.perf_counter()
            sort_s += t1 - t0
            walk_s += (t2 - t1) - (acc["block_s"] - block_s0)
    with tr.span(f"{label}.reduce"):
        BlockAccessor.for_block(parts[0])._combine_aggregated_blocks(
            parts, sort_key, aggs, finalize=True)
    acc.update(sort_s=sort_s, walk_s=walk_s)
    return acc

