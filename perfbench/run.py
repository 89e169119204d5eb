"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. Inputs are generated from the seed into
``.perfbench_work/<workload>/`` under the root. Load is a closed loop: one
driver runs one job at a time, and the next job starts when the previous one
has completed and passed its correctness checks. The Ray session gets as
many logical CPUs as ``nproc`` reports.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced jobs, replays the map-side
functions in the driver and prints the per-layer metrics. The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it records the host, sizes and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# setup_s is the median over this many input generations
GEN_REPS = 5
# the timed phase runs at least this many jobs, even past --seconds
MIN_JOBS = 3
# point queries per run, in batches run between timed jobs in step with
# the run's progress so that they sample the whole run
QUERY_BATCHES = 100


def workload_classes() -> dict:
    from perfbench.kernels import SketchKernels
    from perfbench.pages import Pages
    return {"sketch_kernels": SketchKernels, "pages": Pages}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="input sizes; 'smoke' is for the smoke test")
    return ap.parse_args(argv)


def timed_job(wl, tr, check, meter) -> tuple[dict, bool]:
    """Run and time one job, then check its answers outside the timing; an
    exception or a failed check fails the job. Returns the job's wall and
    CPU seconds, input rows and (name, seconds) of its steps, and whether
    it passed."""
    check.begin()
    tr.steps = []
    cpu0 = meter.snapshot()
    t0 = time.perf_counter()
    try:
        with tr.span("job"):
            rows = wl.job(tr)
        wall = time.perf_counter() - t0
        cpu = meter.delta(cpu0, meter.snapshot())
        wl.verify(check)
    except Exception:  # a failed job is counted, not fatal
        wall = time.perf_counter() - t0
        cpu = meter.delta(cpu0, meter.snapshot())
        traceback.print_exc()
        check.fail(f"job raised {sys.exc_info()[1]!r}")
        rows = 0
    if hasattr(wl, "after_job"):
        wl.after_job()
    return ({"wall": wall, "cpu": cpu, "rows": rows, "steps": tr.steps},
            check.end())


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "tdigest_ray")):
        print(f"perfbench: no tdigest_ray package under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    from perfbench import harness as h

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    classes = workload_classes()
    if args.workload not in classes:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(classes)}", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    host = h.host_fields()
    ray_cpus = h.nproc()
    # numpy seeds must be non-negative
    wl = classes[args.workload](work, args.seed % 2 ** 64, args.size)
    tr, check = h.Tracer(), h.Checks()
    session = h.RaySession(ROOT, ray_cpus) if wl.uses_ray else None
    meter = h.CpuMeter(with_workers=session is not None)
    attempted = failed = 0
    try:
        # ---- set-up: Ray session, seeded inputs, one warm-up job ----
        t0 = time.perf_counter()
        if session:
            session.start()
        ray_s = time.perf_counter() - t0
        gen = []
        for _ in range(GEN_REPS):
            t0 = time.perf_counter()
            wl.generate()
            gen.append(time.perf_counter() - t0)
        warm, ok = timed_job(wl, tr, check, meter)
        attempted, failed = 1, int(not ok)
        setup_s = ray_s + h.median(gen) + warm["wall"]
        if session:
            session.remember_processes()

        # ---- timed phase: closed loop, one job at a time ----
        from perfbench.queries import QueryRunner, serde_metrics
        blobs = wl.stored_digests()
        queries = QueryRunner(blobs, check)
        jobs = {False: [], True: []}
        start = time.perf_counter()
        deadline = start + args.seconds
        while True:
            traced = bool(args.trace) and len(jobs[False]) > len(jobs[True])
            tr.enabled = traced
            if traced:
                tr.job += 1
            job, ok = timed_job(wl, tr, check, meter)
            tr.enabled = False
            jobs[traced].append(job)
            attempted += 1
            failed += int(not ok)
            progress = (time.perf_counter() - start) / args.seconds
            while len(queries.batches) < QUERY_BATCHES * min(1.0, progress):
                queries.run()
            done = sum(map(len, jobs.values()))
            if time.perf_counter() >= deadline and done >= MIN_JOBS * (
                    1 + args.trace):
                break
        elapsed = time.perf_counter() - start
        while len(queries.batches) < QUERY_BATCHES:
            queries.run()
        attempted += sum(map(len, queries.batches))
        failed += queries.failed

        if args.trace:
            tr.enabled = True
            tr.job = -1
            layer = per_layer_metrics(h, wl, tr, jobs)
            layer.update(serde_metrics(blobs))
            layer["quantile_rank_err"] = check.max_rank_err
            tr.dump(os.path.join(work, f"spans-seed{args.seed}.json"))
        workers = sorted((h.peak_rss_mb([p]) for p in (
            h.ray_worker_pids() if session else [])), reverse=True)
        # how many workers Ray keeps alive varies from run to run
        peak_rss = h.peak_rss_mb([os.getpid()]) + sum(workers[:1])
    finally:
        if session:
            session.stop()
    host["loadavg_end"] = h.host_fields()["loadavg"]
    host.update(ray_cpus=ray_cpus, **h.versions())

    if args.trace:
        metrics = layer
        kind = "per_layer"
    else:
        job_s, rows_per_job = job_time(jobs[False], wl.step_stat)
        metrics = {
            "setup_s": setup_s,
            "job_s": job_s,
            "rows_per_s": rows_per_job / job_s,
            "query_us.p50": quantile(queries.best, 0.5),
            "query_us.p99": quantile(queries.best, 0.99),
            "peak_rss_mb": peak_rss,
        }
        kind = "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size, "sizes": wl.cfg, "host": host,
        "jobs": {"untraced": jobs[False], "traced": jobs[True],
                 "timed_s": elapsed},
        "setup": {"ray_s": ray_s, "generate_s": gen, "warmup_s": warm["wall"]},
        "queries": sum(map(len, queries.batches)),
        "query_batches_p50_p99": [(quantile(b, 0.5), quantile(b, 0.99))
                                  for b in queries.batches],
        "worker_peak_rss_mb": workers,
        "quantile_rank_err": check.max_rank_err, "failures": check.failures,
    }
    with open(os.path.join(work, f"result-seed{args.seed}-trace{args.trace}"
                                 ".json"), "w") as f:
        json.dump(context, f, indent=1)
    for entry in os.scandir(work):  # inputs and outputs; keep the records
        if entry.is_dir():
            shutil.rmtree(entry.path, ignore_errors=True)
    print(json.dumps(context))
    # metrics a workload does not exercise read 0
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)),
                           "unit": unit} for name, unit in units.items()},
    }), flush=True)
    return 0


def quantile(xs, q: float) -> float:
    return sorted(xs)[int(len(xs) * q)]


def job_time(jobs: list[dict], stat) -> tuple[float, int]:
    """(seconds, input rows) of one job: ``stat`` over the jobs of each
    step's time, and of the time between steps, summed. Jobs that raised
    are left out."""
    done = [j for j in jobs if j["rows"]]
    layout = [name for name, _ in done[0]["steps"]]
    done = [j for j in done if [n for n, _ in j["steps"]] == layout]
    steps = sum(stat([j["steps"][i][1] for j in done])
                for i in range(len(layout)))
    rest = stat([j["wall"] - sum(s for _, s in j["steps"]) for j in done])
    return steps + rest, done[0]["rows"]


def per_layer_metrics(h, wl, tr, jobs) -> dict:
    untraced = job_time(jobs[False], wl.step_stat)[0]
    traced = job_time(jobs[True], wl.step_stat)[0]
    job_walls = {s["job"]: s["end"] - s["start"] for s in tr.spans
                 if s["name"] == "job"}
    m = {"cpu_s_per_mrow": min(j["cpu"] / j["rows"] for j in jobs[False]
                               if j["rows"]) * 1e6,
         "trace.job_s": traced,
         "trace.overhead_s": traced - untraced,
         "trace.spans": (sum(s["job"] > 0 for s in tr.spans)
                         / len(jobs[True]))}
    if tr.stats:
        m.update(h.raydata_metrics([(j, s) for j, _, s in tr.stats],
                                   job_walls))
    m.update(wl.layer_metrics(tr))
    return m


if __name__ == "__main__":
    sys.exit(main())
