"""Smoke test of the benchmark at tiny input sizes.

Every workload runs untraced and traced, passes its correctness gates and
prints every metric ``BENCHMARK.json`` names, with its unit; the metrics of
the layers a workload exercises are nonzero. Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# per-layer metrics each workload must report as nonzero (the layer map of
# perfbench/README.md)
EXERCISED = {
    "sketch_kernels": [
        "tdigest.build_rows_per_s", "tdigest.sort_floor_ratio",
        "tdigest.compactions", "tdigest.merge_s",
        "tdigest.weighted_pairs_per_s", "tdigest.quantile_us",
        "hll.updates_per_s", "kll.updates_per_s", "countmin.updates_per_s",
        "bloom.updates_per_s", "hashing.strings_per_s"],
    "pages": [
        "sources.read_s", "sources.bytes", "features.self_s",
        "features.rows_per_s", "partial.map_s", "partial.rows_out",
        "partial.state_bytes", "partial.merge_s", "aggregates.block_s",
        "raydata.map.udf_s", "raydata.agg_reduce.wall_s",
        "flagship.finalize_s", "checkpoint.parts_written",
        "checkpoint.bytes_written", "checkpoint.part_s", "checkpoint.merge_s",
        "checkpoint.swap_s", "checkpoint.resume_s"],
}
COMMON = ["cpu_s_per_mrow", "serde.to_bytes_us", "serde.from_bytes_us",
          "serde.bytes_per_digest", "scalar.quantile_us", "trace.job_s",
          "trace.spans"]


def run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], *args], cwd=cwd, capture_output=True, text=True,
        timeout=600)


def test_exercised_metrics_are_declared():
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(EXERCISED) == set(WORKLOADS)
    for metrics in EXERCISED.values():
        assert set(metrics + COMMON) <= names


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    p = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--size", "smoke")
    assert p.returncode == 0, p.stderr[-4000:]
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    context = json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, context["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    for key in ("nproc", "affinity_cpus", "ray_cpus", "loadavg",
                "loadavg_end", "ray", "pyarrow", "numpy"):
        assert key in context["host"]

    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(isinstance(v, float) for v in values.values())
    nonzero = list(want) if not trace else EXERCISED[workload] + COMMON
    assert [k for k in nonzero if not values[k] > 0] == []
    if trace:
        assert "trace.overhead_s" in values
    if trace and workload == "pages":
        assert values["checkpoint.resume_files"] == 0


def test_fails_without_the_library(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    command exits nonzero and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    p = run(str(tmp_path), "--workload", WORKLOADS[0], "--seed", "1",
            "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert p.stdout.strip() == ""
