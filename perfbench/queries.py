"""Point queries on stored digest blobs, shared by every workload."""

from __future__ import annotations

import time

from tdigest_ray.functions import scalar, serde

PS = (0.01, 0.5, 0.95, 0.99)
# distinct point queries per plan: the p99 over them has 10 beyond it
PLAN_SIZE = 1000


def query_plan(blobs: list[bytes], n: int) -> list[tuple]:
    """(function, blob, argument, expected answer) point queries cycling
    through quantile, cdf and trimmed mean over the stored blobs."""
    plan = []
    for i in range(n):
        blob = blobs[i % len(blobs)]
        d = serde.from_bytes(blob)
        kind = i % 3
        if kind == 0:
            p = PS[(i // 3) % len(PS)]
            plan.append((scalar.tdigest_quantile, blob, p, d.quantile(p)))
        elif kind == 1:
            x = d.quantile(0.5)
            plan.append((scalar.tdigest_cdf, blob, x, d.cdf(x)))
        else:
            plan.append((_trimmed_avg, blob, (0.05, 0.95),
                         d.trimmed_avg(0.05, 0.95)))
    return plan


def _trimmed_avg(blob, bounds):
    return scalar.tdigest_digest_avg(blob, *bounds)


class QueryRunner:
    """Point queries on stored digest blobs (``from_bytes`` plus quantile,
    cdf or trimmed mean), timed one by one and checked against the answer
    of the deserialized digest.

    Each batch runs every query of the plan once. ``best`` keeps each
    query's fastest time over the batches: the other guests' load on the
    host slows some runs of a query, never speeds one up, so the spread of
    those best times across the plan is the steady latency distribution."""

    def __init__(self, blobs: list[bytes], check):
        self.plan = query_plan(blobs, PLAN_SIZE)
        self.check = check
        self.batches: list[list[float]] = []
        self.best = [float("inf")] * len(self.plan)
        self.failed = 0

    def run(self) -> None:
        """Run and time one batch: the whole plan, in order."""
        lat = []
        self.batches.append(lat)
        for i, (fn, blob, arg, want) in enumerate(self.plan):
            t0 = time.perf_counter_ns()
            got = fn(blob, arg)
            us = (time.perf_counter_ns() - t0) / 1000.0
            lat.append(us)
            self.best[i] = min(self.best[i], us)
            if got != want:
                self.failed += 1
                self.check.fail(f"point query {fn.__name__}({arg}): "
                                f"{got} != {want}")


def serde_metrics(blobs: list[bytes], reps: int = 2000) -> dict:
    """Per-call cost of the wire format and of a scalar quantile query on
    the workload's own stored digests."""
    digests = [serde.from_bytes(b) for b in blobs[:64]]
    sample = blobs[:64]

    def per_call_us(fn, items) -> float:
        t0 = time.perf_counter()
        for i in range(reps):
            fn(items[i % len(items)])
        return (time.perf_counter() - t0) / reps * 1e6

    return {
        "serde.to_bytes_us": per_call_us(serde.to_bytes, digests),
        "serde.from_bytes_us": per_call_us(serde.from_bytes, sample),
        "serde.bytes_per_digest": sum(map(len, blobs)) / len(blobs),
        "scalar.quantile_us": per_call_us(
            lambda b: scalar.tdigest_quantile(b, 0.95), sample),
    }
