"""``sketch_kernels``: the sketch kernels alone, with no Ray.

One job builds ``TDigest(100)`` from four input shapes, adds ``<value,count>``
pairs, merges compacted partials, round-trips them through ``serde``, runs
point queries through ``functions.scalar`` and updates HLL/KLL/count-min/Bloom
from ``hashing``-hashed string ids.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from perfbench.harness import (HLL_REL_GATE, KLL_RANK_GATE, Exact, median,
                               rank_error)
from perfbench.queries import PS, query_plan
from tdigest_ray import HLL, KLL, BloomFilter, CountMin, TDigest
from tdigest_ray.functions import serde
from tdigest_ray.sketches.hashing import hash64_utf8

SIZES = {
    "full": {"n_build": 250_000, "n_pairs": 4000, "n_partials": 512,
             "partial_rows": 2000, "n_ids": 200_000, "n_queries": 300},
    "smoke": {"n_build": 20_000, "n_pairs": 200, "n_partials": 16,
              "partial_rows": 500, "n_ids": 5000, "n_queries": 30},
}


class SketchKernels:
    uses_ray = False
    # Steps of tens of milliseconds in one process, ~80 times a run: the
    # other guests' load on the host slows some of them, never speeds one
    # up, so the fastest time of each step is the run's steady figure.
    step_stat = staticmethod(min)

    def __init__(self, work_dir: str, seed: int, size: str):
        self.seed = seed
        self.cfg = SIZES[size]

    def generate(self) -> None:
        c = self.cfg
        rng = np.random.default_rng(self.seed)
        n = c["n_build"]
        self.shapes = {
            "uniform": rng.random(n),
            "lognormal": rng.lognormal(0.0, 1.0, n),
            "sorted": np.sort(rng.random(n)),
            "dup50": rng.integers(0, 50, n).astype(np.float64),
        }
        self.exact = {k: Exact(v) for k, v in self.shapes.items()}

        self.pair_values = rng.lognormal(3.0, 1.0, c["n_pairs"])
        self.pair_counts = rng.integers(1, 20, c["n_pairs"])
        self.exact["add_weighted"] = Exact(np.repeat(self.pair_values,
                                                     self.pair_counts))

        parts = rng.normal(0.0, 1.0, (c["n_partials"], c["partial_rows"]))
        self.partials = []
        for row in parts:
            d = TDigest(100)
            d.add_many(row)
            d.compress()
            self.partials.append(d)
        self.exact["merge"] = Exact(parts.ravel())
        self.blobs = [serde.to_bytes(d) for d in self.partials]

        ids = rng.integers(0, c["n_ids"] // 2, c["n_ids"])
        self.ids = pa.array(np.char.add("user-", ids.astype(str)))
        uniq, counts = np.unique(ids, return_counts=True)
        self.n_distinct = len(uniq)
        top = np.argsort(-counts)[:10]
        self.top_ids = pa.array(np.char.add("user-", uniq[top].astype(str)))
        self.top_counts = counts[top]
        self.kll_values = self.shapes["lognormal"][: c["n_ids"]]
        self.kll_exact = np.sort(self.kll_values)

        self.queries = query_plan(self.blobs, c["n_queries"])

    def stored_digests(self) -> list[bytes]:
        return self.blobs

    def job(self, tr) -> int:
        c = self.cfg
        out = self.out = {}
        for shape, values in self.shapes.items():
            with tr.span("tdigest.build", shape=shape) as a:
                d = TDigest(100)
                d.add_many(values)
                d.compress()
                a["compactions"] = d.ncompactions
            out[shape] = d
        with tr.span("tdigest.add_weighted"):
            d = TDigest(100)
            d.add_weighted(self.pair_values, self.pair_counts)
            d.compress()
        out["add_weighted"] = d
        with tr.span("tdigest.merge"):
            acc = TDigest(100)
            for p in self.partials:
                acc.merge_digest(p)
            acc.compress()
        out["merge"] = acc
        with tr.span("serde.roundtrip"):
            out["serde"] = [serde.from_bytes(serde.to_bytes(p))
                            for p in self.partials]
        with tr.span("scalar.queries"):
            out["queries"] = [fn(blob, arg)
                              for fn, blob, arg, _ in self.queries]
        with tr.span("hashing.hash64_utf8"):
            h = hash64_utf8(self.ids)
        with tr.span("hll.update"):
            out["hll"] = HLL(14)
            out["hll"].update(h)
        with tr.span("kll.update"):
            out["kll"] = KLL(200)
            out["kll"].update(self.kll_values)
        with tr.span("countmin.update"):
            out["countmin"] = CountMin(4, 2048)
            out["countmin"].update(h)
        with tr.span("bloom.update"):
            out["bloom"] = BloomFilter(1 << 20, 7)
            out["bloom"].update(h)
        out["hashes"] = h
        return (4 * c["n_build"] + c["n_pairs"] + c["n_partials"]
                + c["n_ids"])

    def verify(self, check) -> None:
        out = self.out
        for name, exact in self.exact.items():
            d = out[name]
            check.that(d.count == exact.n, f"{name}: count {d.count}")
            check.group_rank(exact, d.quantile(PS), PS, name)
        check.that(all(a == b for a, b in zip(out["serde"], self.partials)),
                   "serde round trip changed a digest")
        check.that(out["queries"] == [want for *_, want in self.queries],
                   "scalar point queries disagree with the digest")
        est = out["hll"].estimate()
        check.that(abs(est - self.n_distinct) <= HLL_REL_GATE * self.n_distinct,
                   f"hll: estimate {est:.0f} vs {self.n_distinct}")
        check.rank(rank_error(self.kll_exact, out["kll"].quantile(PS), PS),
                   KLL_RANK_GATE, "kll", report=False)
        est = out["countmin"].query(hash64_utf8(self.top_ids))
        slack = 0.01 * self.cfg["n_ids"]
        check.that(bool(np.all(est >= self.top_counts)
                        & np.all(est <= self.top_counts + slack)),
                   "countmin: estimate outside [true, true + 1% N]")
        check.that(bool(out["bloom"].contains(out["hashes"][:1000]).all()),
                   "bloom: false negative")

    def layer_metrics(self, tr) -> dict:
        c = self.cfg
        m = {}
        builds = tr.per_job("tdigest.build")
        n_build = 4 * c["n_build"]
        m["tdigest.build_rows_per_s"] = n_build / median(builds)
        sort_s = 0.0
        for values in self.shapes.values():
            ts = []
            for _ in range(3):
                t0 = time.perf_counter()
                np.sort(values)
                ts.append(time.perf_counter() - t0)
            sort_s += median(ts)
        m["tdigest.sort_floor_ratio"] = median(builds) / sort_s
        m["tdigest.compactions"] = sum(
            s["attrs"]["compactions"] for s in tr.spans
            if s["name"] == "tdigest.build" and s["job"] == tr.jobs()[0])
        m["tdigest.merge_s"] = median(tr.per_job("tdigest.merge"))
        m["tdigest.weighted_pairs_per_s"] = c["n_pairs"] / median(
            tr.per_job("tdigest.add_weighted"))
        d = self.partials[0]
        t0 = time.perf_counter()
        for _ in range(2000):
            d.quantile(0.5)
        m["tdigest.quantile_us"] = (time.perf_counter() - t0) / 2000 * 1e6
        n_ids = c["n_ids"]
        m["hashing.strings_per_s"] = n_ids / median(
            tr.per_job("hashing.hash64_utf8"))
        for sk in ("hll", "kll", "countmin", "bloom"):
            m[f"{sk}.updates_per_s"] = n_ids / median(
                tr.per_job(f"{sk}.update"))
        return m
