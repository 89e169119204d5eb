"""``pages``: Common-Crawl-style pages to per-language feature digests, by
both of the library's merge routes.

One job runs the pages twice. First ``pipelines.flagship.flagship(
from_html=True)``, whose digests merge in a Ray shuffle. Then the way
``scripts/run_flagship.py --checkpoint-dir`` runs them: per-file partial
digests merged on the driver and written as checkpoint parts, a merge of the
parts, an atomic output swap, and a resume pass that must process no file.
"""

from __future__ import annotations

import glob
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from perfbench.harness import Exact, median, replay_aggregate
from perfbench.queries import PS
from tdigest_ray.aggregates import TDigestMergeAgg
from tdigest_ray.pipelines import flagship
from tdigest_ray.sources import pages as pages_src
from tdigest_ray.sources.readers import read_corpus
from tdigest_ray.stages.features import add_features, extract_text
from tdigest_ray.stages.partial import (make_partial_digest_fn,
                                        merge_partial_digest_table)
from tdigest_ray.state import checkpoint

SIZES = {
    "full": {"pages": 10_000, "files": 4},
    "smoke": {"pages": 1_000, "files": 2},
}
FEATURES = ("text_len", "token_count", "html_size")
# the checkpointed CLI merges and reports text_len only
CKPT_FEATURES = ("text_len",)
# The generator stamps page i at EPOCH + i seconds, so row ids must stay
# below ~2.5e11 (datetime's year 9999): a seed picks a 2**37-row window.
ID_BITS = 37


class Pages:
    uses_ray = True
    # Steps of seconds spread over Ray's processes, ~10 times a run: the
    # fastest of so few is an outlier, their median is steadier.
    step_stat = staticmethod(median)

    def __init__(self, work_dir: str, seed: int, size: str):
        self.seed = seed
        self.cfg = SIZES[size]
        self.work_dir = work_dir
        self.path = os.path.join(work_dir, "pages")
        self.out_dir = os.path.join(work_dir, "summary")
        self.runs = 0

    def generate(self) -> None:
        """Pages from the library's deterministic row generator, with the
        row ids offset by the seed."""
        n, files = self.cfg["pages"], self.cfg["files"]
        os.makedirs(self.path, exist_ok=True)
        step = -(-n // files)
        base = ((self.seed * 0x9E3779B97F4A7C15) % (1 << 64)) >> (64 - ID_BITS)
        tables = []
        for i in range(files):
            ids = np.arange(base + i * step, base + min(n, (i + 1) * step),
                            dtype=np.int64)
            t = pages_src._gen_batch(pa.table({"id": ids}))
            pq.write_table(t, os.path.join(self.path, f"part-{i:03d}.parquet"))
            tables.append(t)
        self.files = sorted(glob.glob(os.path.join(self.path, "*.parquet")))
        self._oracle(pa.concat_tables(tables))

    def _oracle(self, table: pa.Table) -> None:
        """Exact per-language feature values, computed in plain Python."""
        langs = table.column("lang").to_pylist()
        texts = table.column("text").to_pylist()
        htmls = table.column("html").to_pylist()
        per = {}
        for lang, text, html in zip(langs, texts, htmls):
            f = per.setdefault(lang, ([], [], []))
            f[0].append(len(text))
            f[1].append(text.count(" ") + 1)
            f[2].append(len(html))
        self.exact = {lang: {name: Exact(v) for name, v in zip(FEATURES, vals)}
                      for lang, vals in per.items()}
        self.n = table.num_rows

    def job(self, tr) -> int:
        with tr.span("flagship"):
            out = flagship.flagship(self.path, compression=100,
                                    from_html=True, percentiles=PS)
            self.rollup = out.take_all()
        tr.ray_stats("flagship", out)

        self.runs += 1
        ckpt = os.path.join(self.work_dir, f"ckpt-{self.runs}")
        done, resumed = [], []

        def digest_fn(ds):
            with tr.span("grouped_digests_table"):
                return flagship.grouped_digests_table(
                    flagship.prepare_features(ds, from_html=True),
                    compression=100)

        with tr.span("run_with_checkpoints"):
            parts = checkpoint.run_with_checkpoints(
                self.files, ckpt, digest_fn, on_progress=done.append)
        with tr.span("merged_result"):
            merged = checkpoint.merged_result(parts, "lang",
                                              "text_len_digest")
        with tr.span("finalize_quantiles"):
            summary = flagship.finalize_quantiles(
                merged, features=CKPT_FEATURES, percentiles=PS)
        with tr.span("atomic_output_swap"):
            checkpoint.atomic_output_swap(summary, self.out_dir)
        with tr.span("resume"):
            checkpoint.run_with_checkpoints(self.files, ckpt, digest_fn,
                                            on_progress=resumed.append)
        self.processed = (len(done), len(resumed))
        if tr.enabled:
            self._record_checkpoint(tr, ckpt, parts, resumed)
        return 2 * self.n

    def verify(self, check) -> None:
        self._check_summary(check, self.rollup, FEATURES, "flagship")
        done, resumed = self.processed
        check.that(done == len(self.files), f"first pass processed {done} files")
        check.that(resumed == 0, f"resume pass processed {resumed} files")
        self._check_summary(check, pq.read_table(self.out_dir).to_pylist(),
                            CKPT_FEATURES, "checkpointed")

    def _check_summary(self, check, rows: list[dict], features,
                       route: str) -> None:
        check.that(len(rows) == len(self.exact),
                   f"{route}: {len(rows)} languages")
        for row in rows:
            exact = self.exact.get(row["lang"])
            if exact is None:
                check.fail(f"{route}: unexpected language {row['lang']!r}")
                continue
            for f in features:
                what = f"{route} {row['lang']} {f}"
                check.that(row[f"{f}_count"] == exact[f].n,
                           f"{what}: count {row[f'{f}_count']}")
                q = [row[f"{f}_p{int(round(p * 100)):02d}"] for p in PS]
                check.group_rank(exact[f], q, PS, what)

    def after_job(self) -> None:
        shutil.rmtree(os.path.join(self.work_dir, f"ckpt-{self.runs}"),
                      ignore_errors=True)

    def _record_checkpoint(self, tr, ckpt: str, parts: list,
                           resumed: list) -> None:
        out_files = glob.glob(os.path.join(self.out_dir, "*.parquet"))
        lineage = checkpoint.lineage(ckpt)
        with tr.span("checkpoint.files",
                     parts_written=len(parts),
                     bytes_written=sum(map(os.path.getsize,
                                           parts + out_files)),
                     part_s=median([r["wall_ms"] for r in lineage]) / 1000,
                     resume_files=len(resumed)):
            pass

    def stored_digests(self) -> list[bytes]:
        blocks = [pq.read_table(f, columns=["html", "lang"])
                  for f in self.files]
        fn = make_partial_digest_fn(["lang"], ["text_len"], 100)
        blobs = []
        for b in blocks:
            feats = add_features(extract_text(b, out_col="text"),
                                 html_col="html")
            blobs += fn(feats).column("text_len_digest").to_pylist()
        return [bytes(b) for b in blobs if b is not None]

    # -------------------------------------------------------------- #
    # per-layer metrics: replays of the map-side functions Ray runs in
    # workers, on the workload's own blocks, in the driver
    # -------------------------------------------------------------- #

    def layer_metrics(self, tr) -> dict:
        m = {}
        for key in ("parts_written", "bytes_written", "part_s",
                    "resume_files"):
            m[f"checkpoint.{key}"] = median(
                [s["attrs"][key] for s in tr.spans
                 if s["name"] == "checkpoint.files"])
        m["checkpoint.swap_s"] = median(tr.per_job("atomic_output_swap"))
        m["checkpoint.resume_s"] = median(tr.per_job("resume"))

        t0 = time.perf_counter()
        ds = read_corpus(self.path, columns=["html", "lang"]).materialize()
        m["sources.read_s"] = time.perf_counter() - t0
        m["sources.rows"] = ds.count()
        m["sources.bytes"] = ds.size_bytes()
        blocks = [ray.get(r) for r in ds.to_arrow_refs()]

        t0 = time.perf_counter()
        with tr.span("features.replay"):
            feats = [add_features(extract_text(b, out_col="text"),
                                  html_col="html").select(["lang", *FEATURES])
                     for b in blocks]
        m["features.self_s"] = time.perf_counter() - t0
        m["features.rows_per_s"] = (sum(b.num_rows for b in feats)
                                    / m["features.self_s"])

        fn = make_partial_digest_fn(["lang"], list(FEATURES), 100)
        t0 = time.perf_counter()
        with tr.span("partial.replay"):
            partial = pa.concat_tables([fn(b) for b in feats])
        m["partial.map_s"] = time.perf_counter() - t0
        m["partial.rows_out"] = partial.num_rows
        m["partial.state_bytes"] = sum(
            partial.column(f"{f}_digest").nbytes for f in FEATURES)
        t0 = time.perf_counter()
        merged = merge_partial_digest_table(partial, ["lang"], list(FEATURES))
        m["partial.merge_s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        flagship.finalize_quantiles(ray.data.from_arrow(merged),
                                    features=FEATURES,
                                    percentiles=PS).take_all()
        m["flagship.finalize_s"] = time.perf_counter() - t0

        # the checkpointed route's datasets are built inside the library
        # and its write leaves no stats: time its part merge and finalize
        # again here, on parts written for the purpose
        self.runs += 1
        ckpt = os.path.join(self.work_dir, f"ckpt-{self.runs}")
        parts = checkpoint.run_with_checkpoints(
            self.files, ckpt, lambda ds: flagship.grouped_digests_table(
                flagship.prepare_features(ds, from_html=True)))
        t0 = time.perf_counter()
        flagship.finalize_quantiles(
            checkpoint.merged_result(parts, "lang", "text_len_digest"),
            features=CKPT_FEATURES, percentiles=PS).take_all()
        m["checkpoint.merge_s"] = time.perf_counter() - t0

        # aggregates: the shuffle merge of the flagship route plus the merge
        # of the checkpoint parts
        shuffle = replay_aggregate(
            tr, "merge", [partial], "lang",
            [TDigestMergeAgg(f"{f}_digest", alias_name=f"{f}_digest")
             for f in FEATURES])
        parts_merge = replay_aggregate(
            tr, "merge_parts", [pq.read_table(p) for p in parts], "lang",
            [TDigestMergeAgg("text_len_digest",
                             alias_name="text_len_digest")])
        self.after_job()
        for k in ("block_calls", "block_s", "combine_calls", "combine_s",
                  "finalize_s", "state_bytes"):
            m[f"aggregates.{k}"] = shuffle[k] + parts_merge[k]
        return m
