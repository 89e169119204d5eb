"""Flagship job entrypoint — submit with ``ray job submit``.

Example::

    ray job submit --working-dir . -- \
        python scripts/run_flagship.py \
        --input /data/pages --output /data/digests \
        --checkpoint-dir /data/ckpt --compression 100

Runs the per-language digest rollup over a Common-Crawl-style pages table
and writes the quantile summary of every feature (``text_len``,
``token_count``, ``html_size``) as Parquet. With ``--checkpoint-dir`` the
run is checkpointed and resumable: one atomic Parquet part per input file
(with lineage metadata), resume by set-difference, then every
``*_digest`` column of the parts is merged in the driver
(``tdigest(tdigest) GROUP BY lang``, ``checkpoint.merged_result``).
Both modes write the same columns.

On a cluster the driver connects to the running Ray cluster via
``RAY_ADDRESS``; standalone it starts a local session.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time

import pyarrow.parquet as pq
import ray

# resolve the library when launched as `python scripts/run_flagship.py`
# from a working-dir upload (ray job submit --working-dir .)
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True,
                    help="pages parquet directory or file")
    ap.add_argument("--output", required=True,
                    help="output directory for the quantile summary")
    ap.add_argument("--checkpoint-dir", default=None,
                    help="enable per-input-file checkpoint/resume")
    ap.add_argument("--compression", type=int, default=100)
    ap.add_argument("--percentiles", type=float, nargs="*",
                    default=[0.5, 0.95, 0.99])
    args = ap.parse_args()

    if not ray.is_initialized():
        ray.init(include_dashboard=False)

    from tdigest_ray.pipelines import flagship
    from tdigest_ray.state import checkpoint

    t0 = time.perf_counter()
    if args.checkpoint_dir:
        files = sorted(glob.glob(os.path.join(args.input, "*.parquet"))) or [
            args.input
        ]

        def digest_fn(ds):
            # per-file finisher: driver-side merge of the tiny partial
            # table — no coalesce/groupby barrier per file (the fixed
            # costs that dominated r4's sequential per-file loop)
            return flagship.grouped_digests_table(
                flagship.prepare_features(ds, from_html=True),
                compression=args.compression,
            )

        parts = checkpoint.run_with_checkpoints(
            files, args.checkpoint_dir, digest_fn,
            on_progress=lambda f: print(f"[ckpt] done {f}", flush=True),
        )
        # every feature digest the parts hold, so both modes report the
        # same columns
        digest_cols = list(dict.fromkeys(
            c for p in parts for c in pq.read_schema(p).names
            if c.endswith("_digest")))
        merged = checkpoint.merged_result(parts, "lang", digest_cols)
        summary = flagship.finalize_quantiles(
            merged, features=[c.removesuffix("_digest") for c in digest_cols],
            percentiles=args.percentiles)
        lineage = checkpoint.lineage(args.checkpoint_dir)
        rows_in = sum(r["input_rows"] for r in lineage)
    else:
        summary = flagship.flagship(
            args.input, compression=args.compression, from_html=True,
            percentiles=args.percentiles)
        rows_in = None

    # crash-safe: stream into a temp dir and swap only after success, so
    # a failed run preserves the previous output and re-runs never
    # accumulate duplicate parts
    checkpoint.atomic_output_swap(summary, args.output)
    wall = time.perf_counter() - t0
    report = {"wall_sec": round(wall, 2), "output": args.output}
    if rows_in is not None:
        report["rows_in"] = rows_in
        report["docs_per_sec"] = round(rows_in / wall, 1)
    print(json.dumps(report), flush=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
