"""The flagship pipeline: Common-Crawl-style pages -> per-language feature
digests -> quantile answers.

Ray translation of the reference's pre-aggregation rollup
(README.md:104-155, SURVEY.md §3.2):

1. column-pruned ``read_parquet`` (html/text/lang only — never carry page
   payloads past feature extraction), one read task per CPU and at most
   one per file,
2. ``map_batches`` feature extraction (zero-copy Arrow kernels),
3. grouped sketch aggregation (``stages.partial.grouped_digests_fast``,
   the library's one grouped rollup, which also checks the requested
   features and types an empty result): one partial digest per (block,
   lang), folded once in the driver into a ``pa.Table``; only when there
   are more than ``min(CPUs, 64)`` partial blocks are they first
   coalesced to that many and folded per block — only compact digest
   states move, and nothing sorts by key,
4. finalize projections (quantiles per group), in the driver over the
   folded table, or as a ``map_batches`` over a stored digest table
   (:func:`finalize_quantiles`).

Skew note: web language keys are Zipfian (en >> rest). The partial rows
are already one digest per (block x lang) regardless of row skew, and the
driver fold sees at most ``min(CPUs, 64)`` rows per lang, so the hot key
needs no salting.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads

import ray

from tdigest_ray.functions import serde
from tdigest_ray.stages import common
from tdigest_ray.stages.features import (add_features, extract_text,
                                         feature_names)
from tdigest_ray.stages.partial import grouped_digests_fast

DEFAULT_FEATURES = ("text_len", "token_count", "html_size")
DEFAULT_PERCENTILES = (0.5, 0.95, 0.99)


def prepare_features(ds, from_html: bool = False,
                     keep_cols=("lang",)) -> "ray.data.Dataset":
    """Feature-extraction stage; drops payload columns before any shuffle."""

    def fn(batch: pa.Table) -> pa.Table:
        if from_html:
            if "text" in batch.column_names:
                batch = batch.drop_columns(["text"])
            batch = extract_text(batch, out_col="text")
        batch = add_features(
            batch,
            html_col="html" if "html" in batch.column_names else None,
        )
        keep = [c for c in (*keep_cols, "text_len", "token_count",
                            "html_size") if c in batch.column_names]
        return batch.select(keep)

    return ds.map_batches(fn, batch_format="pyarrow")


def grouped_digests_table(ds, group_col: str = "lang",
                          features=DEFAULT_FEATURES,
                          compression: int = 100) -> pa.Table:
    """``tdigest(v, c) GROUP BY group_col`` for each requested feature
    ``ds`` holds, as a ``pa.Table``: the library's one grouped rollup,
    ``stages.partial.grouped_digests_fast``, which also checks the
    features and types an empty result. The per-file checkpoint
    finisher."""
    return grouped_digests_fast(ds, group_col, features, compression)


def finalize_quantiles(digest_table, features=DEFAULT_FEATURES,
                       percentiles=DEFAULT_PERCENTILES,
                       group_col: str = "lang"):
    """Project quantiles out of a grouped digest table (the ~1.5 ms
    'query the summary table' step of README.md:131-133, as map_batches)."""
    return digest_table.map_batches(
        _quantile_columns(features, percentiles, group_col),
        batch_format="pyarrow")


def _quantile_columns(features, percentiles, group_col: str):
    """The per-batch projection of :func:`finalize_quantiles`. Refuses
    distinct percentiles that would share a ``p{NN}`` column name."""
    ps = list(percentiles)
    # round, not truncate: int(0.29 * 100) == 28
    names = [f"p{int(round(p * 100)):02d}" for p in ps]
    by_name = {}
    for p, name in zip(ps, names):
        by_name.setdefault(name, set()).add(p)
    clash = sorted(p for same in by_name.values() if len(same) > 1
                   for p in same)
    if clash:
        raise ValueError(
            f"percentiles {clash} share an output column name; request "
            f"percentiles at least 0.01 apart")

    def fn(batch: pa.Table) -> pa.Table:
        cols = {group_col: batch.column(group_col)}
        for f in features:
            col = f"{f}_digest"
            if col not in batch.column_names:
                continue
            blobs = batch.column(col).to_pylist()
            qs = np.full((len(blobs), len(ps)), np.nan)
            ns = np.zeros(len(blobs), dtype=np.int64)
            for i, blob in enumerate(blobs):
                if blob is None:
                    continue
                d = serde.from_bytes(bytes(blob))
                qs[i] = d.quantile(ps)
                ns[i] = d.count
            for j, name in enumerate(names):
                cols[f"{f}_{name}"] = pa.array(qs[:, j])
            cols[f"{f}_count"] = pa.array(ns)
        return pa.table(cols)

    return fn


def flagship(pages, compression: int = 100, from_html: bool = True,
             percentiles=DEFAULT_PERCENTILES):
    """pages Dataset/path -> per-language quantile summary table.

    A path is read in ``min(files, CPUs)`` read tasks — one per CPU, at
    most one per Parquet file — fused with the feature and partial-digest
    stages: each read task yields one partial digest per language (a task
    over Ray's 128 MiB block target still comes out in several blocks).
    On a 1-CPU cluster the whole input is one read task (one block while
    it stays under that target), so the rollup runs no coalesce level. A
    Dataset is used in the blocks it has: to split the input another way
    (many small files, or few huge files on a wide cluster, a case whose
    best split is unmeasured), pass a Dataset built with
    ``read_parquet(..., override_num_blocks=k)`` or ``repartition``; the
    partial-digest stage makes one digest per (block, language).

    Everything runs inside this call: the rollup's driver fold needs the
    stages' output, and the quantiles are projected from the folded table
    in the driver. The returned Dataset holds that one summary table."""
    if isinstance(pages, str):
        # Ray's own split is size-driven (at least 200 blocks, none under
        # 1 MiB): it cut a 12 MB, 4-file input into 24 blocks even at
        # 1 CPU, each paying a partial digest per language and shuffle
        # fixed costs. More read tasks than CPUs only queue, each with its
        # own dispatch round trip and partial block. pyarrow's listing is
        # the one Ray reads, skipping _- and .-prefixed names such as
        # _SUCCESS.
        cols = ["html", "lang"] if from_html else ["text", "lang"]
        files = pads.dataset(pages, format="parquet").files
        pages = ray.data.read_parquet(
            pages, columns=cols,
            override_num_blocks=min(len(files), common.cluster_cpus()))
    # the features follow from the input's columns, known without running
    # anything for a read: no limit(1) probe of the feature stage
    features = feature_names(pages.columns() or ())
    project = _quantile_columns(features, percentiles, "lang")
    table = grouped_digests_fast(prepare_features(pages, from_html=from_html),
                                 "lang", features, compression)
    return ray.data.from_arrow(project(table))
