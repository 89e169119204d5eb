"""The flagship pipeline: Common-Crawl-style pages -> per-language feature
digests -> quantile answers.

Ray translation of the reference's pre-aggregation rollup
(README.md:104-155, SURVEY.md §3.2):

1. column-pruned ``read_parquet`` (html/text/lang only — never carry page
   payloads past feature extraction), one read task per CPU and at most
   one per file,
2. ``map_batches`` feature extraction (zero-copy Arrow kernels),
3. grouped sketch aggregation (``stages.partial.grouped_digests_fast``):
   one partial digest per (block, lang), folded once in the driver; only
   when there are more than ``min(CPUs, 64)`` partial blocks are they
   first coalesced to that many and folded per block — only compact
   digest states move, and nothing sorts by key,
4. finalize projections (quantiles / ranks / trimmed moments per group).

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


def _checked_features(schema, features) -> list:
    """The requested features present in ``schema`` — all of them when the
    schema is unknown (a dataset filtered to nothing). Refuses a request
    that names no existing column."""
    if schema is None:
        return list(features)
    present = [f for f in features if f in schema.names]
    if not present:
        raise ValueError(
            f"none of the requested features {tuple(features)} exist in "
            f"the dataset schema {tuple(schema.names)}")
    return present


def _empty_digests(schema, group_col: str, features) -> pa.Table:
    """The 0-row grouped result: ``<group_col>`` (null-typed when
    ``schema`` is unknown or lacks it) plus one binary
    ``<feature>_digest`` per feature."""
    gtype = (schema.types[schema.names.index(group_col)]
             if schema is not None and group_col in schema.names
             else pa.null())
    cols = {group_col: pa.array([], gtype)}
    cols.update({f"{f}_digest": pa.array([], pa.binary()) for f in features})
    return pa.table(cols)


def grouped_digests(ds, group_col: str = "lang",
                    features=DEFAULT_FEATURES, compression: int = 100):
    """One digest column per feature, grouped — `tdigest(v, c) GROUP BY lang`.

    Uses the vectorized per-block partial stage and its fold tree
    (``stages.partial.grouped_digests_fast``): the merges only ever see
    #blocks x #keys partial digest rows, so CPU/row stays flat as blocks
    grow (Ray's built-in grouped aggregate walks block rows in Python to
    find group boundaries)."""
    from tdigest_ray.stages.partial import grouped_digests_fast

    schema = ds.schema()
    present = _checked_features(schema, features)
    if schema is None:  # no rows: the key keeps the source's type
        return ray.data.from_arrow(_empty_digests(
            common.source_schema(ds), group_col, present))
    return grouped_digests_fast(ds, group_col, present, compression)


def grouped_digests_table(ds, group_col: str = "lang",
                          features=DEFAULT_FEATURES,
                          compression: int = 100):
    """Per-FILE finisher for checkpointed runs: map-side partials plus
    ONE driver-side fold of the partial blocks
    (``partial.merge_partial_digest_table``) — returns a ``pa.Table``
    with the same schema as :func:`grouped_digests`.

    A per-file pipeline's wall time is dominated by fixed costs, not by
    work (#blocks x #groups partial rows for one file is a few dozen
    rows): :func:`grouped_digests`' coalesce and per-block fold level
    are skipped for the driver fold, and an input that yields rows
    executes once — ``ds`` is not probed for its schema (a
    ``map_batches`` output's schema is unknown until it runs, so a probe
    is a hidden ``limit(1)`` re-run); the requested features are checked
    against the partial blocks that come back. An input that yields no
    rows, or none of the features, runs a second time: ``ds.schema()``
    types the empty result or names the columns in the error. Use
    :func:`grouped_digests` for corpus-sized datasets, where the
    per-block fold level is the right shape."""
    from tdigest_ray.stages.partial import (make_partial_digest_fn,
                                            merge_partial_digest_table)

    def partial_fn(batch: pa.Table) -> pa.Table:
        present = [f for f in features if f in batch.column_names]
        return make_partial_digest_fn([group_col], present,
                                      compression)(batch)

    tables = common.block_tables(ds.map_batches(
        partial_fn, batch_format="pyarrow", batch_size=None))
    if not tables:
        schema = ds.schema()
        return _empty_digests(schema or common.source_schema(ds), group_col,
                              _checked_features(schema, features))
    # every block comes out of one partial_fn over one read's columns
    present = [f for f in features
               if f"{f}_digest" in tables[0].column_names]
    if not present:
        _checked_features(ds.schema(), features)  # raises, naming the columns
    return merge_partial_digest_table(tables, [group_col], present)


def finalize_quantiles(digest_table, features=DEFAULT_FEATURES,
                       percentiles=DEFAULT_PERCENTILES,
                       group_col: str = "lang"):
    """Project quantiles out of a grouped digest table (the ~1.5 ms
    'query the summary table' step of README.md:131-133, as map_batches)."""
    return digest_table.map_batches(
        _quantile_columns(features, percentiles, group_col),
        batch_format="pyarrow")


def _quantile_columns(features, percentiles, group_col: str):
    """The per-batch projection of :func:`finalize_quantiles`."""
    ps = list(percentiles)

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
            for j, p in enumerate(ps):
                # round, not truncate: int(0.29 * 100) == 28
                cols[f"{f}_p{int(round(p * 100)):02d}"] = pa.array(qs[:, j])
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

    The read, feature and digest stages run inside this call (the
    rollup's driver fold needs their output); the returned Dataset is the
    digest table plus the lazy finalize map."""
    from tdigest_ray.stages.partial import grouped_digests_fast

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
    feats = prepare_features(pages, from_html=from_html)
    digests = grouped_digests_fast(feats, "lang", features, compression)
    if digests.count():  # one in-memory block: counting it runs nothing
        return finalize_quantiles(digests, features=features,
                                  percentiles=percentiles)
    # Ray runs no map UDF on no rows: project the empty table here, so the
    # answer keeps its columns and the key its type
    empty = digests.schema().base_schema.empty_table()
    return ray.data.from_arrow(
        _quantile_columns(features, percentiles, "lang")(empty))
