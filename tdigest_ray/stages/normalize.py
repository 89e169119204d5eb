"""Sketch-driven feature normalization: map a numeric column to its
rank (ECDF value) in the column's own distribution, per group, WITHOUT
a global sort.

Exact percentile-rank normalization of a 10^12-row column needs an
all-to-all sort; the sketch route needs two streaming passes: (1) the
library's own mergeable t-digest aggregate builds one ~1 kB digest per
group, (2) the digests (driver state = #groups x 1 kB) are broadcast
once via ``ray.put`` and every batch evaluates the vectorized inverse
quantile (`TDigest.cdf`) row-locally. Rank error follows the published
t-digest bound (tight at the tails) — the same contract as
``tdigest_percentile_of``, now as a column transform.

This is the standard shape for sketch-backed feature scaling /
outlier-rank features in training pipelines; it composes with
``write_parquet`` and never materializes or shuffles the data column.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from tdigest_ray.functions.serde import from_bytes
from tdigest_ray.stages.partial import global_digest_tree, grouped_digests_fast


def group_digests(ds, value_col: str, group_col: str | None = None,
                  compression: int = 100) -> dict:
    """{group (or None): wire-format digest bytes, or None for a group
    with no non-null value} — one small driver-side dict, never the
    data. Built by the library's one rollup,
    ``partial.grouped_digests_fast`` (``global_digest_tree`` with no
    group): a null group value is one group of its own under key
    ``None``."""
    if group_col is None:
        return {None: global_digest_tree(ds, value_col, compression)}
    out = grouped_digests_fast(ds, group_col, [value_col], compression)
    return dict(zip(out.column(group_col).to_pylist(),
                    out.column(f"{value_col}_digest").to_pylist()))


def rank_normalize(ds, value_col: str, group_col: str | None = None,
                   compression: int = 100, out_col: str = "rank"):
    """Append ``out_col`` = estimated ECDF rank of ``value_col`` within
    its group's distribution (in [0, 1]; NaN for null values or rows
    whose group produced no digest). A null group value is its own
    group, same as the grouped merge that built the digests."""
    digests = group_digests(ds, value_col, group_col, compression)
    blob_ref = ray.put(digests)

    def add_rank(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column(out_col, pa.array([], pa.float64()))
        blobs = ray.get(blob_ref)
        # deserialize once per batch per present group (digests are ~1 kB;
        # a worker-side cache would be premature vs the batch's work)
        vals = batch.column(value_col).to_numpy(zero_copy_only=False)
        out = np.full(batch.num_rows, np.nan, np.float64)
        if group_col is None:
            ok = ~pc.is_null(batch.column(value_col)).to_numpy(
                zero_copy_only=False)
            if blobs[None] is not None and ok.any():
                out[ok] = from_bytes(blobs[None]).cdf(
                    vals[ok].astype(np.float64))
        else:
            # dictionary-encode the group column: Python work is per
            # DISTINCT group in the batch, never per row. Null group
            # values are their own group (the groupby built a digest
            # under key None for them) — nulls live in the INDICES, so
            # route them to one extra code past the dictionary.
            gcol = batch.column(group_col)
            if isinstance(gcol, pa.ChunkedArray):
                gcol = gcol.combine_chunks()
            denc = gcol.dictionary_encode()
            groups = denc.dictionary.to_pylist()
            codes = denc.indices.fill_null(len(groups)).to_numpy(
                zero_copy_only=False).astype(np.int64)
            groups.append(None)
            for j, k in enumerate(groups):
                blob = blobs.get(k)
                if blob is None:
                    continue
                d = from_bytes(blob)
                ix = np.flatnonzero(codes == j)
                v = vals[ix].astype(np.float64)
                good = ~np.isnan(v)
                res = np.full(len(ix), np.nan)
                if good.any():
                    res[good] = d.cdf(v[good])
                out[ix] = res
        return batch.append_column(out_col, pa.array(out, pa.float64()))

    return ds.map_batches(add_rank, batch_format="pyarrow")
