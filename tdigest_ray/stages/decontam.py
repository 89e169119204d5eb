"""Benchmark decontamination: flag / drop corpus documents that share
word n-grams with an evaluation ("benchmark") set.

The standard guard in training-data pipelines: before training, any
document containing an n-gram that also appears in a held-out benchmark
is removed so the benchmark stays uncontaminated. Reuses the dedup
module's shingling (`_distinct_gram_rows`: Arrow whitespace split,
dictionary-encoded token hashes, position-weighted k-gram
combine — no shingle strings, no per-row Python).

Scale shape — this is a broadcast semi-join, never a shuffle:

* The benchmark side is SMALL by construction (eval suites are 10^3-10^6
  documents vs the 10^12-document corpus; that asymmetry is the whole
  point). Its distinct gram-hash set is reduced distributedly
  (per-block distinct, union'd driver-side — the driver only ever holds
  distinct hashes, ~8 B per distinct benchmark gram) and broadcast ONCE
  via ``ray.put``; every corpus task does one ``searchsorted`` probe per
  batch. No corpus text ever leaves its block.
* When even the distinct gram set is too big to broadcast (say a 10 GB
  mega-benchmark), ``bloom_fpr`` swaps the sorted-array membership for a
  fixed-size Bloom filter built from the same hashes. False positives
  only ever OVER-remove training documents (never leak contamination),
  which is the safe direction; the rate is the documented knob.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from tdigest_ray.sketches.bloom import BloomFilter
from tdigest_ray.stages.dedup import _distinct_gram_rows


def benchmark_gram_set(bench_ds, k: int = 3, text_col: str = "text",
                       bloom_fpr: float | None = None):
    """Distinct shingle hashes of the benchmark corpus.

    Returns a sorted ``uint64`` array ready for ``ray.put`` broadcast, or
    (with ``bloom_fpr``) a :class:`BloomFilter` over the same hashes whose
    memory is set by the capacity/fpr formula instead of the vocabulary.

    The per-block distinct runs inside ``map_batches`` so only distinct
    hashes (8 B each) travel to the driver; the final cross-block union
    is one ``np.unique`` over those.
    """
    def block_grams(batch: pa.Table) -> pa.Table:
        _, g, _ = _distinct_gram_rows(batch.column(text_col), k)
        return pa.table({"_gram": pa.array(np.unique(g).view(np.int64),
                                           pa.int64())})

    parts = [
        b.column("_gram").to_numpy(zero_copy_only=False)
        for b in bench_ds.map_batches(
            block_grams, batch_format="pyarrow").iter_batches(
                batch_size=None, batch_format="pyarrow")
    ]
    flat = (np.concatenate(parts).view(np.uint64) if parts
            else np.empty(0, np.uint64))
    grams = np.unique(flat)
    if bloom_fpr is None:
        return grams
    bf = BloomFilter.from_capacity(max(len(grams), 1), fpr=bloom_fpr)
    if len(grams):
        bf.update(grams)  # uint64 input = pre-hashed, used as-is
    return bf


def _membership(g: np.ndarray, bench) -> np.ndarray:
    """Boolean membership of gram hashes ``g`` in the benchmark set
    (sorted uint64 array or BloomFilter)."""
    if isinstance(bench, BloomFilter):
        if len(g) == 0:
            return np.zeros(0, dtype=bool)
        return bench.contains(g)
    if len(bench) == 0 or len(g) == 0:
        return np.zeros(len(g), dtype=bool)
    idx = np.searchsorted(bench, g)
    idx[idx == len(bench)] = 0
    return bench[idx] == g


def contamination_stats(ds, bench, k: int = 3, text_col: str = "text",
                        id_col: str = "doc_id",
                        carry_cols: tuple = ()):
    """Per-document contamination stats against a benchmark gram set.

    Returns a Dataset with ``(id_col, *carry_cols, n_grams, n_hits,
    contaminated)`` — ``n_grams`` the document's DISTINCT k-gram count,
    ``n_hits`` how many of those also occur in the benchmark,
    ``contaminated`` = ``n_hits > 0``. ``bench`` is the return of
    :func:`benchmark_gram_set` (array or BloomFilter; broadcast once).
    """
    bench_ref = ray.put(bench)

    def stats(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col)
        d, g, doc_n = _distinct_gram_rows(batch.column(text_col), k)
        hits = _membership(g, ray.get(bench_ref))
        n_hits = np.bincount(d[hits], minlength=len(ids)).astype(np.int64)
        cols = {id_col: ids}
        for c in carry_cols:
            cols[c] = batch.column(c)
        cols["n_grams"] = pa.array(doc_n, pa.int64())
        cols["n_hits"] = pa.array(n_hits, pa.int64())
        cols["contaminated"] = pa.array(n_hits > 0)
        return pa.table(cols)

    return ds.map_batches(stats, batch_format="pyarrow")


def decontaminate(ds, bench, k: int = 3, text_col: str = "text",
                  max_hits: int = 0):
    """Drop documents sharing more than ``max_hits`` distinct k-grams
    with the benchmark (default 0: any overlap removes the document).

    Pure block-local filter over the broadcast gram set — all corpus
    columns pass through untouched, nothing shuffles, and the output
    streams (compose with ``write_parquet`` for the resumable path).
    """
    bench_ref = ray.put(bench)

    def filt(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        d, g, _ = _distinct_gram_rows(batch.column(text_col), k)
        hits = _membership(g, ray.get(bench_ref))
        n_hits = np.bincount(d[hits], minlength=batch.num_rows)
        return batch.filter(pa.array(n_hits <= max_hits))

    return ds.map_batches(filt, batch_format="pyarrow")
