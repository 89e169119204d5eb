"""Per-group TF-IDF-style top terms, exactly reproducible.

``tfidf_terms(ds, k)`` answers "which terms characterize each group
(language / domain / source)": for every ``(group, term)`` cell it
computes ``tf`` (total occurrences in the group), ``df`` (number of
DOCUMENTS in the whole corpus containing the term) and a relevance
score, then keeps the top-``k`` terms per group.

**Score choice** — the classic idf is ``log(N/df)``, but ``log`` is a
libm call whose last ulp differs between engines, so a log-scored
result can never bit-match a SQL oracle. The score here is ``tf / df``:
one IEEE-754 division, bit-identical in numpy and DuckDB, and for
ranking purposes order-equivalent to ``tf * (1/df)`` — monotone
increasing in tf and decreasing in df, which is the property tf-idf
ranking actually uses (for a FIXED corpus size N, ``log(N/df)`` and
``1/df`` induce the same ordering of df values). The exact-match oracle
(`paragraph_dedup`-style) is the point of the exercise; pass
``score="logidf"`` for the textbook ``tf * log(N/df)`` number (one
extra counting pass for N; float oracle parity is then off the table —
``log`` is a libm call whose last ulp differs between engines).

Scale shape:

* **Block pre-aggregation.** Each block tokenizes with the shared Arrow
  whitespace kernel (``utf8_split_whitespace``, empty tokens dropped —
  the same contract as decontam / stopword stats), dictionary-encodes,
  and emits one row per DISTINCT in-block ``(group, term)`` cell with
  partial tf and partial df (distinct docs in the block containing the
  term). The shuffle sees vocabulary-sized rows, never token streams.
* **One bounded-partition exchange keyed by term** finishes tf and df
  with reduceat sums — df must be keyed by term alone (corpus-wide
  document frequency), which is why the exchange partitions on term,
  then folds per-(term, group) cells inside each partition.
* **Lossless top-k prune**: each term-partition keeps only its own
  top-k per group (the global top-k is a subset of the union of
  per-partition top-ks), so the final group-keyed exchange moves at
  most ``partitions x groups x k`` rows.
* Null group values form their own group (SQL GROUP BY semantics)
  via a null-aware dictionary encode — any group dtype works; the
  group value is pure payload, so no sort-key sentinel is needed.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from tdigest_ray.stages.common import as_single_array
from tdigest_ray.stages.topn import _block_topn, _group_hash

__all__ = ["tfidf_terms"]


def _encode_group(col):
    """Dictionary-encode a group column with SQL null semantics: null
    values form their own group via one extra code past the dictionary
    (works for ANY group dtype — no string-sentinel detour needed
    because the group value only ever rides as payload here; the
    shuffle keys are the integer _part columns)."""
    enc = as_single_array(col).dictionary_encode()
    idx, values = enc.indices, enc.dictionary
    if idx.null_count:
        idx = pc.fill_null(idx, len(values))
        values = pa.concat_arrays([values, pa.nulls(1, values.type)])
    return idx.to_numpy(zero_copy_only=False).astype(np.int64), values


def _empty_cells(group_col: str, gtype: pa.DataType) -> pa.Table:
    return pa.table({
        group_col: pa.array([], gtype),
        "term": pa.array([], pa.string()),
        "tf": pa.array([], pa.int64()),
        "df": pa.array([], pa.int64()),
        "_part": pa.array([], pa.int64()),
    })


def tfidf_terms(ds, k: int = 10, text_col: str = "text",
                group_col: str = "lang", min_df: int = 1,
                num_partitions: int | None = None,
                score: str = "tf_over_df"):
    """Top-``k`` terms per ``group_col`` value ranked by ``score``
    (ties broken by term ascending). Returns a Dataset with columns
    ``(group_col, term, tf, df, score)``.

    ``score="tf_over_df"`` (default) is the bit-exact-oracle-able
    ranking score (module docstring); ``score="logidf"`` is the
    textbook ``tf * log(N / df)`` with ``N`` = corpus document count —
    it pays one extra counting pass over ``ds`` up front, and because
    the tf-vs-df tradeoff differs, its top-k may legitimately differ
    from the default's. The per-partition top-k prune ranks by the SAME
    selected score, so the prune stays lossless for either choice."""
    from tdigest_ray.sketches.hashing import hash64_utf8
    from tdigest_ray.stages.graph import auto_partitions

    if k < 1:
        raise ValueError("k must be >= 1")
    if min_df < 1:
        raise ValueError("min_df must be >= 1")
    if score not in ("tf_over_df", "logidf"):
        raise ValueError(f"unknown score {score!r}")
    n_docs = float(ds.count()) if score == "logidf" else None
    num_partitions = auto_partitions(num_partitions)

    def block_cells(batch: pa.Table) -> pa.Table:
        text = as_single_array(batch.column(text_col))
        n = len(text)
        tokens = pc.utf8_split_whitespace(text)
        counts0 = pc.fill_null(pc.list_value_length(tokens), 0).to_numpy(
            zero_copy_only=False).astype(np.int64)
        flat = tokens.flatten()
        if len(flat):
            keep = pc.greater(pc.utf8_length(flat), 0)
            keep_np = keep.to_numpy(zero_copy_only=False)
            doc_of = np.repeat(np.arange(n), counts0)
            if not keep_np.all():
                flat = flat.filter(keep)
                doc_of = doc_of[keep_np]
        if len(flat) == 0:
            return _empty_cells(group_col, batch.schema.field(group_col).type)
        tenc = flat.dictionary_encode()
        tcodes = tenc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        V = len(tenc.dictionary)
        lcodes, lvals = _encode_group(batch.column(group_col))
        L = len(lvals)
        # ONE token-length pass: distinct (doc, term) pairs WITH their
        # occurrence counts. The composite is doc-major — ascending up
        # to within-doc term order — so np.unique's sort runs near its
        # presorted fast path. Everything after this line works on the
        # distinct-pair array (~Heaps-law sized), not the token stream:
        # tf folds the pair counts into (group, term) cells and df
        # counts the pairs per cell (each doc has exactly one group),
        # both via O(cells) bincounts — no second token-length sort,
        # bincount, or gather (the r4-review profile showed those
        # dominating the stage).
        u_dt, cnt_dt = np.unique(doc_of * V + tcodes, return_counts=True)
        cell_of_dt = lcodes[u_dt // V] * V + (u_dt % V)
        if L * V <= (1 << 25):
            tf_c = np.bincount(cell_of_dt, weights=cnt_dt,
                               minlength=L * V)
            df_c = np.bincount(cell_of_dt, minlength=L * V)
            u_tl = np.flatnonzero(df_c)
            tf = tf_c[u_tl].astype(np.int64)
            df = df_c[u_tl].astype(np.int64)
        else:  # degenerate vocabulary x group blowup: fall back to sort
            u_tl = np.unique(cell_of_dt)
            pos = np.searchsorted(u_tl, cell_of_dt)
            tf = np.bincount(pos, weights=cnt_dt,
                             minlength=len(u_tl)).astype(np.int64)
            df = np.bincount(pos, minlength=len(u_tl)).astype(np.int64)
        term_arr = tenc.dictionary.take(pa.array(u_tl % V, pa.int64()))
        part = (hash64_utf8(term_arr)
                % np.uint64(num_partitions)).astype(np.int64)
        return pa.table({
            group_col: lvals.take(pa.array(u_tl // V, pa.int64())),
            "term": term_arr,
            "tf": pa.array(tf.astype(np.int64), pa.int64()),
            "df": pa.array(df.astype(np.int64), pa.int64()),
            "_part": pa.array(part, pa.int64()),
        })

    def reduce_terms(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            t = group.drop_columns(["_part"])
            return t.append_column(
                "score", pa.array([], pa.float64())).append_column(
                "_part2", pa.array([], pa.int64()))
        tenc = as_single_array(group.column("term")).dictionary_encode()
        tcodes = tenc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        lcodes, lvals = _encode_group(group.column(group_col))
        L = len(lvals)
        comp = tcodes * L + lcodes  # term-major: term runs are contiguous
        order = np.argsort(comp, kind="stable")
        comp_s = comp[order]
        tf_s = group.column("tf").to_numpy(zero_copy_only=False)[order]
        df_s = group.column("df").to_numpy(zero_copy_only=False)[order]
        first = np.concatenate([[True], comp_s[1:] != comp_s[:-1]])
        starts = np.flatnonzero(first)
        tf_cell = np.add.reduceat(tf_s, starts)
        df_cell = np.add.reduceat(df_s, starts)
        cell = comp_s[starts]
        cell_term = cell // L
        cell_lang = cell % L
        # corpus-wide df: sum the per-cell df over each term's run
        t_first = np.concatenate([[True], cell_term[1:] != cell_term[:-1]])
        t_starts = np.flatnonzero(t_first)
        t_lens = np.diff(np.append(t_starts, len(cell_term)))
        df_term = np.repeat(np.add.reduceat(df_cell, t_starts), t_lens)
        if min_df > 1:
            sel = df_term >= min_df
            cell_term, cell_lang = cell_term[sel], cell_lang[sel]
            tf_cell, df_term = tf_cell[sel], df_term[sel]
        if n_docs is None:
            scores = tf_cell.astype(np.float64) / df_term.astype(np.float64)
        else:
            scores = (tf_cell.astype(np.float64)
                      * np.log(n_docs / df_term.astype(np.float64)))
        tbl = pa.table({
            group_col: lvals.take(pa.array(cell_lang, pa.int64())),
            "term": tenc.dictionary.take(pa.array(cell_term, pa.int64())),
            "tf": pa.array(tf_cell.astype(np.int64), pa.int64()),
            "df": pa.array(df_term.astype(np.int64), pa.int64()),
            "score": pa.array(scores, pa.float64()),
        })
        # lossless prune: this partition's own top-k per group
        tbl = _block_topn(tbl, k, group_col, "score", "term",
                          ascending=False)
        part2 = (_group_hash(tbl.column(group_col))
                 % np.uint64(num_partitions)).astype(np.int64)
        return tbl.append_column("_part2", pa.array(part2, pa.int64()))

    def final_topk(group: pa.Table) -> pa.Table:
        return _block_topn(group.drop_columns(["_part2"]), k, group_col,
                           "score", "term", ascending=False)

    return (
        ds.map_batches(block_cells, batch_format="pyarrow",
                       batch_size=8192)
        .groupby("_part")
        .map_groups(reduce_terms, batch_format="pyarrow")
        .groupby("_part2")
        .map_groups(final_topk, batch_format="pyarrow")
    )
