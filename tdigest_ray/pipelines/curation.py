"""The canonical training-data curation pipeline, composed from the
engine's stages: quality filter -> exact dedup (full rows) -> optional
near-dup labeling -> per-language summary / partitioned output.

This is the "switch your pipeline to this repo" composition a
large-scale LLM-data user actually runs (cf. the public C4/Gopher/
RefinedWeb recipes): cheap local filters first (they shrink the corpus
before anything shuffles), then the one unavoidable text shuffle for
exact dedup, then sketch summaries whose merge moves only digests.
Every stage is a Dataset transform — the streaming executor pipelines
them with backpressure, and nothing corpus-sized lands on the driver.

Scale notes per stage:

1. ``add_text_counts`` + integer-exact predicates: Arrow kernels, local.
2. :func:`~tdigest_ray.stages.dedup.exact_dedup_rows`: one hash-partition
   exchange of the surviving text (block-local pre-reduce shrinks it by
   the in-block dup rate first).
3. Optional MinHash near-dup LABELS (id-only band shuffle + co-group
   verification); callers join/filter on the label table downstream.
4. Summaries via the partial-digest fold tree (digest-sized traffic).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def quality_mask(batch: pa.Table, min_tokens: int = 5,
                 max_tokens: int = 500,
                 max_punct_pct: int = 10) -> "pa.Array":
    """Integer-exact quality predicate over ``add_text_counts`` columns
    (SQL-parity: the DuckDB oracle reproduces it exactly)."""
    keep = pc.and_(
        pc.and_(
            pc.greater_equal(batch.column("n_tokens"), min_tokens),
            pc.less_equal(batch.column("n_tokens"), max_tokens),
        ),
        pc.less(pc.multiply(batch.column("n_punct"), 100),
                pc.multiply(batch.column("n_chars_t"), max_punct_pct)),
    )
    return keep


def curate(ds, text_col: str = "text", id_col: str = "doc_id",
           min_tokens: int = 5, max_tokens: int = 500,
           max_punct_pct: int = 10,
           num_partitions: int | None = None):
    """Quality-filter then exact-dedup a documents Dataset, returning the
    surviving rows (original columns only). Filter-before-dedup: the
    filter is local and shrinks the one text shuffle the dedup needs."""
    from tdigest_ray.stages.dedup import exact_dedup_rows
    from tdigest_ray.stages.textstats import add_text_counts

    def filt(batch: pa.Table) -> pa.Table:
        cols = batch.column_names
        counted = add_text_counts(batch, text_col=text_col)
        return counted.filter(quality_mask(
            counted, min_tokens, max_tokens, max_punct_pct)).select(cols)

    filtered = ds.map_batches(filt, batch_format="pyarrow")
    return exact_dedup_rows(filtered, text_col=text_col, id_col=id_col,
                            num_partitions=num_partitions)
