"""Empty-BLOCK robustness: every pipeline entrypoint must return the
same answer whether or not the input dataset contains empty blocks.

At 100 TB empty blocks are routine — an upstream filter or a skewed
partitioner leaves whole blocks with zero rows — and Ray Data delivers
them to ``map_batches(batch_size=None)`` callbacks and groupby stages
verbatim. (Empty *datasets* are covered in test_robustness.py; this
file covers the scale-realistic interleaved case.)
"""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

from tdigest_ray.stages import dedup, multimodal, textstats
from tdigest_ray.functions import serde
from tdigest_ray.stages.partial import global_digest_tree, grouped_digests_fast
from tdigest_ray.stages.similarity import knn_brute_force, knn_ivf
from tdigest_ray.stages.windows import windowed_digests

TEXTS = [
    "the quick brown fox jumps over the lazy dog again and again",
    "pack my box with five dozen liquor jugs for the long trip",
    "the quick brown fox jumps over the lazy dog again and again",
    "sphinx of black quartz judge my vow said the old professor",
    "",
    None,
    "short text",
    "pack my box with five dozen liquor jugs for the long trek",
]


def _doc_tables():
    """The documents corpus split into blocks, with empty blocks and an
    all-null text block interleaved."""
    n = len(TEXTS)
    full = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(TEXTS, pa.string()),
        "lang": pa.array(["en", "fr", "en", "fr", "en", "fr", "en", "en"]),
        "ts": pa.array([1000 + 60 * i for i in range(n)], pa.int64()),
        "v": pa.array([float(i) * 1.5 for i in range(n)], pa.float64()),
    })
    empty = full.slice(0, 0)
    nulls = pa.table({
        "doc_id": pa.array([100, 101], pa.int64()),
        "text": pa.array([None, None], pa.string()),
        "lang": pa.array(["zz", "zz"]),
        "ts": pa.array([2000, 2060], pa.int64()),
        "v": pa.array([50.0, 51.0], pa.float64()),
    })
    sparse = [empty, full.slice(0, 3), empty, empty, full.slice(3, 3),
              nulls, full.slice(6, 2), empty]
    dense = [pa.concat_tables([full, nulls])]
    return sparse, dense


def _emb_tables():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(12, 8)).astype(np.float32)
    m[5] = m[2] + 0.01 * rng.normal(size=8).astype(np.float32)  # near-dup
    full = pa.table({
        "vec_id": pa.array(range(12), pa.int64()),
        "embedding": pa.array([row.tolist() for row in m],
                              pa.list_(pa.float32())),
    })
    empty = full.slice(0, 0)
    sparse = [empty, full.slice(0, 5), empty, full.slice(5, 7), empty]
    return sparse, [full], m


def _pairs(ds_or_table):
    df = (ds_or_table.to_pandas()
          if hasattr(ds_or_table, "to_pandas") else ds_or_table)
    if len(df) == 0:
        return []
    # block splits legitimately shift float results by ~1 ulp (different
    # summation order); round so only real divergence fails
    df = df.round(12)
    return sorted(map(tuple, df[sorted(df.columns)].itertuples(index=False)))


class TestEmptyBlocksText:
    def test_batch_fns_on_empty_table(self):
        # per-batch kernels take the empty block directly
        empty = _doc_tables()[0][0]
        for fn in (textstats.add_text_counts, textstats.add_quality_score,
                   textstats.add_bpe_token_count, textstats.add_lexical_stats,
                   textstats.add_repetition_stats, textstats.add_fingerprint):
            out = fn(empty)
            assert out.num_rows == 0, fn.__name__
        lid = textstats.LanguageId()
        assert lid(empty).num_rows == 0

    def test_vocab_by_group(self):
        sparse, dense = _doc_tables()
        a = _pairs(textstats.vocab_size_by_group(ray.data.from_arrow(sparse)))
        b = _pairs(textstats.vocab_size_by_group(ray.data.from_arrow(dense)))
        # zero-token groups (the all-null 'zz' block) are absent BY
        # DESIGN: the pinned oracle unnests tokens before grouping
        # (q_vocab_by_lang), so a lang with no tokens has no rows
        assert a == b and [g for g, _ in a] == ["en", "fr"]

    def test_windowed_digests(self):
        sparse, dense = _doc_tables()
        a = windowed_digests(ray.data.from_arrow(sparse), "ts", "v", 120)
        b = windowed_digests(ray.data.from_arrow(dense), "ts", "v", 120)
        pa_, pb = a.to_pandas(), b.to_pandas()
        assert sorted(pa_["window_start"]) == sorted(pb["window_start"])

    def test_grouped_digests_and_tree(self):
        sparse, dense = _doc_tables()
        a = grouped_digests_fast(ray.data.from_arrow(sparse), "lang", ["v"])
        b = grouped_digests_fast(ray.data.from_arrow(dense), "lang", ["v"])
        assert sorted(a.to_pandas()["lang"]) == sorted(b.to_pandas()["lang"])
        qa = serde.from_bytes(global_digest_tree(
            ray.data.from_arrow(sparse), "v")).quantile([0.5])
        qb = serde.from_bytes(global_digest_tree(
            ray.data.from_arrow(dense), "v")).quantile([0.5])
        assert qa == pytest.approx(qb)


class TestEmptyBlocksDedup:
    def test_exact_dedup(self):
        sparse, dense = _doc_tables()
        a = sorted(dedup.exact_dedup(
            ray.data.from_arrow(sparse)).to_pandas()["doc_id"])
        b = sorted(dedup.exact_dedup(
            ray.data.from_arrow(dense)).to_pandas()["doc_id"])
        assert a == b

    def test_exact_dedup_rows(self):
        sparse, dense = _doc_tables()
        a = sorted(dedup.exact_dedup_rows(
            ray.data.from_arrow(sparse)).to_pandas()["doc_id"])
        b = sorted(dedup.exact_dedup_rows(
            ray.data.from_arrow(dense)).to_pandas()["doc_id"])
        assert a == b

    def test_paragraph_dedup(self):
        from tdigest_ray.stages.paradedup import dedup_paragraphs

        sparse, dense = _doc_tables()

        def clean(tables, **kw):
            df = dedup_paragraphs(ray.data.from_arrow(tables), sep=" ",
                                  **kw).to_pandas()
            return sorted(map(tuple, df.fillna("<null>").values.tolist()))

        assert clean(sparse) == clean(dense)
        assert clean(sparse, broadcast_limit=0) == clean(dense)

    def test_tfidf_terms(self):
        from tdigest_ray.stages.tfidf import tfidf_terms

        sparse, dense = _doc_tables()

        def top(tables):
            df = tfidf_terms(ray.data.from_arrow(tables), k=3).to_pandas()
            return sorted(map(tuple, df.fillna("<null>").values.tolist()))

        assert top(sparse) == top(dense)

    def test_minhash_labels(self):
        sparse, dense = _doc_tables()
        la, _ = dedup.minhash_dedup(ray.data.from_arrow(sparse),
                                    threshold=0.4)
        lb, _ = dedup.minhash_dedup(ray.data.from_arrow(dense),
                                    threshold=0.4)
        assert la == lb
        assert la.get(2) == 0  # the exact dup pair must cluster

    def test_simhash_labels(self):
        sparse, dense = _doc_tables()
        la, pa_n = dedup.simhash_dedup(ray.data.from_arrow(sparse))
        lb, pb_n = dedup.simhash_dedup(ray.data.from_arrow(dense))
        assert la == lb and pa_n == pb_n

    def test_ngram_jaccard_pairs(self):
        sparse, dense = _doc_tables()
        a = _pairs(dedup.ngram_jaccard_pairs(ray.data.from_arrow(sparse),
                                             threshold=0.3))
        b = _pairs(dedup.ngram_jaccard_pairs(ray.data.from_arrow(dense),
                                             threshold=0.3))
        assert a == b and len(a) >= 2  # (0,2) exact, (1,7) near

    def test_embedding_lsh(self):
        sparse_e, dense_e, _ = _emb_tables()
        ca, na = dedup.embedding_lsh_neardup(
            ray.data.from_arrow(sparse_e), threshold=0.9)
        cb, nb = dedup.embedding_lsh_neardup(
            ray.data.from_arrow(dense_e), threshold=0.9)
        assert ca == cb and na == nb
        assert ca.get(5) == ca.get(2) is not None  # planted near-dup


class TestEmptyBlocksSimilarity:
    def test_knn_brute_force(self):
        sparse_e, dense_e, m = _emb_tables()
        q = m[:3].astype(np.float64)
        a = _pairs(knn_brute_force(ray.data.from_arrow(sparse_e), q, k=3))
        b = _pairs(knn_brute_force(ray.data.from_arrow(dense_e), q, k=3))
        assert a == b

    def test_knn_ivf(self):
        sparse_e, dense_e, m = _emb_tables()
        q = m[:2].astype(np.float64)
        a = _pairs(knn_ivf(ray.data.from_arrow(sparse_e), q, k=2, ncells=2,
                           nprobe=2))
        b = _pairs(knn_ivf(ray.data.from_arrow(dense_e), q, k=2, ncells=2,
                           nprobe=2))
        # IVF is deliberately float32 on the scan path (similarity.py: "the
        # IVF scale path stays float32 for memory"), so BLAS-blocked
        # summation legitimately shifts similarities by ~1 float32 ulp
        # (~1e-7) with block layout: ids/ranks must match exactly, scores
        # only within float32 tolerance.
        ids_a = [tuple(x for x in t if not isinstance(x, float)) for t in a]
        ids_b = [tuple(x for x in t if not isinstance(x, float)) for t in b]
        assert ids_a == ids_b
        sims_a = [x for t in a for x in t if isinstance(x, float)]
        sims_b = [x for t in b for x in t if isinstance(x, float)]
        np.testing.assert_allclose(sims_a, sims_b, rtol=1e-5, atol=1e-6)


class TestEmptyBlocksMultimodal:
    def test_decode_stages_empty_batch(self):
        empty = pa.table({
            "media_id": pa.array([], pa.int64()),
            "payload": pa.array([], pa.binary()),
            "format": pa.array([], pa.string()),
        })
        for cls in (multimodal.DecodeImageStage, multimodal.ResizeImageStage):
            stage = cls()
            out = stage(empty)
            assert out.num_rows == 0, cls.__name__
        audio = pa.table({
            "media_id": pa.array([], pa.int64()),
            "payload": pa.array([], pa.binary()),
        })
        assert multimodal.DecodeAudioStage()(audio).num_rows == 0
