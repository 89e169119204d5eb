"""Stage tests: feature extraction, text stats, dedup, similarity,
multimodal plumbing."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray
from hypothesis import given, settings, strategies as st

from tdigest_ray.stages import dedup, features, multimodal, similarity, textstats


def doc_table(texts, ids=None, langs=None):
    n = len(texts)
    return pa.table(
        {
            "doc_id": pa.array(ids or list(range(n)), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs or ["en"] * n, pa.string()),
        }
    )


class TestFeatures:
    def test_extract_text_inverse_of_template(self):
        texts = ["hello world", "", "日本語のテキスト", "a" * 500]
        tbl = pa.table(
            {
                "html": pa.array(
                    [features.HTML_PREFIX + t.encode() + features.HTML_SUFFIX
                     for t in texts],
                    pa.binary(),
                )
            }
        )
        out = features.extract_text(tbl)
        assert out.column("extracted_text").to_pylist() == texts

    def test_add_features_counts(self):
        tbl = doc_table(["a b c", "one", ""])
        out = features.add_features(tbl, html_col=None)
        assert out.column("text_len").to_pylist() == [5, 3, 0]
        assert out.column("token_count").to_pylist() == [3, 1, 1]

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.one_of(
               st.none(),
               st.text(alphabet=st.sampled_from([" ", "a", "é", "語", "\x00"]),
                       max_size=6)), max_size=12),
           cuts=st.lists(st.integers(0, 12), max_size=3),
           large=st.booleans(), start=st.integers(0, 12),
           stop=st.integers(0, 12))
    def test_token_count_matches_count_substring(self, rows, cuts, large,
                                                 start, stop):
        """The byte-buffer token count equals ``count_substring(" ") + 1``
        over nulls, "", multi-byte characters, NUL bytes and runs of
        spaces, on sliced, chunked, string and large_string input."""
        typ = pa.large_string() if large else pa.string()
        arr = pa.array(rows, typ).slice(start, stop)
        bounds = [0, *sorted(min(c, len(arr)) for c in cuts), len(arr)]
        col = pa.chunked_array(
            [arr.slice(a, b - a) for a, b in zip(bounds, bounds[1:])], typ)
        out = features.add_features(pa.table({"text": col}), html_col=None)
        want = pc.add(pc.count_substring(col, " "), 1).cast(pa.int64())
        got = out.column("token_count")
        assert got.type == pa.int64()
        assert got.to_pylist() == want.to_pylist()

    def test_feature_names_are_the_appended_columns(self):
        tbl = doc_table(["a b c", "one"])
        with_html = tbl.append_column("html", pa.array([b"x", b"yz"]))
        for t, html_col in ((tbl, "html"), (tbl, None), (with_html, "html"),
                            (with_html, None)):
            out = features.add_features(t, html_col=html_col)
            assert (features.feature_names(t.column_names, html_col)
                    == out.column_names[t.num_columns:])


class TestTextStats:
    def test_counts(self):
        tbl = doc_table(["Hello, World! 42", "no punct here"])
        out = textstats.add_text_counts(tbl)
        assert out.column("n_punct").to_pylist() == [2, 0]
        assert out.column("n_upper").to_pylist() == [2, 0]
        assert out.column("n_digit").to_pylist() == [2, 0]
        assert out.column("n_tokens").to_pylist() == [3, 3]

    @settings(max_examples=60, deadline=None)
    @given(texts=st.lists(st.one_of(
               st.none(), st.just(""), st.just(" "),
               st.text(st.sampled_from(list("ab é日本 \t\u00a0")),
                       max_size=12)), min_size=1, max_size=30),
           cuts=st.lists(st.integers(0, 30), max_size=3),
           offset=st.integers(0, 3), large=st.booleans())
    def test_token_counts_match_count_substring(self, texts, cuts, offset,
                                                large):
        # n_tokens and the quality score are those of the substring count
        # they replace, over nulls, "", multi-byte text, chunks and slices
        typ = pa.large_string() if large else pa.string()
        bounds = sorted({0, len(texts), *(c for c in cuts if c < len(texts))})
        col = pa.chunked_array([pa.array(texts[a:b], typ)
                                for a, b in zip(bounds, bounds[1:])], typ)
        n = len(texts)
        tbl = pa.table({"text": col, "doc_id": pa.array(range(n))})
        tbl = tbl.slice(min(offset, n))
        got = (textstats.add_text_counts(tbl).column("n_tokens"),
               textstats.add_quality_score(tbl).column("quality_score"))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(textstats, "token_counts",
                      lambda t: pc.add(pc.count_substring(t, " "), 1))
            want = (textstats.add_text_counts(tbl).column("n_tokens"),
                    textstats.add_quality_score(tbl).column("quality_score"))
        assert got[0].type == pa.int64()
        assert got[0].to_pylist() == want[0].to_pylist()
        assert (np.asarray(got[1].to_pylist(), float).tobytes()
                == np.asarray(want[1].to_pylist(), float).tobytes())

    def test_quality_score_range_and_order(self):
        good = "the cat sat on the mat and then it ran to the door again"
        bad = "zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz"
        out = textstats.add_quality_score(doc_table([good, bad]))
        scores = out.column("quality_score").to_pylist()
        assert 0.0 <= scores[1] < scores[0] <= 1.0

    def test_langid(self):
        samples = {
            "en": "the cat is in the house and it is warm",
            "de": "der hund ist nicht in das haus und die katze",
            "fr": "le chat est dans la maison avec les chiens",
            "ru": "кошка в доме и не хочет выходить на улицу",
            "zh": "我的猫在家里不想出去因为外面很冷",
        }
        stage = textstats.LanguageId()
        out = stage(doc_table(list(samples.values())))
        assert out.column("lang_pred").to_pylist() == list(samples)

    def test_fingerprint_equality_iff_text_equality(self):
        tbl = doc_table(["abc", "abd", "abc"])
        out = textstats.add_fingerprint(tbl)
        fp = out.column("fingerprint").to_pylist()
        assert fp[0] == fp[2] and fp[0] != fp[1]

    def test_stopword_stats_python_oracle(self):
        texts = ["the cat sat on a mat", "", "zz qq", None,
                 "the the the", "  a  to\tof\nthe  "]
        out = textstats.add_stopword_stats(
            pa.table({"text": pa.array(texts, pa.string())}))
        stops = set(textstats._EN_STOPWORDS)
        want_tot = [len((t or "").split()) for t in texts]
        want_sw = [sum(w in stops for w in (t or "").split()) for t in texts]
        assert out.column("total_tokens_sw").to_pylist() == want_tot
        assert out.column("stopword_tokens").to_pylist() == want_sw

    def test_pii_counts_and_scrub(self):
        from tdigest_ray.stages import parsers

        texts = [
            "mail me at bob.smith+x@sub.example.org today",
            "call 555-123-4567 or 555.987.6543",
            "host 192.168.1.1 and 10.0.0.255 up",
            "no pii here",
            "a@b.co 1-123-4567",  # second: \\b\\d{3} needs 3 digits -> 0
        ]
        tbl = parsers.add_pii_counts(
            pa.table({"text": pa.array(texts, pa.string())}))
        assert tbl.column("n_pii_email").to_pylist() == [1, 0, 0, 0, 1]
        assert tbl.column("n_pii_phone").to_pylist() == [0, 2, 0, 0, 0]
        assert tbl.column("n_pii_ipv4").to_pylist() == [0, 0, 2, 0, 0]
        scrubbed = parsers.scrub_pii(tbl).column("text").to_pylist()
        assert scrubbed[0] == "mail me at <EMAIL> today"
        assert scrubbed[1] == "call <PHONE> or <PHONE>"
        assert scrubbed[2] == "host <IPV4> and <IPV4> up"
        assert scrubbed[3] == "no pii here"
        import re

        for kind, pat in parsers.PII_PATTERNS.items():
            assert not any(re.search(pat, s) for s in scrubbed), kind


class TestDedup:
    def test_minhash_signatures_similarity(self):
        a = "the quick brown fox jumps over the lazy dog " * 5
        b = a.replace("lazy", "sleepy")  # near-duplicate
        c = "completely different text about ray data pipelines " * 5
        sig = dedup.minhash_signatures([a, b, c], num_perm=128)
        sim_ab = (sig[0] == sig[1]).mean()
        sim_ac = (sig[0] == sig[2]).mean()
        # true jaccard(a,b) = 0.5 here (repeated text collapses shingles)
        assert 0.3 < sim_ab < 0.7
        assert sim_ac < 0.2

    def test_simhash_hamming(self):
        a = "the quick brown fox jumps over the lazy dog " * 10
        b = a.replace("dog", "cat")
        c = "zebra lion giraffe elephant hippo rhino " * 10
        sig = dedup.simhash_signatures([a, b, c])
        d_ab = dedup.hamming_distance(sig[:1], sig[1:2])[0]
        d_ac = dedup.hamming_distance(sig[:1], sig[2:3])[0]
        assert d_ab < d_ac
        assert d_ab <= 10

    def test_empty_doc_simhash_pinned(self):
        # a document without tokens keeps the signature it had when the
        # "oph-fasthash64-v1" stores were written: pandas' hash of ""
        from pandas.util import hash_array

        assert dedup._EMPTY_DOC_SIMHASH == np.uint64(1760245841805064774)
        assert dedup._EMPTY_DOC_SIMHASH == hash_array(
            np.asarray([""], dtype=object))[0]
        sig = dedup.simhash_signatures(["", "   ", "some words here"])
        assert (sig[:2] == dedup._EMPTY_DOC_SIMHASH).all()
        assert sig[2] != dedup._EMPTY_DOC_SIMHASH

    def test_oph_estimator_matches_kperm(self):
        # OPH (one hash pass) and the k-permutation variant estimate the
        # same jaccard within MinHash sampling variance (~1/sqrt(128))
        rng = np.random.default_rng(7)
        words = [f"w{i}" for i in range(300)]
        a = " ".join(words)
        b_words = list(words)
        for j in range(60):  # ~20% token replacement
            b_words[rng.integers(0, len(b_words))] = f"x{j}"
        b = " ".join(b_words)
        exact = dedup.ngram_jaccard(a, b)
        for fn in (dedup.minhash_signatures, dedup.minhash_signatures_oph):
            sig = fn([a, b], 128)
            est = (sig[0] == sig[1]).mean()
            assert abs(est - exact) < 0.12, (fn.__name__, est, exact)

    def test_oph_identical_docs_match_fully(self):
        sig = dedup.minhash_signatures_oph(["same text here"] * 2 + ["other"])
        assert (sig[0] == sig[1]).all()
        assert (sig[0] == sig[2]).mean() < 0.2

    def test_ngram_jaccard(self):
        assert dedup.ngram_jaccard("a b c d", "a b c d") == 1.0
        assert dedup.ngram_jaccard("a b c d", "x y z w") == 0.0

    def test_expand_run_pairs_noncontiguous(self):
        # filtered runs are NOT contiguous in the source array; the
        # expansion must emit absolute indices (regression: a compacted
        # arange against absolute starts exploded the pair counts)
        starts = np.array([2, 7], dtype=np.int64)
        lens = np.array([3, 2], dtype=np.int64)
        left, right = dedup._expand_run_pairs(starts, lens)
        assert list(zip(left.tolist(), right.tolist())) == [
            (2, 3), (2, 4), (3, 4), (7, 8)]
        l0, r0 = dedup._expand_run_pairs(
            np.empty(0, np.int64), np.empty(0, np.int64))
        assert len(l0) == 0 and len(r0) == 0

    def test_ngram_jaccard_pairs_matches_pairwise_oracle(self):
        # distributed inverted-index join == per-pair exact helper over
        # a corpus with planted near-dups, short docs, empties and nulls
        rng = np.random.default_rng(11)
        words = [f"w{i}" for i in range(60)]
        texts = []
        for i in range(20):
            toks = rng.choice(words, size=30).tolist()
            texts.append(" ".join(toks))
            mut = list(toks)
            mut[int(rng.integers(0, 30))] = "zz"
            texts.append(" ".join(mut))  # near-dup of the previous doc
        texts += ["tiny doc", "tiny doc", "", None]
        ds = ray.data.from_arrow(doc_table(texts))
        got = (dedup.ngram_jaccard_pairs(ds, threshold=0.3)
               .to_pandas().sort_values(["doc_a", "doc_b"])
               .reset_index(drop=True))
        expect = {}
        for a in range(len(texts)):
            for b in range(a + 1, len(texts)):
                j = dedup.ngram_jaccard(texts[a] or "", texts[b] or "")
                if j >= 0.3:
                    expect[(a, b)] = j
        assert (set(zip(got["doc_a"], got["doc_b"]))
                == set(expect)), "pair set mismatch"
        for _, row in got.iterrows():
            assert row["jaccard"] == expect[
                (row["doc_a"], row["doc_b"])]
            assert row["n_inter"] / row["n_union"] == row["jaccard"]
        # planted near-dups (one-token mutation) must all be found
        planted = {(2 * i, 2 * i + 1) for i in range(20)}
        assert planted <= set(zip(got["doc_a"], got["doc_b"]))
        # identical short docs and the ''/null pair share whole-text
        # fallback grams ('' reading for null)
        assert expect[(40, 41)] == 1.0
        assert (42, 43) in expect

    def test_ngram_jaccard_pairs_max_df(self):
        # a gram present in more docs than max_df is excluded from the
        # join, so docs sharing ONLY a stop-gram produce no pair
        shared = "alpha beta gamma"
        texts = [f"{shared} unique{i} tail{i} end{i}" for i in range(6)]
        ds = ray.data.from_arrow(doc_table(texts))
        full = dedup.ngram_jaccard_pairs(ds, threshold=0.01).to_pandas()
        assert len(full) == 15  # all pairs share the stop-gram
        cut = dedup.ngram_jaccard_pairs(
            ds, threshold=0.01, max_df=3).to_pandas()
        assert len(cut) == 0

    def test_ngram_jaccard_pairs_blowup_tripwire(self):
        # a template corpus (every doc shares the same grams) must raise
        # an actionable error instead of expanding quadratically
        texts = ["common words shared everywhere always"] * 40
        ds = ray.data.from_arrow(doc_table(texts))
        with pytest.raises(ray.exceptions.RayTaskError) as ei:
            dedup.ngram_jaccard_pairs(ds, max_candidate_pairs=100).count()
        assert "max_df" in str(ei.value)
        # same corpus with the cut (or a raised cap) completes
        assert dedup.ngram_jaccard_pairs(
            ds, max_df=10, max_candidate_pairs=100).count() == 0
        assert dedup.ngram_jaccard_pairs(
            ds, max_candidate_pairs=None).count() == 40 * 39 // 2

    def test_ngram_jaccard_pairs_duplicate_ids_no_self_pairs(self):
        # duplicate doc_id rows must never produce a (d, d) self-pair;
        # cross-pairs between the duplicate rows still surface them
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([7, 7, 9], pa.int64()),
            "text": pa.array(["one two three four", "one two three four",
                              "five six seven eight"]),
        }))
        out = dedup.ngram_jaccard_pairs(ds, threshold=0.01).to_pandas()
        assert len(out) == 0  # 7 vs 9 disjoint; (7,7) self-pair filtered
        # overlapping distinct-id docs still pair
        ds2 = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([7, 7, 9], pa.int64()),
            "text": pa.array(["one two three four", "one two three four",
                              "one two three nine"]),
        }))
        out2 = dedup.ngram_jaccard_pairs(ds2, threshold=0.01).to_pandas()
        assert set(zip(out2["doc_a"], out2["doc_b"])) == {(7, 9)}

    def test_exact_dedup_ray(self):
        texts = ["dup text one", "unique a", "dup text one", "unique b",
                 "dup text one"]
        ds = ray.data.from_arrow(doc_table(texts))
        kept = dedup.exact_dedup(ds, carry_cols=("lang",)).to_pandas()
        assert sorted(kept["doc_id"]) == [0, 1, 3]

    def test_minhash_dedup_ray(self):
        base = "the quick brown fox jumps over the lazy dog and runs far " * 4
        texts = [
            base,
            base.replace("far", "away"),          # near-dup of 0
            "ray data streaming execution with arrow blocks " * 6,
            base.replace("quick", "slow"),        # near-dup of 0
            "totally unrelated content about cooking pasta at home " * 6,
        ]
        ds = ray.data.from_arrow(doc_table(texts))
        clusters, n_pairs = dedup.minhash_dedup(ds, threshold=0.5)
        assert n_pairs >= 2
        assert clusters.get(1) == 0 and clusters.get(3) == 0
        assert 2 not in clusters and 4 not in clusters

    def test_simhash_dedup_ray(self):
        base = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 6
        texts = [base, base.replace("kappa", "omega", 1),
                 "one two three four five six seven eight nine ten " * 6]
        ds = ray.data.from_arrow(doc_table(texts))
        # 8 bands of 8 bits: pigeonhole guarantees a shared band up to
        # Hamming distance 7
        clusters, n_pairs = dedup.simhash_dedup(ds, max_hamming=6, bands=8)
        assert clusters.get(1) == 0
        assert 2 not in clusters


class TestSimilarity:
    @pytest.fixture(scope="class")
    def emb_ds(self):
        rng = np.random.default_rng(17)
        vecs = rng.standard_normal((2000, 32)).astype(np.float32)
        tbl = pa.table(
            {
                "vec_id": pa.array(np.arange(2000), pa.int64()),
                "embedding": pa.array(list(vecs), pa.list_(pa.float32())),
            }
        )
        return ray.data.from_arrow(tbl).repartition(4), vecs

    def test_brute_force_matches_numpy(self, emb_ds):
        ds, vecs = emb_ds
        queries = vecs[[5, 77, 1234]]
        out = similarity.knn_brute_force(ds, queries, k=10).to_pandas()
        norm = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        for qi, qvec in enumerate(queries):
            qn = qvec / np.linalg.norm(qvec)
            sims = norm @ qn
            exact_top = set(np.argsort(-sims)[:10].tolist())
            got = set(out[out["query_idx"] == qi]["vec_id"].tolist())
            assert got == exact_top
            # the query vector itself is rank 1
            top1 = out[(out["query_idx"] == qi) & (out["rank"] == 1)]
            assert top1["vec_id"].iloc[0] == [5, 77, 1234][qi]

    def test_persistent_ivf_index(self, emb_ds, tmp_path):
        ds, vecs = emb_ds
        idx_dir = similarity.ivf_build(ds, str(tmp_path / "ivf"), ncells=16)
        import os

        cells = [d for d in os.listdir(idx_dir) if d.startswith("cell=")]
        assert len(cells) > 4  # really partitioned by cell
        queries = vecs[[3, 999]]
        exact = similarity.knn_brute_force(ds, queries, k=10).to_pandas()
        got = similarity.ivf_query(idx_dir, queries, k=10,
                                   nprobe=6).to_pandas()
        for qi in range(2):
            e = set(exact[exact["query_idx"] == qi]["vec_id"])
            g = set(got[got["query_idx"] == qi]["vec_id"])
            assert len(e & g) / len(e) >= 0.5

    def test_ivf_recall(self, emb_ds):
        ds, vecs = emb_ds
        queries = vecs[[10, 500]]
        exact = similarity.knn_brute_force(ds, queries, k=10).to_pandas()
        approx = similarity.knn_ivf(ds, queries, k=10, ncells=32,
                                    nprobe=8).to_pandas()
        for qi in range(2):
            e = set(exact[exact["query_idx"] == qi]["vec_id"])
            a = set(approx[approx["query_idx"] == qi]["vec_id"])
            recall = len(e & a) / len(e)
            assert recall >= 0.5, recall

    def test_ivf_distributed_training_256_cells(self, tmp_path):
        """Distributed codebook training (VERDICT r3 item 5): 10x the
        class fixture (20k clustered vectors), ncells=256, full Lloyd
        iterations over the Dataset — recall gate vs exact brute force,
        plus the seeded-determinism contract (two trainings produce
        byte-identical codebooks)."""
        rng = np.random.default_rng(99)
        centers = rng.standard_normal((64, 32)).astype(np.float32)
        assign = rng.integers(0, 64, 20_000)
        vecs = (centers[assign]
                + 0.15 * rng.standard_normal((20_000, 32))).astype(
            np.float32)
        tbl = pa.table({
            "vec_id": pa.array(np.arange(20_000), pa.int64()),
            "embedding": pa.array(list(vecs), pa.list_(pa.float32())),
        })
        ds = ray.data.from_arrow(tbl).repartition(8)
        idx_dir = similarity.ivf_build(
            ds, str(tmp_path / "ivf256"), ncells=256,
            train="distributed", iters=3)
        import os

        cells = [d for d in os.listdir(idx_dir) if d.startswith("cell=")]
        assert len(cells) > 64  # the codebook really spread the data
        queries = vecs[[7, 4096, 19_999]]
        exact = similarity.knn_brute_force(ds, queries, k=10).to_pandas()
        got = similarity.ivf_query(idx_dir, queries, k=10,
                                   nprobe=32).to_pandas()
        for qi in range(3):
            e = set(exact[exact["query_idx"] == qi]["vec_id"])
            g = set(got[got["query_idx"] == qi]["vec_id"])
            assert len(e & g) / len(e) >= 0.6, (qi, len(e & g) / len(e))
        # seeded determinism: retraining yields the identical codebook
        i1 = similarity.ivf_train_distributed(ds, ncells=256, iters=2)
        i2 = similarity.ivf_train_distributed(ds, ncells=256, iters=2)
        assert np.array_equal(i1.centroids, i2.centroids)

    def test_ivf_distributed_training_empty_blocks(self):
        """An empty block in the input (empty parquet file / upstream
        filter) must not crash the partial-assignment stage, and must
        not change the trained codebook."""
        rng = np.random.default_rng(5)
        vecs = rng.standard_normal((512, 16)).astype(np.float32)

        def tbl_of(v):
            return pa.table({
                "vec_id": pa.array(np.arange(len(v)), pa.int64()),
                "embedding": pa.array(list(v), pa.list_(pa.float32())),
            })

        empty = tbl_of(vecs).slice(0, 0)
        ds_clean = ray.data.from_arrow(tbl_of(vecs))
        ds_holey = ray.data.from_arrow([empty, tbl_of(vecs), empty])
        i1 = similarity.ivf_train_distributed(ds_clean, ncells=16, iters=2)
        i2 = similarity.ivf_train_distributed(ds_holey, ncells=16, iters=2)
        assert np.array_equal(i1.centroids, i2.centroids)


class TestMultimodal:
    def test_decode_stage_plumbing(self):
        n = 10
        tbl = pa.table(
            {
                "media_id": pa.array(range(n), pa.int64()),
                "media_type": pa.array(["image"] * n),
                "payload": pa.array(
                    [bytes([i]) * (100 + i) for i in range(n)], pa.binary()),
                "width": pa.array([640] * n, pa.int32()),
                "height": pa.array([480] * n, pa.int32()),
                "duration_ms": pa.array([0] * n, pa.int32()),
            }
        )
        # small batches on an actor pool, payload dropped at decode
        out = ray.data.from_arrow(tbl).map_batches(
            multimodal.DecodeImageStage,
            fn_constructor_kwargs={"feature_dim": 16},
            batch_format="pyarrow", batch_size=4,
            concurrency=(1, 2)).to_pandas()
        assert len(out) == n
        assert "payload" not in out.columns  # payload dropped post-decode
        assert all(len(f) == 16 for f in out["features"])
        # determinism: same payload -> same features
        stage = multimodal.DecodeImageStage(feature_dim=16)
        again = stage(tbl).to_pandas()
        f0 = out.sort_values("media_id")["features"].iloc[0]
        np.testing.assert_array_equal(f0, again["features"].iloc[0])

    def test_decode_strict_raises_without_codec(self):
        """strict mode raises at DECODE time for payloads no real backend
        handles (PPM is always decodable; arbitrary bytes are not)."""
        try:
            import PIL  # noqa: F401

            pytest.skip("PIL available")
        except ImportError:
            pass
        stage = multimodal.DecodeImageStage(strict=True)
        bad = pa.table({"payload": pa.array([b"\x89PNG fake"], pa.binary())})
        with pytest.raises(NotImplementedError):
            stage(bad)

    def test_ppm_roundtrip_and_strict_decode(self):
        rng = np.random.default_rng(5)
        w, h = 17, 9
        pix = rng.integers(0, 256, w * h * 3, dtype=np.uint8)
        payload = multimodal.encode_ppm(w, h, pix)
        assert len(payload) == multimodal.PPM_HEADER_LEN + w * h * 3
        dw, dh, mean = multimodal.decode_ppm(payload)
        assert (dw, dh) == (w, h)
        assert abs(mean - pix.mean()) < 1e-9
        # strict stage really decodes PPM without any codec library
        stage = multimodal.DecodeImageStage(feature_dim=8, strict=True)
        out = stage(pa.table({"payload": pa.array([payload], pa.binary())}))
        assert out.column("decoded_w").to_pylist() == [w]
        assert out.column("decoded_h").to_pylist() == [h]
        assert abs(out.column("mean_pixel").to_pylist()[0] - pix.mean()) < 1e-9
        # features are pooled from the actual pixels
        expect = [s.mean() / 255.0 for s in
                  np.array_split(pix.astype(np.float32), 8)]
        np.testing.assert_allclose(out.column("features").to_pylist()[0],
                                   expect, rtol=1e-6)

    def test_decode_corrupt_ppm_rejected(self):
        good = multimodal.encode_ppm(4, 4, np.zeros(48, dtype=np.uint8))
        with pytest.raises(ValueError):
            multimodal.decode_ppm(good[:-5])  # truncated pixels

    def test_resize_math(self):
        tbl = pa.table(
            {
                "width": pa.array([1024, 100], pa.int32()),
                "height": pa.array([512, 50], pa.int32()),
            }
        )
        out = multimodal.ResizeImageStage(max_side=256)(tbl)
        assert out.column("resized_w").to_pylist() == [256, 100]
        assert out.column("resized_h").to_pylist() == [128, 50]

    def test_frame_sampling(self):
        tbl = pa.table({"duration_ms": pa.array([8000], pa.int32())})
        out = multimodal.SampleFramesStage(n_frames=4)(tbl)
        assert out.column("frame_ts_ms").to_pylist() == [[0, 2000, 4000, 6000]]


class TestLanguageIdVectorized:
    @staticmethod
    def _reference_predict(texts, default="en"):
        """Straightforward per-row scorer with the same semantics
        (token hits + first-200-codepoint char hits, argmax with
        alphabetical tie-break)."""
        from tdigest_ray.stages.textstats import _PROFILES

        langs = sorted(_PROFILES)
        lookup = {}
        for li, lang in enumerate(langs):
            for w in _PROFILES[lang]:
                lookup.setdefault(w, []).append(li)
        out = []
        for t in texts:
            scores = [0] * len(langs)
            if t:
                for tok in t.lower().split():
                    for li in lookup.get(tok, ()):
                        scores[li] += 1
                for ch in t[:200]:
                    if len(ch) == 1:
                        for li in lookup.get(ch, ()):
                            scores[li] += 1
            out.append(langs[int(np.argmax(scores))] if any(scores)
                       else default)
        return out

    def test_matches_reference_scorer(self):
        rng = np.random.default_rng(11)
        corpus = [
            "the cat is in the house and it is warm for the winter",
            "der hund ist nicht in das haus und die katze auch nicht",
            "le chat est dans la maison avec les chiens du quartier",
            "el perro y el gato est in la casa con los dems",  # fr/es overlap
            "кошка в доме и не хочет выходить на улицу",
            "我的猫在家里不想出去因为外面很冷",
            "の猫に家はを出た",
            "",
            "zzz qqq xxx",  # no hits -> default
            "   leading whitespace the of and a to",
        ]
        # plus shuffled random mixtures to exercise ties and overlaps
        words = "the der le el и の 的 est des dem dos".split()
        for _ in range(50):
            k = int(rng.integers(1, 12))
            corpus.append(" ".join(rng.choice(words, k)))
        from tdigest_ray.stages.textstats import LanguageId

        stage = LanguageId()
        got = stage(doc_table(corpus)).column("lang_pred").to_pylist()
        assert got == self._reference_predict(corpus)


class TestEmbeddingLSHNearDup:
    def test_planted_clusters_recovered(self):
        """SRP-LSH near-dup must recover planted high-cosine clusters and
        report nothing for isolated random vectors."""
        from tdigest_ray.stages.dedup import embedding_lsh_neardup

        rng = np.random.default_rng(41)
        dim = 32
        vecs, ids = [], []
        # 5 planted clusters of 3 near-identical vectors
        for c in range(5):
            base = rng.standard_normal(dim)
            base /= np.linalg.norm(base)
            for j in range(3):
                v = base + 0.05 * rng.standard_normal(dim)
                ids.append(c * 3 + j)
                vecs.append(v.astype(np.float32))
        # 50 isolated random vectors (pairwise sim ~ N(0, 1/sqrt(dim)))
        for i in range(50):
            ids.append(100 + i)
            vecs.append(rng.standard_normal(dim).astype(np.float32))
        tbl = pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs],
                                  pa.list_(pa.float32())),
        })
        ds = ray.data.from_arrow(tbl).repartition(4)
        clusters, n_pairs = embedding_lsh_neardup(ds, threshold=0.9)
        assert n_pairs >= 10  # 5 clusters x 2 star edges each
        for c in range(5):
            members = {clusters.get(c * 3 + j) for j in range(3)}
            assert members == {c * 3}, (c, members)
        assert all(i not in clusters for i in range(100, 150))

    def test_empty_embeddings(self):
        from tdigest_ray.stages.dedup import embedding_lsh_neardup

        ds = ray.data.from_arrow(pa.table({
            "vec_id": pa.array([], pa.int64()),
            "embedding": pa.array([], pa.list_(pa.float32())),
        }))
        assert embedding_lsh_neardup(ds) == ({}, 0)


class TestCogroupVerifyPairs:
    def test_direct_edge_cases(self):
        """Same-partition endpoints (a%P == b%P), duplicate candidates
        from multiple bands, and rejected pairs — via a payload-equality
        match function."""
        from tdigest_ray.stages.dedup import _cogroup_verify_pairs

        payload = {i: bytes([i % 3]) * 8 for i in range(8)}
        sigs = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(list(payload), pa.int64()),
            "sig": pa.array([payload[i] for i in payload], pa.binary()),
        }))
        # (0,3): equal payloads (0%3==3%3), endpoints hash to different
        # partitions or same depending on P=2; (2,4): 2%2==4%2 -> SAME
        # partition copies; (0,3) duplicated 3x (multi-band); (1,2):
        # different payloads -> rejected
        cand = ray.data.from_arrow(pa.table({
            "a": pa.array([0, 0, 0, 2, 1], pa.int64()),
            "b": pa.array([3, 3, 3, 4, 2], pa.int64()),
        }))

        def match(mat_a, mat_b):
            # payload-equality over the (n, w) uint8 byte matrices
            return (mat_a == mat_b).all(axis=1)

        out = _cogroup_verify_pairs(sigs, cand, "doc_id", 2, match)
        pairs = sorted((r["a"], r["b"]) for r in out.take_all())
        # (0,3) once despite 3 copies; (2,4) wait: 2%3=2, 4%3=1 -> differ
        assert pairs == [(0, 3)]

    def test_direct_accepting_same_partition_pair(self):
        from tdigest_ray.stages.dedup import _cogroup_verify_pairs

        sigs = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([2, 4], pa.int64()),
            "sig": pa.array([b"same", b"same"], pa.binary()),
        }))
        cand = ray.data.from_arrow(pa.table({
            "a": pa.array([2], pa.int64()),
            "b": pa.array([4], pa.int64()),
        }))

        def match(mat_a, mat_b):
            return (mat_a == mat_b).all(axis=1)

        out = _cogroup_verify_pairs(sigs, cand, "doc_id", 2, match)
        assert [(r["a"], r["b"]) for r in out.take_all()] == [(2, 4)]


class TestTokenizerParity:
    def test_arrow_tokenize_matches_str_split(self):
        """The Arrow tokenizer must produce the same token COUNTS as
        Python str.split() across whitespace variants (tabs, newlines,
        vertical tab, form feed, NBSP, leading/trailing/multiple runs) —
        the contract the shingle and simhash paths rely on."""
        from tdigest_ray.stages.dedup import _as_string_array, _tokenize

        texts = [
            "plain simple words",
            "  leading and   multiple   spaces ",
            "tabs\tand\nnewlines\r\nmixed",
            "vertical\x0btab form\x0cfeed",
            "nbsp\xa0separated\xa0words",
            "", "   ", "\t\n", "one",
            "unicode 日本語 текст mixed",
        ]
        lens, tok_h = _tokenize(_as_string_array(texts))
        expect = [len(t.split()) for t in texts]
        assert lens.tolist() == expect
        assert len(tok_h) == sum(expect)

    def test_tokenize_null_text(self):
        import pyarrow as pa

        from tdigest_ray.stages.dedup import _tokenize

        lens, tok_h = _tokenize(pa.array(["a b", None, "c"], pa.string()))
        assert lens.tolist() == [2, 0, 1]
        assert len(tok_h) == 3


class TestMultimodalRealResample:
    """r3: ResizeImageStage / SampleFramesStage now do REAL pixel work."""

    def test_bilinear_identity_and_constant(self):
        rng = np.random.default_rng(3)
        pix = rng.integers(0, 256, 5 * 7 * 3, dtype=np.uint8)
        same = multimodal.bilinear_resize(pix, 7, 5, 7, 5)
        np.testing.assert_array_equal(
            same, pix.reshape(5, 7, 3).astype(np.float64))
        const = multimodal.bilinear_resize(
            np.full(20 * 10 * 3, 77, dtype=np.uint8), 20, 10, 6, 3)
        assert np.allclose(const, 77.0)

    def test_bilinear_gradient_exact(self):
        # align-corners bilinear preserves a linear gradient exactly:
        # resampled mean == (first + last) / 2
        w, h = 33, 6
        step = 255 // (w - 1)
        col = (np.arange(w) * step).astype(np.uint8)
        pix = np.ascontiguousarray(
            np.broadcast_to(col[None, :, None], (h, w, 3)))
        out = multimodal.bilinear_resize(pix.ravel(), w, h, 16, 3)
        assert abs(out.mean() - (w - 1) * step / 2.0) < 1e-9

    def test_resize_stage_real_payload(self):
        w, h = 40, 6
        step = 255 // (w - 1)
        col = (np.arange(w) * step).astype(np.uint8)
        pix = np.ascontiguousarray(
            np.broadcast_to(col[None, :, None], (h, w, 3)))
        payload = multimodal.encode_ppm(w, h, pix.ravel())
        tbl = pa.table({"payload": pa.array([payload], pa.binary())})
        out = multimodal.ResizeImageStage(max_side=16, strict=True)(tbl)
        assert "payload" not in out.column_names
        rw = out.column("resized_w").to_pylist()[0]
        rh = out.column("resized_h").to_pylist()[0]
        assert (rw, rh) == (16, 2)  # floor(40*16/40), floor(6*16/40)
        got = out.column("resized_mean").to_pylist()[0]
        assert abs(got - (w - 1) * step / 2.0) < 1e-9

    def test_resize_stage_strict_raises_on_non_ppm(self):
        try:
            import PIL  # noqa: F401

            pytest.skip("PIL available")
        except ImportError:
            pass
        tbl = pa.table({"payload": pa.array([b"\x89PNG"], pa.binary())})
        with pytest.raises(NotImplementedError):
            multimodal.ResizeImageStage(strict=True)(tbl)
        lax = multimodal.ResizeImageStage(strict=False)(tbl)
        assert lax.column("resized_w").to_pylist() == [None]

    def test_ppmv_roundtrip(self):
        rng = np.random.default_rng(9)
        frames = [
            multimodal.encode_ppm(
                3, 2, rng.integers(0, 256, 18, dtype=np.uint8))
            for _ in range(5)
        ]
        container = multimodal.encode_ppmv(frames)
        assert multimodal.decode_ppmv(container) == frames
        with pytest.raises(ValueError):
            multimodal.decode_ppmv(container + b"junk")
        with pytest.raises(ValueError):
            multimodal.decode_ppmv(b"nope")

    def test_sample_frames_real_extraction(self):
        # 5 constant-color frames; k=3 samples indices (j*5)//3 = 0,1,3
        vals = [10, 20, 30, 40, 50]
        frames = [
            multimodal.encode_ppm(
                4, 2, np.full(24, v, dtype=np.uint8)) for v in vals
        ]
        tbl = pa.table({
            "payload": pa.array([multimodal.encode_ppmv(frames)],
                                pa.binary())})
        out = multimodal.SampleFramesStage(n_frames=3, strict=True)(tbl)
        assert out.column("n_total_frames").to_pylist() == [5]
        assert out.column("frame_idx").to_pylist() == [[0, 1, 3]]
        assert out.column("frame_means").to_pylist() == [[10.0, 20.0, 40.0]]

    def test_sample_frames_strict_raises_on_non_ppmv(self):
        tbl = pa.table({"payload": pa.array([b"AVI fake"], pa.binary())})
        with pytest.raises(NotImplementedError):
            multimodal.SampleFramesStage(strict=True)(tbl)
        lax = multimodal.SampleFramesStage(strict=False)(tbl)
        assert lax.column("n_total_frames").to_pylist() == [None]


class TestTopKReduce:
    """r3: vectorized + distributed candidate reduction (VERDICT item 4)."""

    def _ds(self, n=400, dim=8, blocks=13):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((n, dim)).astype(np.float32)
        tbl = pa.table({
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array(list(m), pa.list_(pa.float32())),
        })
        return ray.data.from_arrow(tbl).repartition(blocks), m

    def test_driver_and_distributed_reduce_agree(self):
        ds, m = self._ds()
        q = np.asarray(m[:7], dtype=np.float64)
        a = similarity.knn_brute_force(ds, q, k=5, reduce="driver")
        b = similarity.knn_brute_force(ds, q, k=5, reduce="distributed")
        assert a.sort_by([("query_idx", "ascending"),
                          ("rank", "ascending")]).equals(
            b.sort_by([("query_idx", "ascending"), ("rank", "ascending")]))

    def test_topk_table_kernel_matches_per_query_loop(self):
        rng = np.random.default_rng(4)
        n = 5000
        tbl = pa.table({
            "query_idx": pa.array(
                rng.integers(0, 37, n).astype(np.int64)),
            "vec_id": pa.array(rng.integers(0, 10_000, n).astype(np.int64)),
            "similarity": pa.array(
                rng.integers(0, 50, n).astype(np.float64)),  # many ties
        })
        out = similarity._topk_table(tbl, 6, "vec_id")
        qidx = tbl.column("query_idx").to_numpy()
        vid = tbl.column("vec_id").to_numpy()
        sim = tbl.column("similarity").to_numpy()
        for qi in np.unique(qidx):
            mask = qidx == qi
            order = np.lexsort((vid[mask], -sim[mask]))[:6]
            got = out.filter(
                pa.compute.equal(out.column("query_idx"), int(qi)))
            assert got.column("vec_id").to_pylist() == \
                vid[mask][order].tolist()
            assert got.column("rank").to_pylist() == \
                list(range(1, len(order) + 1))

    def test_ivf_large_q_vectorized_path(self):
        ds, m = self._ds(n=600)
        q = np.asarray(m[:40], dtype=np.float64)  # nq >= 16: masked matmul
        exact = similarity.knn_brute_force(ds, q, k=8)
        approx = similarity.knn_ivf(ds, q, k=8, ncells=8, nprobe=8,
                                    sample_size=600)
        # probing ALL cells makes IVF exact up to float32-vs-float64 ties
        e_idx = exact.column("query_idx").to_numpy()
        e_vid = exact.column("vec_id").to_numpy()
        a_idx = approx.column("query_idx").to_numpy()
        a_vid = approx.column("vec_id").to_numpy()
        for qi in range(40):
            e = set(e_vid[e_idx == qi].tolist())
            a = set(a_vid[a_idx == qi].tolist())
            assert len(e & a) >= 7, qi


class TestTextTokenOps:
    """r3: BPE-ish token counting, lexical diversity, per-group vocab."""

    def test_bpe_token_count_examples(self):
        tbl = doc_table(["hello world", "a1b2", "", "x  y", "don't stop"])
        out = textstats.add_bpe_token_count(tbl)
        # pattern: space-glued letter/digit/punct runs (the second space
        # of "x  y" is consumed by neither token: RE2 skips it)
        assert out.column("bpe_tokens").to_pylist() == [2, 4, 0, 2, 4]

    def test_lexical_stats_examples(self):
        tbl = doc_table(["a b a b c", "x x x", "", "one"])
        out = textstats.add_lexical_stats(tbl)
        assert out.column("total_tokens").to_pylist() == [5, 3, 0, 1]
        assert out.column("distinct_tokens").to_pylist() == [3, 1, 0, 1]

    def test_vocab_by_group_matches_python_sets(self):
        import collections

        texts = ["a b c", "b c d", "z z", "a", "q r s t"]
        langs = ["en", "en", "de", "de", "en"]
        tbl = doc_table(texts, langs=langs)
        ds = ray.data.from_arrow(tbl).repartition(3)
        out = {r["lang"]: r["n_vocab"]
               for r in textstats.vocab_size_by_group(
                   ds, num_partitions=5).take_all()}
        want = collections.defaultdict(set)
        for t, lg in zip(texts, langs):
            want[lg].update(t.split())
        assert out == {k: len(v) for k, v in want.items()}

    def test_vocab_by_group_large_random(self):
        import collections

        rng = np.random.default_rng(3)
        texts = [" ".join(f"w{rng.integers(0, 2000)}"
                          for _ in range(rng.integers(1, 60)))
                 for _ in range(800)]
        langs = [["en", "de", "fr"][int(rng.integers(0, 3))]
                 for _ in range(800)]
        tbl = doc_table(texts, langs=langs)
        ds = ray.data.from_arrow(tbl).repartition(7)
        out = {r["lang"]: r["n_vocab"]
               for r in textstats.vocab_size_by_group(
                   ds, num_partitions=11).take_all()}
        want = collections.defaultdict(set)
        for t, lg in zip(texts, langs):
            want[lg].update(t.split())
        assert out == {k: len(v) for k, v in want.items()}

    def test_repetition_stats_examples(self):
        tbl = doc_table(["a b a b c", "x x x", "", "one", "a b"])
        out = textstats.add_repetition_stats(tbl)
        assert out.column("total_2grams").to_pylist() == [4, 2, 0, 0, 1]
        assert out.column("distinct_2grams").to_pylist() == [3, 1, 0, 0, 1]

    def test_repetition_no_cross_document_grams(self):
        # last token of doc i and first of doc i+1 must not pair up
        tbl = doc_table(["p q", "q p"])
        out = textstats.add_repetition_stats(tbl)
        assert out.column("total_2grams").to_pylist() == [1, 1]
        assert out.column("distinct_2grams").to_pylist() == [1, 1]


class TestNullTextDedupSemantics:
    """r3 self-review: SQL PARTITION BY semantics — all NULL texts form
    ONE dedup class, distinct from the empty string."""

    def test_null_vs_empty_are_distinct_classes(self):
        tbl = pa.table({
            "doc_id": pa.array([5, 1, 9, 3, 7], pa.int64()),
            "text": pa.array([None, "", None, "", "x y"], pa.string()),
            "lang": pa.array(["en"] * 5, pa.string()),
        })
        ds = ray.data.from_arrow(tbl).repartition(2)
        kept = sorted(r["doc_id"] for r in
                      dedup.exact_dedup(ds, carry_cols=("lang",)).take_all())
        # nulls -> min id 5? no: ids are [5, 9] for nulls -> keep 5;
        # empties ids [1, 3] -> keep 1; "x y" -> 7
        assert kept == [1, 5, 7]
        rows = dedup.exact_dedup_rows(ds).take_all()
        assert sorted(r["doc_id"] for r in rows) == [1, 5, 7]
        by_id = {r["doc_id"]: r["text"] for r in rows}
        assert by_id[5] is None and by_id[1] == "" and by_id[7] == "x y"


def test_ppmv_frame_count_cap():
    frame = multimodal.encode_ppm(1, 1, np.zeros(3, dtype=np.uint8))
    with pytest.raises(ValueError, match="9999"):
        multimodal.encode_ppmv([frame] * 10_000)


class TestAudioWav:
    """r3: real RIFF/WAVE PCM16 decode path."""

    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        samples = rng.integers(-32768, 32767, 777, dtype=np.int16)
        payload = multimodal.encode_wav(16_000, samples)
        sr, back = multimodal.decode_wav(payload)
        assert sr == 16_000
        np.testing.assert_array_equal(back, samples)

    def test_rejects_corrupt(self):
        samples = np.zeros(10, dtype=np.int16)
        good = multimodal.encode_wav(8000, samples)
        with pytest.raises(ValueError):
            multimodal.decode_wav(good[:-3])     # truncated data chunk
        with pytest.raises(ValueError):
            multimodal.decode_wav(b"RIFFxxxxWAVE")  # no chunks
        with pytest.raises(ValueError):
            multimodal.decode_wav(b"not audio at all" * 4)

    def test_stage_decodes_and_strict_raises(self):
        samples = np.full(100, -50, dtype=np.int16)
        payload = multimodal.encode_wav(8000, samples)
        tbl = pa.table({"payload": pa.array([payload], pa.binary())})
        out = multimodal.DecodeAudioStage(strict=True)(tbl)
        assert out.column("sample_rate").to_pylist() == [8000]
        assert out.column("n_samples").to_pylist() == [100]
        assert out.column("duration_ms").to_pylist() == [12]
        assert out.column("mean_sample").to_pylist() == [-50.0]
        assert out.column("rms").to_pylist() == [50.0]
        bad = pa.table({"payload": pa.array([b"OggS fake"], pa.binary())})
        with pytest.raises(NotImplementedError):
            multimodal.DecodeAudioStage(strict=True)(bad)
        lax = multimodal.DecodeAudioStage(strict=False)(bad)
        assert lax.column("n_samples").to_pylist() == [None]
