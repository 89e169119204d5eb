"""Paragraph-level dedup (stages/paradedup.py) vs a plain-Python
reference implementation, both reassembly paths, and edge shapes."""

import numpy as np
import pyarrow as pa
import pytest
import ray
from hypothesis import given, settings
from hypothesis import strategies as st

from tdigest_ray.stages.paradedup import (
    _MAX_DOC,
    _MAX_IDX,
    _composite,
    dedup_paragraphs,
    explode_paragraphs,
    paragraph_removals,
)


# ------------------------------------------------------------------ #
# reference implementation (driver-side, obviously-correct)
# ------------------------------------------------------------------ #

def ref_dedup(docs: list[tuple[int, str | None]], sep: str = "\n",
              drop_df: int | None = None):
    """(removals, cleaned) computed the slow obvious way."""
    paras = []  # (doc_id, idx, text) in (doc_id, idx) order
    for did, text in sorted(docs):
        if text is None:
            continue
        for i, p in enumerate(text.split(sep)):
            paras.append((did, i, p))
    df = {}
    for _, _, p in paras:
        df[p] = df.get(p, 0) + 1
    seen = set()
    removals = set()
    for did, i, p in paras:
        if drop_df is not None and df[p] >= drop_df:
            removals.add((did, i))
        elif p in seen:
            removals.add((did, i))
        seen.add(p)
    cleaned = {}
    for did, text in docs:
        if text is None:
            cleaned[did] = (None, 0, 0)
            continue
        parts = text.split(sep)
        kept = [p for i, p in enumerate(parts) if (did, i) not in removals]
        cleaned[did] = (sep.join(kept), len(parts), len(parts) - len(kept))
    return removals, cleaned


def make_docs(seed: int, n: int, vocab: int = 12, max_paras: int = 6):
    rng = np.random.default_rng(seed)
    docs = []
    for did in range(n):
        k = int(rng.integers(0, max_paras + 1))
        if k == 0 and rng.random() < 0.3:
            docs.append((did, None))
            continue
        paras = [
            " ".join(f"w{v}" for v in rng.integers(0, vocab, size=3))
            for _ in range(k)
        ]
        docs.append((did, "\n".join(paras)))  # k=0 -> "" (one empty para)
    return docs


def to_ds(docs, nparts=3):
    tbl = pa.table({
        "doc_id": pa.array([d for d, _ in docs], pa.int64()),
        "text": pa.array([t for _, t in docs], pa.string()),
        "lang": pa.array(["en" if d % 2 else "de" for d, _ in docs]),
    })
    return ray.data.from_arrow(tbl).repartition(nparts)


def run_pairs(ds, **kw):
    out = paragraph_removals(ds, **kw).to_pandas()
    return set(zip(out["doc_id"].tolist(), out["_idx"].tolist()))


def run_clean(ds, **kw):
    out = dedup_paragraphs(ds, carry_cols=("lang",), **kw).to_pandas()
    return {
        int(r.doc_id): (r.text, int(r.n_paras), int(r.n_removed))
        for r in out.itertuples()
    }


# ------------------------------------------------------------------ #
# explode
# ------------------------------------------------------------------ #

def test_explode_ordinals_and_nulls():
    batch = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["a\nb", None, ""], pa.string()),
    })
    out = explode_paragraphs(batch)
    assert out.column("doc_id").to_pylist() == [1, 1, 3]
    assert out.column("_idx").to_pylist() == [0, 1, 0]
    assert out.column("para").to_pylist() == ["a", "b", ""]


# ------------------------------------------------------------------ #
# removals + reassembly vs reference, randomized
# ------------------------------------------------------------------ #

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_randomized_vs_reference(seed):
    docs = make_docs(seed, 40)
    ref_rem, ref_clean = ref_dedup(docs)
    ds = to_ds(docs)
    assert run_pairs(ds) == ref_rem
    assert run_clean(ds) == ref_clean


def test_all_reassembly_paths_agree():
    docs = make_docs(7, 50)
    ds = to_ds(docs)
    want = run_clean(ds)                      # auto -> broadcast
    assert run_clean(ds, path="cogroup") == want
    assert run_clean(ds, path="sliced") == want
    # auto with an exceeded broadcast budget routes to sliced
    assert run_clean(ds, broadcast_limit=0) == want


def test_multi_node_needs_shared_store(monkeypatch):
    """With more than one node alive and no ``removal_store_dir``, a
    driver-local removal store would be invisible to other nodes'
    rebuilders: ``auto`` takes the co-group path instead, and
    ``sliced`` refuses."""
    from tdigest_ray.stages import paradedup

    docs = make_docs(7, 50)
    ds = to_ds(docs)
    want = run_clean(ds, path="cogroup")
    nodes = ray.nodes()
    monkeypatch.setattr(ray, "nodes", lambda: nodes + [
        dict(nodes[0], NodeID="f" * 56)])

    def no_store(*a, **k):
        raise AssertionError("local removal store on a multi-node cluster")

    monkeypatch.setattr(paradedup, "_build_removal_store", no_store)
    assert run_clean(ds, broadcast_limit=0) == want
    with pytest.raises(ValueError, match="removal_store_dir"):
        dedup_paragraphs(ds, path="sliced")
    assert run_clean(ds) == want  # broadcast needs no store


@pytest.mark.parametrize("drop_df", [2, 3])
def test_drop_frequent_mode(drop_df):
    docs = make_docs(11, 40, vocab=4)
    ref_rem, ref_clean = ref_dedup(docs, drop_df=drop_df)
    ds = to_ds(docs)
    assert run_pairs(ds, drop_all_if_df_ge=drop_df) == ref_rem
    assert run_clean(ds, drop_all_if_df_ge=drop_df) == ref_clean
    # and the co-group / sliced paths agree
    assert run_clean(ds, drop_all_if_df_ge=drop_df,
                     path="cogroup") == ref_clean
    assert run_clean(ds, drop_all_if_df_ge=drop_df,
                     path="sliced") == ref_clean


def test_drop_df_validation():
    ds = to_ds([(1, "a")])
    with pytest.raises(ValueError):
        paragraph_removals(ds, drop_all_if_df_ge=1)


# ------------------------------------------------------------------ #
# edges
# ------------------------------------------------------------------ #

def test_intra_doc_duplicates_keep_first():
    ds = to_ds([(5, "x\nx\nx")], nparts=1)
    assert run_pairs(ds) == {(5, 1), (5, 2)}
    assert run_clean(ds)[5] == ("x", 3, 2)


def test_empty_and_null_text_pass_through():
    docs = [(1, ""), (2, ""), (3, None)]
    cleaned = run_clean(to_ds(docs))
    # '' splits to one empty paragraph; doc 2's duplicates doc 1's
    assert cleaned[1] == ("", 1, 0)
    assert cleaned[2] == ("", 1, 1)
    assert cleaned[3] == (None, 0, 0)


def test_empty_dataset():
    ds = to_ds([]).filter(lambda r: False)
    assert paragraph_removals(ds).count() == 0
    assert dedup_paragraphs(ds).count() == 0


def test_custom_separator():
    docs = [(1, "p. q"), (2, "q. r")]
    out = dedup_paragraphs(to_ds(docs), sep=". ").to_pandas()
    got = dict(zip(out["doc_id"], out["text"]))
    assert got == {1: "p. q", 2: "r"}


def test_insert_breaks_validates_k():
    from tdigest_ray.stages.paradedup import insert_breaks_every_k_words

    with pytest.raises(ValueError):
        insert_breaks_every_k_words(pa.array(["a b"], pa.string()), k=0)


def test_duplicate_doc_ids_raise():
    # duplicate ids make "first occurrence" ill-defined; both reassembly
    # paths must refuse the patterns they can observe rather than
    # silently losing the kept-first paragraph (code-review finding)
    tbl = pa.table({
        # doc 5 wins "dup"; BOTH id-7 copies lose it -> two identical
        # (7, 0) removal keys, observable on the broadcast path
        "doc_id": pa.array([5, 7, 7], pa.int64()),
        "text": pa.array(["dup", "dup\nx", "dup\ny"], pa.string()),
        "lang": pa.array(["en", "en", "en"]),
    })
    ds = ray.data.from_arrow(tbl)
    with pytest.raises(Exception, match="duplicate"):
        dedup_paragraphs(ds).to_pandas()  # broadcast path
    with pytest.raises(Exception, match="duplicate"):
        dedup_paragraphs(ds, path="cogroup").to_pandas()
    with pytest.raises(Exception, match="duplicate"):
        dedup_paragraphs(ds, path="sliced").to_pandas()


def test_duplicate_doc_ids_multiplicity_two_raise():
    # ADVICE r4: two docs sharing an id with the SAME single paragraph
    # dedupe to ONE (id, idx) removal key, so the old broadcast-path
    # duplicate-key guard never fired and reassembly silently stripped
    # the kept-first occurrence from both rows. The winner shuffle now
    # detects the duplicated occurrence itself, on every path.
    tbl = pa.table({
        "doc_id": pa.array([7, 7], pa.int64()),
        "text": pa.array(["dup", "dup"], pa.string()),
        "lang": pa.array(["en", "en"]),
    })
    ds = ray.data.from_arrow(tbl)
    for kw in ({}, {"path": "cogroup"}, {"path": "sliced"}):
        with pytest.raises(Exception, match="duplicate"):
            dedup_paragraphs(ds, **kw).to_pandas()


word = st.text(
    alphabet=st.characters(blacklist_characters=" \n",
                           blacklist_categories=("Cs",)),
    min_size=1, max_size=6)
texts = st.lists(
    st.one_of(st.none(),
              st.lists(word, min_size=0, max_size=30).map(" ".join)),
    min_size=0, max_size=20)


@settings(max_examples=50, deadline=None)
@given(texts=texts, k=st.integers(1, 9))
def test_insert_breaks_property(texts, k):
    """insert_breaks_every_k_words == the obvious Python chunker,
    per codepoint, for arbitrary unicode words and any k."""
    from tdigest_ray.stages.paradedup import insert_breaks_every_k_words

    got = insert_breaks_every_k_words(
        pa.array(texts, pa.string()), k=k).to_pylist()
    for t, g in zip(texts, got):
        if t is None:
            assert g is None
            continue
        ws = t.split(" ")
        want = "\n".join(" ".join(ws[i:i + k]) for i in range(0, len(ws), k))
        assert g == want


def test_composite_range_guards():
    with pytest.raises(OverflowError):
        _composite(np.array([_MAX_DOC], np.int64), np.array([0], np.int64))
    with pytest.raises(OverflowError):
        _composite(np.array([0], np.int64), np.array([_MAX_IDX], np.int64))
    # huge doc ids still work via the co-group (dictionary-encode) path
    big = _MAX_DOC + 5
    tbl = pa.table({
        "doc_id": pa.array([big, big + 1], pa.int64()),
        "text": pa.array(["dup\nown", "dup"], pa.string()),
        "lang": pa.array(["en", "de"]),
    })
    ds = ray.data.from_arrow(tbl)
    out = dedup_paragraphs(ds).to_pandas()
    got = dict(zip(out["doc_id"], out["text"]))
    assert got == {big: "dup\nown", big + 1: ""}
    # forcing the sliced path surfaces the range error instead
    with pytest.raises(Exception, match="(?i)composite range"):
        dedup_paragraphs(ds, path="sliced").to_pandas()


# ------------------------------------------------------------------ #
# sliced removal store
# ------------------------------------------------------------------ #

def test_removal_store_roundtrip(tmp_path):
    from tdigest_ray.stages.paradedup import _build_removal_store

    rem_tbl = pa.table({
        "doc_id": pa.array([9, 3, 3, 7, 1], pa.int64()),
        "_idx": pa.array([0, 2, 1, 5, 0], pa.int64()),
    })
    rem = ray.data.from_arrow(rem_tbl).repartition(3).materialize()
    index = _build_removal_store(rem, "doc_id", str(tmp_path))
    assert index  # at least one shard
    # ranges sorted and disjoint
    for (lo1, hi1, _), (lo2, _, _) in zip(index, index[1:]):
        assert lo1 <= hi1 < lo2
    # shards concatenate to the fully sorted composite key set
    import pyarrow.parquet as pq
    comps = np.concatenate([
        pq.read_table(p, columns=["_comp"]).column("_comp").to_numpy()
        for _, _, p in index])
    want = np.sort((rem_tbl.column("doc_id").to_numpy() << 21)
                   | rem_tbl.column("_idx").to_numpy())
    assert (comps == want).all()
    # a stale shard from a prior run is cleared by the next build
    # (paths differ per write; ranges and total row count must not)
    index2 = _build_removal_store(rem, "doc_id", str(tmp_path))
    assert [e[:2] for e in index2] == [e[:2] for e in index]
    comps2 = np.concatenate([
        pq.read_table(p, columns=["_comp"]).column("_comp").to_numpy()
        for _, _, p in index2])
    assert (comps2 == want).all()


def test_removal_store_out_of_range(tmp_path):
    from tdigest_ray.stages.paradedup import _MAX_DOC, _build_removal_store

    rem = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([_MAX_DOC + 1], pa.int64()),
        "_idx": pa.array([0], pa.int64())})).materialize()
    with pytest.raises(OverflowError):
        _build_removal_store(rem, "doc_id", str(tmp_path))
    # empty removal set -> empty index, no error
    empty = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "_idx": pa.array([], pa.int64())})).materialize()
    assert _build_removal_store(empty, "doc_id", str(tmp_path)) == []


def test_sliced_rebuilder_multi_shard(tmp_path):
    """Drive _SlicedRebuilder against a handcrafted 3-shard store so
    shard-range selection, in-shard slicing, and cross-shard
    concatenation are all exercised deterministically (a real build may
    emit any shard count)."""
    import pyarrow.parquet as pq

    from tdigest_ray.stages.paradedup import _IDX_BITS, _SlicedRebuilder

    def comp(i, j):
        return (i << _IDX_BITS) | j

    shards = [
        [comp(1, 1), comp(2, 0)],
        [comp(4, 0), comp(4, 2)],
        [comp(9, 3)],
    ]
    index = []
    for n, keys in enumerate(shards):
        p = str(tmp_path / f"s{n}.parquet")
        pq.write_table(
            pa.table({"_comp": pa.array(keys, pa.int64())}), p)
        index.append((keys[0], keys[-1], p))

    rb = _SlicedRebuilder(index, "text", "doc_id", "\n", ())
    batch = pa.table({
        "doc_id": pa.array([1, 2, 4, 9, 10], pa.int64()),
        "text": pa.array(["a\nb\nc", "x\ny", "p\nq\nr", "0\n1\n2\n3\n4",
                          "keep\nall"], pa.string()),
    })
    out = rb(batch)
    assert out.column("text").to_pylist() == [
        "a\nc", "y", "q", "0\n1\n2\n4", "keep\nall"]
    assert out.column("n_removed").to_pylist() == [1, 1, 2, 1, 0]
    # a narrow batch touches only its own shard (cache holds 1 shard)
    rb2 = _SlicedRebuilder(index, "text", "doc_id", "\n", ())
    narrow = pa.table({
        "doc_id": pa.array([4], pa.int64()),
        "text": pa.array(["p\nq\nr"], pa.string())})
    assert rb2(narrow).column("text").to_pylist() == ["q"]
    assert len(rb2._cache) == 1
    # out-of-composite-range ids pass through untouched
    huge = pa.table({
        "doc_id": pa.array([-5], pa.int64()),
        "text": pa.array(["a\nb"], pa.string())})
    assert rb2(huge).column("text").to_pylist() == ["a\nb"]


def test_sliced_rebuilder_cache_eviction(tmp_path):
    import pyarrow.parquet as pq

    from tdigest_ray.stages.paradedup import _IDX_BITS, _SlicedRebuilder

    index = []
    for n in range(3):
        p = str(tmp_path / f"s{n}.parquet")
        key = (n * 100) << _IDX_BITS
        pq.write_table(pa.table({"_comp": pa.array([key], pa.int64())}), p)
        index.append((key, key, p))
    # cache_bytes=1 -> every shard load evicts down to one entry
    rb = _SlicedRebuilder(index, "text", "doc_id", "\n", (), cache_bytes=1)
    for n in range(3):
        b = pa.table({"doc_id": pa.array([n * 100], pa.int64()),
                      "text": pa.array(["x\ny"], pa.string())})
        assert rb(b).column("text").to_pylist() == ["y"]
        assert len(rb._cache) == 1
        assert rb._held == 8


def test_duplicate_doc_ids_distinct_paragraphs_raise():
    # code-review finding (r5): two docs share id 7 with DIFFERENT
    # paragraphs at ordinal 0, each removed as a duplicate of a
    # DIFFERENT winner doc — the (7, 0) removal key appears twice under
    # two fingerprints, invisible to the winner-shuffle guard (distinct
    # fps) and to the old sliced path (no key-adjacency check). Every
    # reassembly path must refuse rather than strip both kept-first
    # occurrences.
    tbl = pa.table({
        "doc_id": pa.array([3, 5, 7, 7], pa.int64()),
        "text": pa.array(["a", "b", "a\nx", "b\ny"], pa.string()),
        "lang": pa.array(["en"] * 4),
    })
    ds = ray.data.from_arrow(tbl)
    for kw in ({"path": "broadcast"}, {"path": "sliced"},
               {"path": "cogroup"}):
        with pytest.raises(Exception, match="duplicate"):
            dedup_paragraphs(ds, **kw).to_pandas()
