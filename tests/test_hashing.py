"""Pins for the one string hash (VERDICT r2 item 1).

Two contracts:

* ``hash64`` on text given as Python objects or numpy strings must be
  BIT-EXACT with ``hash64_utf8`` on the equivalent Arrow column, so a
  sketch fed an Arrow block and one fed a pandas block agree.
* ``hash64_utf8`` (the multilinear block hash) must induce the SAME
  classes as TRUE text equality — equal texts always collide, distinct
  texts never collide on the test corpora, including texts that differ
  only after an embedded NUL.

``TestSipHashParity`` keeps its name from when ``hash64`` was pandas'
SipHash ``hash_array``; it now pins the object path to the Arrow path.
"""

from __future__ import annotations

import random
import string

import numpy as np
import pyarrow as pa
import pytest

from tdigest_ray.sketches.hashing import hash64, hash64_utf8

EDGE_TEXTS = [
    "", "a", "ab", "x" * 7, "x" * 8, "x" * 9, "x" * 15, "x" * 16,
    "hello world", "ünïcödé テスト", "\x00", "a\x00b", "x" * 1000,
    " ", "\n\t", "🦜" * 20,
]


def _corpus(seed: int, n: int = 400) -> list[str]:
    rng = random.Random(seed)
    alphabet = string.printable + "äöüßé中文😀"
    out = [
        "".join(rng.choices(alphabet, k=rng.randint(0, 300)))
        for _ in range(n)
    ]
    # force duplicate classes
    out += rng.choices(out, k=n // 4)
    rng.shuffle(out)
    return EDGE_TEXTS + out


def _classes(keys) -> set:
    """Partition of indices by key (hash value or the text itself)."""
    by_key: dict = {}
    for i, k in enumerate(keys):
        by_key.setdefault(k if isinstance(k, str) else int(k), []).append(i)
    return {tuple(v) for v in by_key.values()}


class TestSipHashParity:
    def test_bit_exact_vs_object_path(self):
        texts = _corpus(1)
        expect = hash64(np.asarray(texts, dtype=object))
        got = hash64_utf8(pa.array(texts, pa.string()))
        assert (got == expect).all()

    def test_large_string_and_chunked_and_sliced(self):
        texts = _corpus(2)
        expect = hash64(np.asarray(texts, dtype=object))
        arr = pa.array(texts, pa.string())
        assert (hash64_utf8(arr.cast(pa.large_string())) == expect).all()
        chunked = pa.chunked_array([arr.slice(0, 37), arr.slice(37)])
        assert (hash64_utf8(chunked) == expect).all()
        assert (hash64_utf8(arr.slice(19, 50)) == expect[19:69]).all()

    def test_nulls_hash_as_empty(self):
        arr = pa.array(["a", None, ""], pa.string())
        h = hash64_utf8(arr)
        assert h[1] == h[2]

    @staticmethod
    def _assert_parity(arr, texts):
        expect = hash64(np.asarray(texts, dtype=object))
        assert (hash64_utf8(arr) == expect).all()
        assert (hash64_utf8(arr.cast(pa.large_string())) == expect).all()

    @pytest.mark.parametrize("length", [0, 7, 8, 9, 15, 16, 17, 64, 65, 200])
    def test_block_boundary_lengths(self, length):
        # each length alone, then beside longer and shorter rows, so the
        # last full block and the tail block are met in every round
        rng = random.Random(length)
        text = "".join(rng.choices(string.ascii_letters, k=length))
        texts = [text, text[:3], text + "é", "y" * 70, text]
        self._assert_parity(pa.array([text], pa.string()), [text])
        self._assert_parity(pa.array(texts, pa.string()), texts)

    @pytest.mark.parametrize("residue", range(8))
    def test_slice_at_every_byte_residue(self, residue):
        # 8 one-byte rows first: slicing at `residue` rows starts the
        # slice's data at byte offset `residue` of the buffer
        texts = ["p"] * 8 + [t for t in _corpus(9)[:120]]
        arr = pa.array(texts, pa.string())
        part = arr.slice(residue)
        assert part.offset == residue
        assert np.frombuffer(part.buffers()[1], np.int32)[residue] == residue
        self._assert_parity(part, texts[residue:])

    def test_buffer_ending_on_a_word_boundary(self):
        for texts in (["abc", "defgh"], ["x" * 8] * 8, ["a" * 13, "b" * 11]):
            arr = pa.array(texts, pa.string())
            assert arr.buffers()[2].size % 8 == 0
            self._assert_parity(arr, texts)

    def test_embedded_nuls(self):
        # every byte counts: strings that differ only after a NUL hash
        # differently, and the object path agrees with the Arrow path
        prefixes = ["", "a", "abcdefg", "abcdefgh", "abcdefghi", "x" * 16]
        texts = prefixes + [
            "a\x00b", "\x00", "\x00abc", "abcdefgh\x00ijk", "abcdefghi\x00",
            "abcdefg\x00", "x" * 16 + "\x00" * 3, "a\x00b\x00c", "a\x00c"]
        self._assert_parity(pa.array(texts, pa.string()), texts)
        h = hash64_utf8(pa.array(texts, pa.string()))
        assert len(set(h.tolist())) == len(texts)

    def test_large_string(self):
        texts = _corpus(10)
        arr = pa.array(texts, pa.large_string())
        self._assert_parity(arr, texts)
        self._assert_parity(arr.slice(5, 100), texts[5:105])


class TestFastHashDedupParity:
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_classes_match_true_text_equality(self, seed):
        texts = _corpus(seed)
        arr = pa.array(texts, pa.string())
        truth = _classes(texts)  # group by the text itself
        fast_classes = _classes(hash64_utf8(arr))
        assert fast_classes == truth

    @pytest.mark.parametrize("seed", [7, 8])
    def test_classes_match_hash_array_on_nul_free_text(self, seed):
        # the object path (pandas' hash_array until the one string hash)
        # and the Arrow path induce identical dedup classes
        texts = [t.replace("\x00", "~") for t in _corpus(seed)]
        arr = pa.array(texts, pa.string())
        ref_classes = _classes(hash64(np.asarray(texts, dtype=object)))
        assert _classes(hash64_utf8(arr)) == ref_classes

    def test_consistent_across_slices_and_chunks(self):
        texts = _corpus(6)
        arr = pa.array(texts, pa.string())
        whole = hash64_utf8(arr)
        assert (hash64_utf8(arr.slice(11, 60)) == whole[11:71]).all()
        chunked = pa.chunked_array([arr.slice(0, 23), arr.slice(23)])
        assert (hash64_utf8(chunked) == whole).all()

    def test_single_block_difference_never_collides(self):
        # odd multipliers are invertible mod 2^64: flipping bytes inside
        # one 8-byte block can never cancel
        base = "A" * 64
        variants = [base] + [
            base[:j] + "B" + base[j + 1:] for j in range(64)
        ]
        h = hash64_utf8(pa.array(variants))
        assert len(set(h.tolist())) == len(variants)

    def test_length_and_order_sensitivity(self):
        texts = ["abcdefghXYZ", "XYZabcdefgh", "abcdefgh", "abcdefgh\x00",
                 "abcdefg", "", "\x00", "\x00\x00"]
        h = hash64_utf8(pa.array(texts))
        assert len(set(h.tolist())) == len(texts)

    def test_no_collisions_on_large_distinct_corpus(self):
        arr = pa.array([f"doc-{i}-{i * i}" for i in range(200_000)])
        h = hash64_utf8(arr)
        assert len(np.unique(h)) == len(arr)

    def test_nulls_hash_as_empty(self):
        arr = pa.array(["a", None, ""], pa.string())
        h = hash64_utf8(arr)
        assert h[1] == h[2]


class TestFastHashProperties:
    def test_hypothesis_equal_texts_equal_hashes(self):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=200, deadline=None)
        @given(st.lists(
            st.text(alphabet=st.characters(
                blacklist_categories=("Cs",)),  # no lone surrogates
                max_size=120),
            min_size=1, max_size=40))
        def prop(texts):
            arr = pa.array(texts, pa.string())
            h = hash64_utf8(arr)
            for i in range(len(texts)):
                for j in range(i + 1, len(texts)):
                    if texts[i] == texts[j]:
                        assert h[i] == h[j]
                    else:
                        assert h[i] != h[j], (texts[i], texts[j])

        prop()

    def test_hypothesis_one_hash_every_entry_point(self):
        # text with NULs, non-ASCII, "" and None hashes alike on every
        # route into a sketch
        from hypothesis import given, settings, strategies as st

        from tdigest_ray.sketches.base import column_hashes

        @settings(max_examples=150, deadline=None)
        @given(st.lists(
            st.one_of(st.none(), st.text(
                alphabet=st.characters(blacklist_categories=("Cs",)),
                max_size=60)),
            min_size=1, max_size=30), st.integers(0, 30))
        def prop(texts, cut):
            expect = hash64(np.asarray(texts, dtype=object))
            arr = pa.array(texts, pa.string())
            routes = {
                "list": hash64(texts),
                "string": hash64_utf8(arr),
                "large_string": hash64_utf8(arr.cast(pa.large_string())),
                "sliced": hash64_utf8(
                    pa.array(["pad"] * 3 + texts, pa.string()).slice(3)),
                "chunked": hash64_utf8(pa.chunked_array(
                    [arr.slice(0, cut), arr.slice(cut)])),
            }
            for route, got in routes.items():
                assert (got == expect).all(), route
            null = np.array([t is None for t in texts])
            assert (expect[null] == hash64_utf8(pa.array([""]))[0]).all()
            # the dictionary path drops nulls
            h = column_hashes(pa.table({"s": arr}), "s")
            assert (h == expect[~null]).all()
            # numpy's fixed-width strings drop trailing NULs, so a numpy
            # array can only carry texts without one
            present = [t for t in texts if t is not None]
            if present and not any(t.endswith("\x00") for t in present):
                assert (hash64(np.array(present)) == expect[~null]).all()

        prop()
