"""Tests for plain and threshold string edit distance (repro.ted.string_edit)."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ted.string_edit import (
    string_edit_alignment,
    string_edit_distance,
    string_edit_within,
)
from tests.ted.band_reference import band_alignment, band_within

words = st.lists(st.sampled_from("abc"), max_size=12).map(tuple)


class TestFullDistance:
    @pytest.mark.parametrize("a,b,expected", [
        ("", "", 0),
        ("", "abc", 3),
        ("abc", "", 3),
        ("abc", "abc", 0),
        ("kitten", "sitting", 3),
        ("flaw", "lawn", 2),
        ("abc", "acb", 2),  # unit-cost model: no transposition
    ])
    def test_known_values(self, a, b, expected):
        assert string_edit_distance(a, b) == expected

    def test_works_on_label_sequences(self):
        a = ["node1", "node2", "node3"]
        b = ["node1", "other", "node3"]
        assert string_edit_distance(a, b) == 1

    @given(words, words)
    def test_symmetry(self, a, b):
        assert string_edit_distance(a, b) == string_edit_distance(b, a)

    @given(words, words, words)
    @settings(max_examples=50)
    def test_triangle_inequality(self, a, b, c):
        ab = string_edit_distance(a, b)
        bc = string_edit_distance(b, c)
        ac = string_edit_distance(a, c)
        assert ac <= ab + bc

    @given(words)
    def test_identity(self, a):
        assert string_edit_distance(a, a) == 0


class TestBanded:
    @given(words, words, st.integers(min_value=0, max_value=6))
    @settings(max_examples=200)
    def test_agrees_with_full_computation(self, a, b, tau):
        full = string_edit_distance(a, b)
        banded = string_edit_within(a, b, tau)
        if full <= tau:
            assert banded == full
        else:
            assert banded is None

    def test_negative_tau(self):
        assert string_edit_within("a", "a", -1) is None

    def test_length_difference_shortcut(self):
        assert string_edit_within("a", "abcdef", 2) is None

    def test_empty_sides(self):
        assert string_edit_within("", "ab", 2) == 2
        assert string_edit_within("ab", "", 1) is None
        assert string_edit_within("", "", 0) == 0

    def test_early_exit_on_long_dissimilar_strings(self):
        # Completely different symbols: the band saturates immediately.
        a = ["x"] * 500
        b = ["y"] * 500
        assert string_edit_within(a, b, 3) is None

    def test_randomized_against_full(self):
        rng = random.Random(7)
        for _ in range(200):
            a = [rng.choice("ab") for _ in range(rng.randint(0, 15))]
            b = [rng.choice("ab") for _ in range(rng.randint(0, 15))]
            tau = rng.randint(0, 5)
            full = string_edit_distance(a, b)
            expected = full if full <= tau else None
            assert string_edit_within(a, b, tau) == expected


# -- The threshold kernel against the banded DP it replaced ------------------
#
# tests/ted/band_reference.py keeps Ukkonen's banded DP and its traceback.
# The Landau–Vishkin kernel must return the same distance (or None) and,
# for the alignment, the very same pairs: the verifier certifies a pair
# from them, so a different optimal alignment would move its counters.

# Alphabets of 1, 2, 3 and 20 symbols, each as label ids (holding id 0,
# which codes as 0 like the padding past a sequence's end) and as strings
# (holding "", the label that interns to id 0).
ALPHABETS = [
    alphabet
    for size in (1, 2, 3, 20)
    for alphabet in (
        list(range(size)),
        [""] + [chr(ord("a") + k) for k in range(size - 1)],
    )
]


@st.composite
def edited_pairs(draw):
    """``(a, b, tau)``: ``b`` is ``a`` after up to ``tau + 2`` random
    edits, so the kernel sees pairs on both sides of ``tau``; ``tau``
    runs 0-6, or exceeds both lengths.

    Half the bases repeat a short unit, and one edit kind moves a symbol
    to the end of a stretch: over a periodic stretch the traceback can
    then delete first or insert first at equal cost, which is where the
    two kernels' step orders must agree.
    """
    alphabet = draw(st.sampled_from(ALPHABETS))
    symbols = st.sampled_from(alphabet)
    large = draw(st.booleans()) and draw(st.booleans())
    length = draw(st.integers(min_value=0, max_value=6 if large else 30))
    if draw(st.booleans()):
        unit = draw(st.lists(symbols, min_size=1, max_size=3))
        a = (unit * 30)[:length]
    else:
        a = draw(st.lists(symbols, min_size=length, max_size=length))
    tau = draw(st.integers(min_value=0, max_value=6))
    b = list(a)
    for _ in range(draw(st.integers(min_value=0, max_value=tau + 2))):
        kind = draw(st.sampled_from(("insert", "delete", "rename", "move")))
        if kind == "insert":
            b.insert(draw(st.integers(0, len(b))), draw(symbols))
        elif b:
            p = draw(st.integers(0, len(b) - 1))
            if kind == "delete":
                del b[p]
            elif kind == "rename":
                b[p] = draw(symbols)
            else:
                q = draw(st.integers(p, len(b) - 1))
                b[p:q + 1] = b[p + 1:q + 1] + b[p:p + 1]
    if large:
        tau = max(len(a), len(b)) + draw(st.integers(min_value=1, max_value=3))
    if draw(st.booleans()):
        a, b = tuple(a), tuple(b)
    return a, b, tau


def assert_parity(a, b, tau):
    """Kernel and band agree on both functions, in both argument orders."""
    for x, y in ((a, b), (b, a)):
        assert string_edit_within(x, y, tau) == band_within(x, y, tau)
        assert string_edit_alignment(x, y, tau) == band_alignment(x, y, tau)


class TestKernelParity:
    @given(edited_pairs())
    @settings(max_examples=600, deadline=None)
    @example((("a", "b", "a"), ("b", "a", "b"), 2))  # delete and insert tie
    def test_matches_the_band(self, case):
        assert_parity(*case)

    @pytest.mark.parametrize("a,b", [
        ("", ""), ("", "ab"), ((0, 0), ()), ((0,), (0, 0)), (("",), ("", "")),
        ((0, 5), (5,)), ((5, 0), (0, 5, 0)), ((0, 1, 0), (1, 0, 1, 0)),
    ])
    def test_empty_sequences_and_zero_symbols(self, a, b):
        for tau in range(5):
            assert_parity(a, b, tau)

    @pytest.mark.parametrize("alphabet", [1, 2])
    def test_long_sequences(self, alphabet):
        # 5,000 symbols with edits at both ends and in the middle: the
        # traceback's runs cross the common prefix and suffix, and over
        # one symbol nearly everything is one run.
        rng = random.Random(5000 + alphabet)
        base = [rng.randrange(alphabet) for _ in range(5000)]
        for edits in range(5):
            b = list(base)
            for k in range(edits):
                position = (0, len(b) // 2, len(b) - 1)[k % 3]
                if k % 2 and alphabet > 1:
                    b[position] = 1 - b[position]
                elif rng.random() < 0.5:
                    del b[position]
                else:
                    b.insert(position, rng.randrange(alphabet))
            for tau in sorted({max(edits - 1, 0), edits, 4}):
                assert_parity(base, b, tau)

    @pytest.mark.parametrize("a,b", [
        ([2**40, 2**40 + 1, 3], [2**40, 3, 2**40 + 1]),  # wider than 32 bits
        ([-1, -2, 5, -1], [-1, 5, -2]),  # negative
        ([1.5, 2.0, 2, 0.5], [2, 1.5, 0.5]),  # floats, and 2.0 == 2
        ([1, 1.0, True, 2], [True, 2, 1, 1.0]),  # 1 == 1.0 == True
        (["a", 1, 1.0, ""], [1, "a", "", 0]),  # mixed types
        (b"kitten", b"sitting"),  # bytes: sequences of ints
    ])
    def test_symbols_that_are_not_label_ids(self, a, b):
        full = string_edit_distance(a, b)
        for tau in range(6):
            for x, y in ((a, b), (b, a)):
                expected = full if full <= tau else None
                assert string_edit_within(x, y, tau) == expected
                aligned = string_edit_alignment(x, y, tau)
                assert (aligned and aligned[0]) == expected
                assert aligned == band_alignment(x, y, tau)
