"""Cross-cutting metric properties of the TED implementations.

These hypothesis tests treat the TED stack as a black box and assert the
mathematical facts the joins rely on: TED is a metric, it is bounded by
edit-script length (upper) and by every published filter bound (lower), and
the three implementations are interchangeable.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ted.api import ted
from repro.ted.bounds import composite_lower_bound, trivial_upper_bound
from repro.ted.simple import ted_reference
from repro.ted.zhang_shasha import zhang_shasha
from repro.tree.edits import random_script
from tests.conftest import LABELS, trees


@given(trees(max_size=7), trees(max_size=7), trees(max_size=7))
@settings(max_examples=30, deadline=None)
def test_triangle_inequality(t1, t2, t3):
    d12 = zhang_shasha(t1, t2)
    d23 = zhang_shasha(t2, t3)
    d13 = zhang_shasha(t1, t3)
    assert d13 <= d12 + d23


@given(trees(max_size=8), trees(max_size=8))
@settings(max_examples=40, deadline=None)
def test_implementations_interchangeable(t1, t2):
    reference = ted_reference(t1, t2)
    assert zhang_shasha(t1, t2) == reference
    assert ted(t1, t2) == reference


@given(trees(max_size=9), trees(max_size=9))
@settings(max_examples=40, deadline=None)
def test_sandwiched_by_bounds(t1, t2):
    exact = zhang_shasha(t1, t2)
    assert composite_lower_bound(t1, t2) <= exact <= trivial_upper_bound(t1, t2)


@given(trees(max_size=7), st.integers(min_value=0, max_value=5),
       st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_zero_iff_identical_and_script_bound(tree, k, seed):
    rng = random.Random(seed)
    edited, ops = random_script(tree, k, rng, LABELS)
    distance = zhang_shasha(tree, edited)
    assert distance <= len(ops)
    if distance == 0:
        # Zero distance must mean the trees are structurally identical.
        assert tree == edited
    if tree == edited:
        assert distance == 0
