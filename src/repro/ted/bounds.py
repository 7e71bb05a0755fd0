"""Lower (and trivial upper) bounds on the tree edit distance.

These are the filters the baseline joins are built from.  Every bound ``b``
satisfies ``b(T1, T2) <= TED(T1, T2)`` (property-tested against the exact
distance in ``tests/ted/test_bounds.py``):

- :func:`size_lower_bound` — each edit changes the size by at most 1.
- :func:`label_multiset_lower_bound` — a rename moves one label (2 units of
  L1 distance between label multisets), insert/delete add/remove one label
  (1 unit); so ``TED >= ceil(L1 / 2)`` (Kailing et al. [16]).
- :func:`degree_histogram_lower_bound` — an insert/delete moves at most one
  existing node across degree buckets (2 units) and adds/removes one entry
  (1 unit), so ``TED >= ceil(L1_degrees / 3)`` (in the spirit of [16]).
- :func:`traversal_string_lower_bound` — the string edit distance between
  preorder (and postorder) label sequences lower-bounds TED (Guha et
  al. [13]); the bound is the max of the two.
- :func:`binary_branch_lower_bound` — ``BIB(T1,T2) <= 5 * TED(T1,T2)``
  (Yang et al. [27]), so ``TED >= ceil(BIB / 5)``.

:func:`composite_lower_bound` takes the max of the cheap bounds, which the
exact-join verifier uses to skip TED computations.  The verifier reads the
per-tree bags each bound is an L1 distance over as views of the tree's
record (``repro.core.treecache.TreeCache``, over interned label ids) and
evaluates the bounds via the ``*_bound_from_bags`` forms in O(distinct
keys) per pair, instead of re-traversing both trees.
"""

from __future__ import annotations

from collections import Counter

from repro.ted.binary_branch import binary_branches
from repro.tree.node import Tree
from repro.ted.string_edit import string_edit_distance

__all__ = [
    "multiset_l1",
    "size_lower_bound",
    "label_multiset_lower_bound",
    "label_bound_from_bags",
    "degree_histogram_lower_bound",
    "degree_bound_from_bags",
    "traversal_string_lower_bound",
    "binary_branch_lower_bound",
    "branch_bound_from_bags",
    "composite_lower_bound",
    "composite_lower_bound_from_bags",
    "trivial_upper_bound",
    "trivial_upper_bound_from_parts",
]


def size_lower_bound(t1: Tree, t2: Tree) -> int:
    """``|size(T1) - size(T2)|``: the size filter of every join method."""
    return abs(t1.size - t2.size)


def multiset_l1(c1: Counter, c2: Counter) -> int:
    """L1 distance between two bags, ``O(distinct keys)``."""
    keys = set(c1) | set(c2)
    return sum(abs(c1.get(k, 0) - c2.get(k, 0)) for k in keys)


_multiset_l1 = multiset_l1  # backwards-compatible alias


def label_multiset_lower_bound(t1: Tree, t2: Tree) -> int:
    """``ceil(L1(label bags) / 2) <= TED``.

    Proof sketch: a rename changes the bag by one removal plus one addition
    (L1 moves by at most 2); insert/delete by one addition/removal (at most
    1).  Hence ``L1 <= 2 * TED``.
    """
    return label_bound_from_bags(Counter(t1.labels()), Counter(t2.labels()))


def label_bound_from_bags(bag1: Counter, bag2: Counter) -> int:
    """:func:`label_multiset_lower_bound` over precomputed label bags."""
    return (multiset_l1(bag1, bag2) + 1) // 2


def degree_histogram_lower_bound(t1: Tree, t2: Tree) -> int:
    """``ceil(L1(degree histograms) / 3) <= TED``.

    Proof sketch: a rename does not touch degrees.  Inserting ``Nx`` between
    ``Np`` and ``k`` of its children moves ``Np`` across buckets (L1 <= 2)
    and adds one entry for ``Nx`` (L1 <= 1); deletion is symmetric.  Hence
    ``L1 <= 3 * TED``.
    """
    h1 = Counter(node.degree for node in t1.iter_preorder())
    h2 = Counter(node.degree for node in t2.iter_preorder())
    return degree_bound_from_bags(h1, h2)


def degree_bound_from_bags(bag1: Counter, bag2: Counter) -> int:
    """:func:`degree_histogram_lower_bound` over precomputed histograms."""
    return (multiset_l1(bag1, bag2) + 2) // 3


def branch_bound_from_bags(bag1: Counter, bag2: Counter) -> int:
    """:func:`binary_branch_lower_bound` over precomputed branch bags."""
    return (multiset_l1(bag1, bag2) + 4) // 5


def traversal_string_lower_bound(t1: Tree, t2: Tree) -> int:
    """``max(SED(pre), SED(post)) <= TED`` (Guha et al. [13]).

    This is the full (unbanded) bound; joins use the banded variant in
    :mod:`repro.ted.string_edit` instead.
    """
    pre = string_edit_distance(t1.preorder_labels(), t2.preorder_labels())
    post = string_edit_distance(t1.postorder_labels(), t2.postorder_labels())
    return max(pre, post)


def binary_branch_lower_bound(t1: Tree, t2: Tree) -> int:
    """``ceil(BIB(T1,T2) / 5) <= TED`` (Yang et al. [27])."""
    return branch_bound_from_bags(binary_branches(t1), binary_branches(t2))


def composite_lower_bound(t1: Tree, t2: Tree) -> int:
    """Max of the O(n)-computable bounds (size, labels, degrees, branches)."""
    return composite_lower_bound_from_bags(
        t1.size,
        t2.size,
        Counter(t1.labels()),
        Counter(t2.labels()),
        Counter(node.degree for node in t1.iter_preorder()),
        Counter(node.degree for node in t2.iter_preorder()),
        binary_branches(t1),
        binary_branches(t2),
    )


def composite_lower_bound_from_bags(
    size1: int,
    size2: int,
    labels1: Counter,
    labels2: Counter,
    degrees1: Counter,
    degrees2: Counter,
    branches1: Counter,
    branches2: Counter,
) -> int:
    """:func:`composite_lower_bound` over precomputed per-tree bags.

    Every input is computable once per tree (the verifier memoizes them on
    each tree's record), so a pair costs three multiset L1 distances —
    ``O(distinct keys)`` — with no tree traversal.  Threshold filters that want to stop at the first
    bound exceeding ``tau`` (and to exclude bounds a join's candidate
    screen already applied) chain the ``*_bound_from_bags`` functions
    directly, as ``Verifier.verify`` does.
    """
    return max(
        abs(size1 - size2),
        label_bound_from_bags(labels1, labels2),
        degree_bound_from_bags(degrees1, degrees2),
        branch_bound_from_bags(branches1, branches2),
    )


def trivial_upper_bound(t1: Tree, t2: Tree) -> int:
    """An always-valid upper bound on TED.

    Delete every non-root node of ``T1`` (``size-1`` ops), rename the root
    if needed, insert every non-root node of ``T2``.
    """
    return trivial_upper_bound_from_parts(
        t1.size, t2.size, t1.root.label == t2.root.label
    )


def trivial_upper_bound_from_parts(
    size1: int, size2: int, roots_equal: bool
) -> int:
    """:func:`trivial_upper_bound` from cached sizes and root labels.

    The single definition of the bound; the verifier's O(1) acceptance
    short-circuit calls this so it can never diverge from the tree form.
    """
    return (size1 - 1) + (0 if roots_equal else 1) + (size2 - 1)
