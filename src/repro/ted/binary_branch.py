"""Binary branches (Yang et al. [27]), the structure behind the SET baseline.

A *binary branch* of a tree is a one-level twig of its binary (LC-RS)
representation: a node together with its two binary children, where a
missing child is a dummy node with the empty label ``""`` (the paper's
epsilon).  A tree of ``n`` nodes has exactly ``n`` binary branches.  The
binary branch distance

``BIB(T1, T2) = |X1| + |X2| - 2 |X1 ∩ X2|``

(with bag semantics for the intersection) satisfies
``BIB(T1, T2) <= 5 * TED(T1, T2)``, giving the SET filter.

Note on the paper's Figure 3: the figure illustrates branches on trees that
are *already* binary and reads them off directly (yielding ``BIB = 6`` for
its example).  Yang et al.'s definition -- for which the ``5 * TED`` bound
is proven -- first applies the LC-RS transform to the input tree, which is
what this module does (the same example yields ``BIB = 4``; both values
respect the bound, ``TED = 3``).
"""

from __future__ import annotations

from collections import Counter

from repro.tree.node import Tree

__all__ = [
    "EPSILON",
    "BranchBag",
    "binary_branches",
    "binary_branch_distance",
    "branch_bag_distance",
]

EPSILON = ""  # label of the dummy node for a missing binary child

BranchBag = Counter  # bag of (label, left_label, right_label) twigs


def binary_branches(tree: Tree) -> BranchBag:
    """The bag of binary branches of ``tree`` (paper Figure 3).

    Each element is the preordered label triple
    ``(label, left_child_label, right_child_label)`` over the LC-RS
    representation, with ``EPSILON`` for missing children: the
    :attr:`~repro.core.treecache.TreeCache.branch_bag` view of the tree's
    record, with label ids turned back into labels.

    >>> bag = binary_branches(Tree.from_bracket("{a{b}{c}}"))
    >>> sorted(bag.elements())[0]
    ('a', 'b', '')
    """
    # Local imports: repro.core builds on this package.
    from repro.core.intern import LabelInterner
    from repro.core.treecache import TreeCache

    record = TreeCache(tree, LabelInterner())
    label = record.interner.label  # id 0 is EPSILON
    return Counter({
        (label(a), label(b), label(c)): count
        for (a, b, c), count in record.branch_bag.items()
    })


def branch_bag_distance(bag1: BranchBag, bag2: BranchBag) -> int:
    """``|X1| + |X2| - 2 |X1 ∩ X2|`` with bag intersection.

    This form (rather than symmetric difference of sets) is what the paper
    defines; it equals the L1 distance between the bags' count vectors.
    """
    size1 = sum(bag1.values())
    size2 = sum(bag2.values())
    common = sum((bag1 & bag2).values())
    return size1 + size2 - 2 * common


def binary_branch_distance(t1: Tree, t2: Tree) -> int:
    """``BIB(T1, T2)`` computed from scratch.

    >>> t1 = Tree.from_bracket("{a{b}{a{c}}}")  # the trees of Figure 3
    >>> t2 = Tree.from_bracket("{a{b{a}{c}}}")
    >>> binary_branch_distance(t1, t2)  # <= 5 * TED = 15
    4
    """
    return branch_bag_distance(binary_branches(t1), binary_branches(t2))
