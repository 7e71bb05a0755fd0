"""Shape-adaptive TED in the spirit of RTED ([20] in the paper).

RTED's contribution is to *choose a decomposition strategy from the tree
shapes* before running the distance computation, so that no single
adversarial shape (left combs, right combs) forces the worst case.  The
full RTED strategy computation (a dynamic program over per-subtree path
choices) is out of scope for this reproduction; we implement the same idea
one level up, which is the part that matters for join verification cost:

- Zhang–Shasha decomposes along *leftmost* paths; the unbounded DP
  (:func:`repro.ted.zhang_shasha.zhang_shasha`) fills exactly
  ``weight(T1) * weight(T2)`` forest-distance cells, where ``weight`` sums
  keyroot subtree sizes.  The tau-banded DP
  (:func:`repro.ted.cutoff.zhang_shasha_bounded`) fills far fewer; for it
  the product is only a proxy that picks the orientation.
- Mirroring both trees (reversing every child list) preserves the tree edit
  distance — the optimal edit script mirrors along — but turns leftmost
  paths into rightmost paths.

``ted_hybrid`` therefore evaluates the keyroot weight of both orientations
and runs Zhang–Shasha on the cheaper one.  On a left-comb pair this is the
difference between ``O(n^2)`` and ``O(n^4)`` cells, mirroring (pun intended)
RTED's robustness result.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.tree.node import Tree, TreeNode
from repro.ted.zhang_shasha import AnnotatedTree, zhang_shasha

__all__ = [
    "MIRROR_SIZE_CUTOFF",
    "ted_hybrid",
    "mirror_tree",
    "decomposition_costs",
    "choose_orientation",
    "oriented_pair",
]

RenameCost = Callable[[str, str], int]

# Below this size the orientation choice cannot matter enough to pay for
# mirroring both trees (mirror + annotation are O(n) each, and a tiny DP is
# cheap under either orientation).  Threshold-aware callers (the verifier,
# ted_within) pass it to oriented_pair; ted_hybrid keeps the pure choice.
MIRROR_SIZE_CUTOFF = 16


def mirror_tree(tree: Tree) -> Tree:
    """Return a copy of ``tree`` with every child list reversed.

    Mirroring is an involution and a TED isometry:
    ``TED(mirror(a), mirror(b)) == TED(a, b)`` because reversing children
    order maps edit scripts one-to-one.
    """
    def mirror(node: TreeNode) -> TreeNode:
        return TreeNode(node.label, [mirror(child) for child in reversed(node.children)])

    # Recursion depth equals tree depth; convert to iterative for deep trees.
    try:
        return Tree(mirror(tree.root))
    except RecursionError:  # pragma: no cover - only for pathological depth
        return _mirror_iterative(tree)


def _mirror_iterative(tree: Tree) -> Tree:
    twins: dict[int, TreeNode] = {}
    for node in tree.root.iter_postorder():
        # Identity lookup within one traversal, never iterated.
        twins[id(node)] = TreeNode(  # repro: allow[determinism]
            node.label, [twins[id(child)] for child in reversed(node.children)]
        )
    return Tree(twins[id(tree.root)])


def decomposition_costs(t1: Tree, t2: Tree) -> tuple[int, int]:
    """Unbounded Zhang–Shasha cell counts for (left, right) decompositions.

    Returns the pair ``(left_cost, right_cost)`` where each cost is
    ``weight(T1) * weight(T2)`` under the corresponding orientation.
    """
    left = AnnotatedTree(t1).keyroot_weight() * AnnotatedTree(t2).keyroot_weight()
    right = (
        AnnotatedTree(mirror_tree(t1)).keyroot_weight()
        * AnnotatedTree(mirror_tree(t2)).keyroot_weight()
    )
    return left, right


def choose_orientation(
    a1: AnnotatedTree,
    a2: AnnotatedTree,
    mirrored: "Callable[[], tuple[AnnotatedTree, AnnotatedTree]]",
    size_cutoff: int = 0,
) -> tuple[AnnotatedTree, AnnotatedTree]:
    """The single definition of the orientation heuristic.

    Compares the keyroot-weight products of both orientations and returns
    the cheaper annotated pair; ``mirrored`` supplies the mirrored
    annotations only when actually needed (the verifier passes its cached
    getters).  With ``size_cutoff`` set, pairs of trees that are both
    smaller keep the leftmost orientation without ever mirroring.
    """
    if size_cutoff and a1.size < size_cutoff and a2.size < size_cutoff:
        return a1, a2
    left_cost = a1.keyroot_weight() * a2.keyroot_weight()
    b1, b2 = mirrored()
    if b1.keyroot_weight() * b2.keyroot_weight() < left_cost:
        return b1, b2
    return a1, a2


def oriented_pair(
    t1: Tree,
    t2: Tree,
    size_cutoff: int = 0,
) -> tuple[AnnotatedTree, AnnotatedTree]:
    """Annotations of ``(t1, t2)`` in the cheaper decomposition orientation."""
    return choose_orientation(
        AnnotatedTree(t1),
        AnnotatedTree(t2),
        lambda: (AnnotatedTree(mirror_tree(t1)), AnnotatedTree(mirror_tree(t2))),
        size_cutoff,
    )


def ted_hybrid(
    t1: Tree,
    t2: Tree,
    rename_cost: Optional[RenameCost] = None,
) -> int:
    """Exact TED, running Zhang–Shasha on the cheaper orientation.

    >>> a = Tree.from_bracket("{a{b{c{d}}}}")
    >>> ted_hybrid(a, Tree.from_bracket("{a{b{c}}}"))
    1
    """
    x1, x2 = oriented_pair(t1, t2)
    return zhang_shasha(x1, x2, rename_cost)
