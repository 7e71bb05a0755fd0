"""Zhang–Shasha tree edit distance ([29] in the paper).

The classic keyroot dynamic program: ``O(n1*n2*min(d1,l1)*min(d2,l2))`` time
(``O(n^4)`` worst case, ``O(n^2 log^2 n)`` for balanced trees) and
``O(n1*n2)`` space.  This unbounded form is what :func:`repro.ted.ted`
runs and what the tau-banded DP of :mod:`repro.ted.cutoff` is tested
against; the joins verify with the banded form.

Implementation notes
---------------------
Nodes are numbered 1..n in *general-tree postorder*.  ``l(i)`` is the
postorder number of the leftmost leaf of the subtree rooted at node ``i``.
The LR-keyroots are the nodes with the largest postorder number among all
nodes sharing their ``l`` value (the root plus every node with a left
sibling).  For each keyroot pair a forest-distance table is filled; tree
distances for all node pairs accumulate in ``treedist`` and the answer is
``treedist[n1][n2]``.

The per-tree arrays (:class:`AnnotatedTree`) are views of the tree's flat
record: :attr:`repro.core.treecache.TreeCache.annotation` decomposes
along leftmost paths, ``mirror_annotation`` is the same view of the
mirror image (every child list reversed, which preserves TED).
:func:`oriented` picks the cheaper of the two — the RTED-style rule —
for :func:`repro.ted.ted` and the verifier.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.tree.node import Tree

if TYPE_CHECKING:  # pragma: no cover - typing only; repro.core builds on this
    from repro.core.treecache import TreeCache

__all__ = [
    "zhang_shasha", "AnnotatedTree", "annotated", "oriented", "MIRROR_SIZE_CUTOFF"
]

RenameCost = Callable[[str, str], int]


def _unit_rename(a: str, b: str) -> int:
    return 0 if a == b else 1


class AnnotatedTree:
    """Postorder arrays Zhang–Shasha needs, computed once per tree.

    Built by a record's ``annotation`` / ``mirror_annotation`` views
    (:class:`repro.core.treecache.TreeCache`), or by :func:`annotated`
    for a plain tree; the constructor derives the keyroots from the
    leftmost-leaf array.

    Attributes
    ----------
    labels:
        ``labels[i]`` is the label of postorder node ``i`` (1-based;
        index 0 unused).
    lmld:
        ``lmld[i]`` is the postorder number of the leftmost leaf descendant
        of node ``i``.
    keyroots:
        Ascending postorder numbers of the LR-keyroots.
    leaf_keyroot:
        ``leaf_keyroot[l]`` is the keyroot whose leftmost leaf is node
        ``l``, or 0 when ``l`` is not a leaf.  Every leaf is the leftmost
        leaf of exactly one keyroot, so this is a bijection between leaves
        and keyroots; the tau-banded DP uses it to find the keyroots whose
        leftmost leaves lie near a given position.
    """

    __slots__ = (
        "size", "labels", "lmld", "keyroots", "leaf_keyroot", "_keyroot_weight"
    )

    def __init__(self, labels: list[str], lmld: list[int]):
        n = len(lmld) - 1
        # A node is a keyroot iff no later node shares its leftmost leaf,
        # i.e. it is the highest node on its leftmost-path.
        leaf_keyroot: list[int] = [0] * (n + 1)
        for i in range(1, n + 1):
            leaf_keyroot[lmld[i]] = i
        self.size = n
        self.labels = labels
        self.lmld = lmld
        self.keyroots = sorted(k for k in leaf_keyroot if k)
        self.leaf_keyroot = leaf_keyroot
        self._keyroot_weight: Optional[int] = None

    def keyroot_weight(self) -> int:
        """Sum of keyroot subtree sizes: |subtree(k)| = k - lmld[k] + 1.

        The number of forest-distance cells the unbounded Zhang–Shasha
        fills for a tree pair factorizes as ``weight(T1) * weight(T2)``;
        :func:`oriented` compares these products to pick a decomposition
        orientation.  Memoized — the verifier consults it for all four
        annotations of every candidate pair.
        """
        if self._keyroot_weight is None:
            self._keyroot_weight = sum(k - self.lmld[k] + 1 for k in self.keyroots)
        return self._keyroot_weight


# Below this size on both sides the orientation choice cannot pay for
# building two mirrored annotations: a small DP is cheap either way.
MIRROR_SIZE_CUTOFF = 16


def oriented(a: "TreeCache", b: "TreeCache") -> tuple[AnnotatedTree, AnnotatedTree]:
    """Two records' annotations in the cheaper Zhang–Shasha orientation.

    RTED's idea ([20] in the paper), one level up: Zhang–Shasha
    decomposes along leftmost paths, and the unbounded DP fills exactly
    ``weight(a) * weight(b)`` forest cells (``weight`` sums the keyroot
    subtree sizes).  Mirroring both trees preserves TED but turns
    leftmost paths into rightmost ones, so the orientation with the
    smaller keyroot-weight product runs — on a leaf-first comb the
    difference between ``O(n^2)`` and ``O(n^4)`` cells.  For the
    tau-banded DP the product is only a proxy.  When both trees have
    fewer than :data:`MIRROR_SIZE_CUTOFF` nodes the leftmost orientation
    is kept without building the mirrored annotations.
    """
    x1, x2 = a.annotation, b.annotation
    if a.size < MIRROR_SIZE_CUTOFF and b.size < MIRROR_SIZE_CUTOFF:
        return x1, x2
    y1, y2 = a.mirror_annotation, b.mirror_annotation
    if y1.keyroot_weight() * y2.keyroot_weight() < (
        x1.keyroot_weight() * x2.keyroot_weight()
    ):
        return y1, y2
    return x1, x2


def annotated(tree: "Tree | AnnotatedTree") -> AnnotatedTree:
    """``tree``'s leftmost annotation (an annotation is returned as is)."""
    if isinstance(tree, AnnotatedTree):
        return tree
    # Local import: repro.core builds on this package.
    from repro.core.intern import LabelInterner
    from repro.core.treecache import TreeCache

    return TreeCache(tree, LabelInterner()).annotation


def zhang_shasha(
    t1: Tree | AnnotatedTree,
    t2: Tree | AnnotatedTree,
    rename_cost: Optional[RenameCost] = None,
) -> int:
    """Exact tree edit distance between two rooted ordered labeled trees.

    Accepts plain trees or pre-computed :class:`AnnotatedTree` views
    (records annotate each tree once and reuse it across many calls).

    >>> zhang_shasha(Tree.from_bracket("{a{b}{c}}"), Tree.from_bracket("{a{b}}"))
    1
    """
    a1, a2 = annotated(t1), annotated(t2)
    rename = rename_cost or _unit_rename

    n1, n2 = a1.size, a2.size
    l1, l2 = a1.lmld, a2.lmld
    lab1, lab2 = a1.labels, a2.labels
    treedist = [[0] * (n2 + 1) for _ in range(n1 + 1)]

    for i in tuple(a1.keyroots):
        li = l1[i]
        m = i - li + 2  # forest rows: prefixes of nodes li..i, plus empty
        for j in tuple(a2.keyroots):
            lj = l2[j]
            n = j - lj + 2
            # fd[x][y]: distance between forest l1[i]..(li+x-1) and
            # forest l2[j]..(lj+y-1); x=0/y=0 are the empty forests.
            fd = [[0] * n for _ in range(m)]
            for x in range(1, m):
                fd[x][0] = fd[x - 1][0] + 1  # delete
            fd0 = fd[0]
            for y in range(1, n):
                fd0[y] = fd0[y - 1] + 1  # insert
            for x in range(1, m):
                row = fd[x]
                above = fd[x - 1]
                node1 = li + x - 1
                l1x = l1[node1]
                label1 = lab1[node1]
                tdrow = treedist[node1]
                for y in range(1, n):
                    node2 = lj + y - 1
                    if l1x == li and l2[node2] == lj:
                        # Both prefixes are whole subtrees: record treedist.
                        best = above[y] + 1
                        alt = row[y - 1] + 1
                        if alt < best:
                            best = alt
                        alt = above[y - 1] + rename(label1, lab2[node2])
                        if alt < best:
                            best = alt
                        row[y] = best
                        tdrow[node2] = best
                    else:
                        best = above[y] + 1
                        alt = row[y - 1] + 1
                        if alt < best:
                            best = alt
                        alt = (
                            fd[l1x - li][l2[node2] - lj]
                            + tdrow[node2]
                        )
                        if alt < best:
                            best = alt
                        row[y] = best
    return treedist[n1][n2]
