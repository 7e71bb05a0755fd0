"""Zhang–Shasha tree edit distance ([29] in the paper).

The classic keyroot dynamic program: ``O(n1*n2*min(d1,l1)*min(d2,l2))`` time
(``O(n^4)`` worst case, ``O(n^2 log^2 n)`` for balanced trees) and
``O(n1*n2)`` space.  This is the workhorse TED used to verify candidate
pairs in every join method of this repository; the shape-adaptive wrapper in
:mod:`repro.ted.rted` builds on it.

Implementation notes
---------------------
Nodes are numbered 1..n in *general-tree postorder*.  ``l(i)`` is the
postorder number of the leftmost leaf of the subtree rooted at node ``i``.
The LR-keyroots are the nodes with the largest postorder number among all
nodes sharing their ``l`` value (the root plus every node with a left
sibling).  For each keyroot pair a forest-distance table is filled; tree
distances for all node pairs accumulate in ``treedist`` and the answer is
``treedist[n1][n2]``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.tree.node import Tree, TreeNode

__all__ = ["zhang_shasha", "AnnotatedTree"]

RenameCost = Callable[[str, str], int]


def _unit_rename(a: str, b: str) -> int:
    return 0 if a == b else 1


class AnnotatedTree:
    """Postorder arrays Zhang–Shasha needs, computed once per tree.

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

    def __init__(self, tree: Tree):
        order: list[TreeNode] = list(tree.iter_postorder())
        n = len(order)
        index_of = {node: i for i, node in enumerate(order, start=1)}
        labels: list[str] = [""] * (n + 1)
        lmld: list[int] = [0] * (n + 1)
        for i, node in enumerate(order, start=1):
            labels[i] = node.label
            if node.children:
                lmld[i] = lmld[index_of[node.children[0]]]
            else:
                lmld[i] = i
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
        the hybrid in :mod:`repro.ted.rted` uses this to pick a
        decomposition orientation.
        Computed once and memoized — the verifier consults it for all four
        annotations of every candidate pair.
        """
        if self._keyroot_weight is None:
            self._keyroot_weight = sum(k - self.lmld[k] + 1 for k in self.keyroots)
        return self._keyroot_weight


def zhang_shasha(
    t1: Tree | AnnotatedTree,
    t2: Tree | AnnotatedTree,
    rename_cost: Optional[RenameCost] = None,
) -> int:
    """Exact tree edit distance between two rooted ordered labeled trees.

    Accepts plain trees or pre-computed :class:`AnnotatedTree` wrappers
    (joins annotate each tree once and reuse it across many verifications).

    >>> zhang_shasha(Tree.from_bracket("{a{b}{c}}"), Tree.from_bracket("{a{b}}"))
    1
    """
    a1 = t1 if isinstance(t1, AnnotatedTree) else AnnotatedTree(t1)
    a2 = t2 if isinstance(t2, AnnotatedTree) else AnnotatedTree(t2)
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
