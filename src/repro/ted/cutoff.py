"""Threshold-aware (tau-banded) Zhang–Shasha with early exit.

The joins never need an *unbounded* tree edit distance: verification only
asks "is ``TED(T1, T2) <= tau``, and if so what is it?".
:func:`zhang_shasha_bounded` answers exactly that question while doing a
small fraction of the full DP's work:

- **Band.** In every keyroot forest DP, cell ``fd[x][y]`` is the distance
  between a postorder *prefix* of ``x`` nodes and one of ``y`` nodes.  Unit
  insertions/deletions change a forest's size by one, so
  ``fd[x][y] >= |x - y|`` and any cell with ``|x - y| > tau`` is provably
  ``> tau``; only the ``2*tau + 1`` diagonals around the main one are
  filled (``O(min(m, n) * tau)`` cells per keyroot pair instead of
  ``O(m * n)``).
- **Keyroot-pair pruning.** A mapping of cost ``c`` that maps node ``a``
  to node ``b`` maps the nodes left of ``a`` (postorder numbers below
  ``l(a)``) only to nodes left of ``b``, so ``c >= |l(a) - l(b)|``.  This
  is the k-strip observation of H. Touzet, "A linear tree edit distance
  algorithm for similar ordered trees" (CPM 2005).  Only keyroot pairs
  ``(i, j)`` with ``|l(i) - l(j)| <= tau`` can record a tree distance that
  a mapping of cost ``<= tau`` uses, so for each keyroot ``i`` of T1 just
  the keyroots of T2 whose leftmost leaf lies within ``tau`` of ``l(i)``
  are visited (at most ``2*tau + 1``: every keyroot has its own leftmost
  leaf), looked up through :attr:`AnnotatedTree.leaf_keyroot`.  They run
  in ascending postorder, because pair ``(i, j)`` reads tree distances
  that pairs ``(i, j')`` with ``j' < j`` record.
- **Global band.** Every forest cell on an optimal mapping's DP path is
  a split point of the whole mapping: nodes up to ``node1`` of T1 map
  only to nodes up to ``node2`` of T2, and the rest to the rest.  So
  ``c >= |node1 - node2|`` too, and inside a kept pair with
  ``d = l(i) - l(j)`` the band ``|x - y| <= tau`` narrows to
  ``-(tau - max(d, 0)) <= y - x <= tau + min(d, 0)``: row 0, column 0,
  the band edges, the guard cells and the in-band jump test all use these
  two offsets.
- **Saturation.** Values that exceed ``tau`` are capped at the sentinel
  ``tau + 1``.  Capping is sound because the DP is monotone: a capped input
  can only flow into cells whose true value is also ``> tau``.
- **Early exit.** A tree mapping is postorder-monotone, so an edit script
  of cost ``c`` between two forests splits at every prefix ``x`` into a
  prefix-vs-prefix script plus a remainder, each of cost ``<= c``.  Hence
  if *every* in-band cell of a row exceeds ``tau``, no later cell of that
  keyroot DP — including the tree-distance cells it would record — lies
  on a mapping of cost ``<= tau``, and the keyroot pair is abandoned on
  the spot.  Unwritten ``treedist`` entries (from abandoned or pruned
  pairs) default to the sentinel, which keeps later keyroot DPs sound:
  every computed value is still the cost of some edit script or the
  sentinel, and the cells of any mapping of cost ``<= tau`` are computed.
- **Buffer reuse.** One forest-distance buffer sized for the largest
  keyroot pair is allocated per call and reused across all keyroot pairs
  (the classic formulation reallocates it ``|keyroots1| * |keyroots2|``
  times).  Stale out-of-band cells are never read: band-edge cells are
  re-initialised each row and the jump read ``fd[l(i)-li][l(j)-lj]`` is
  guarded by the same offsets that define the band.

The result is exact whenever the true distance is ``<= tau`` (property
tested against :func:`repro.ted.zhang_shasha.zhang_shasha` in
``tests/ted/test_cutoff.py``, on near pairs in both orientations);
otherwise ``None`` is returned.  The band and strip arguments need only
unit insert/delete costs (the paper's model); a custom ``rename_cost``
with non-negative values is supported.  Which orientation a verification
runs — a record's leftmost annotation or its mirrored one — is chosen
before the call by :func:`repro.ted.zhang_shasha.oriented`.

>>> from repro.tree.node import Tree
>>> a, b = Tree.from_bracket("{a{b}{c}}"), Tree.from_bracket("{a{b}}")
>>> zhang_shasha_bounded(a, b, 1)
1
>>> zhang_shasha_bounded(a, Tree.from_bracket("{x{y}{z}{w}}"), 2) is None
True
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.tree.node import Tree
from repro.ted.zhang_shasha import AnnotatedTree, annotated

__all__ = ["zhang_shasha_bounded"]

RenameCost = Callable[[str, str], int]


def _unit_rename(a: str, b: str) -> int:
    return 0 if a == b else 1


def zhang_shasha_bounded(
    t1: Tree | AnnotatedTree,
    t2: Tree | AnnotatedTree,
    tau: int,
    rename_cost: Optional[RenameCost] = None,
) -> Optional[int]:
    """Exact TED if it is ``<= tau``, else ``None`` (the ``> tau`` sentinel).

    Accepts plain trees or pre-computed :class:`AnnotatedTree` views like
    :func:`repro.ted.zhang_shasha.zhang_shasha`; the verifier passes the
    annotations memoized on each tree's record.

    >>> zhang_shasha_bounded(Tree.from_bracket("{a}"), Tree.from_bracket("{a}"), 0)
    0
    """
    if tau < 0:
        return None
    a1, a2 = annotated(t1), annotated(t2)
    n1, n2 = a1.size, a2.size
    if abs(n1 - n2) > tau:
        return None
    rename = rename_cost or _unit_rename

    big = tau + 1  # sentinel: stands for every value > tau
    l1, l2 = a1.lmld, a2.lmld
    lab1, lab2 = a1.labels, a2.labels
    leaf_keyroot2 = a2.leaf_keyroot
    # Tree-distance cells the banded DP never writes are provably > tau or
    # off every mapping of cost <= tau (see the module docstring).
    treedist = [[big] * (n2 + 1) for _ in range(n1 + 1)]
    # The forest-distance buffer, allocated once at the size of the largest
    # keyroot pair (the root pair) and reused for every pair.  Both full
    # matrices cost Theta(n1*n2) sentinel fill per call: ~0.2 ms of a
    # ~1.6 ms call on 150-node trees (Python 3.11, 2-vCPU VM).  Band-offset
    # buffers would save that fill but put extra index arithmetic in every
    # cell visit of the DP loop.
    fd = [[big] * (n2 + 1) for _ in range(n1 + 1)]

    for i in a1.keyroots:
        li = l1[i]
        m = i - li + 2  # forest rows: prefixes of nodes li..i, plus empty
        # Keyroot-pair pruning: only the keyroots of T2 whose leftmost leaf
        # lies within tau of li, in ascending postorder (pair (i, j) reads
        # tree distances that the pairs (i, j') with j' < j recorded).
        first = li - tau if li > tau else 0
        for j in sorted(k for k in leaf_keyroot2[first:li + tau + 1] if k):
            lj = l2[j]
            n = j - lj + 2
            # Global band: cell (x, y) pairs nodes li+x-1 and lj+y-1, and
            # |node1 - node2| <= tau narrows |x - y| <= tau to
            # -left <= y - x <= right.
            d = li - lj
            left = tau - d if d > 0 else tau
            right = tau + d if d < 0 else tau
            # Row 0 (empty left forest): insertions only, banded + guard.
            fd0 = fd[0]
            fd0[0] = 0
            hi0 = right if right < n - 1 else n - 1
            for y in range(1, hi0 + 1):
                fd0[y] = y
            if hi0 + 1 <= n - 1:
                fd0[hi0 + 1] = big  # guard for row 1's `above` reads
            for x in range(1, m):
                lo = x - left if x - left > 1 else 1
                hi = x + right if x + right < n - 1 else n - 1
                if lo > hi:
                    # The whole row lies outside the band: every remaining
                    # cell of this keyroot pair is > tau.
                    break
                row = fd[x]
                above = fd[x - 1]
                node1 = li + x - 1
                l1x = l1[node1]
                label1 = lab1[node1]
                tdrow = treedist[node1]
                whole1 = l1x == li
                jump_row = l1x - li
                fdjump = fd[jump_row]
                if lo == 1:
                    # Column 0 (empty right forest) is a real cell while
                    # x <= left, the left band guard afterwards.
                    row[0] = x if x <= left else big
                else:
                    row[lo - 1] = big
                row_min = row[lo - 1]
                for y in range(lo, hi + 1):
                    node2 = lj + y - 1
                    l2y = l2[node2]
                    best = above[y] + 1  # delete node1
                    alt = row[y - 1] + 1  # insert node2
                    if alt < best:
                        best = alt
                    if whole1 and l2y == lj:
                        # Both prefixes are whole subtrees: rename case,
                        # and the cell is a tree distance to record.
                        alt = above[y - 1] + rename(label1, lab2[node2])
                        if alt < best:
                            best = alt
                        if best > tau:
                            best = big
                        row[y] = best
                        tdrow[node2] = best
                    else:
                        jump_col = l2y - lj
                        if -right <= jump_row - jump_col <= left:
                            # In-band jump cell: written this keyroot pair.
                            alt = fdjump[jump_col] + tdrow[node2]
                            if alt < best:
                                best = alt
                        # else: the jump cell lies outside the band, so its
                        # branch is on no mapping of cost <= tau.
                        if best > tau:
                            best = big
                        row[y] = best
                    if best < row_min:
                        row_min = best
                if hi + 1 <= n - 1:
                    row[hi + 1] = big  # guard for the next row's reads
                if row_min > tau:
                    # Early exit: no cell of this row can recover, so no
                    # later cell of this keyroot pair can either.
                    break
    result = treedist[n1][n2]
    return result if result <= tau else None
