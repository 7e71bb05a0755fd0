"""Public entry points for tree edit distance computation.

``ted`` is the one exact distance: the unbounded Zhang–Shasha DP on the
cheaper orientation of the two trees' records.  ``ted_within`` is the
threshold form every join verifies with; it runs the joins' own
:class:`~repro.baselines.common.Verifier` (bounds, then the preorder
alignment's certificate, then the tau-banded DP) on the pair.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.params import check_tau
from repro.tree.node import Tree
from repro.ted.zhang_shasha import oriented, zhang_shasha

__all__ = ["ted", "ted_within"]

RenameCost = Callable[[str, str], int]


def ted(
    t1: Tree,
    t2: Tree,
    rename_cost: Optional[RenameCost] = None,
) -> int:
    """Exact tree edit distance between two rooted ordered labeled trees.

    Parameters
    ----------
    t1, t2:
        The trees to compare.
    rename_cost:
        Optional rename cost ``(label_a, label_b) -> int``; insert and
        delete always cost 1 (the paper's unit model).

    >>> ted(Tree.from_bracket("{a{b}{c}}"), Tree.from_bracket("{a{c}}"))
    1
    """
    # Local imports: repro.core builds on this package.
    from repro.core.intern import LabelInterner
    from repro.core.treecache import TreeCache

    interner = LabelInterner()
    a1, a2 = oriented(TreeCache(t1, interner), TreeCache(t2, interner))
    return zhang_shasha(a1, a2, rename_cost)


def ted_within(t1: Tree, t2: Tree, tau: int) -> Optional[int]:
    """Return ``TED(t1, t2)`` if it is ``<= tau``, else ``None``.

    The pair runs the verification pipeline of every join: the O(1)
    trivial upper bound, the size and label-bag lower bounds, then the
    threshold string edit distance of the two preorders, traced back to
    one optimal alignment.  That distance lower-bounds TED; when the aligned nodes
    also keep postorder order they form an edit mapping of the same
    cost, and the distance is exact.  Otherwise the postorder bound and
    the tau-banded DP of :mod:`repro.ted.cutoff` decide.  Every bound is
    proven and the certificate is a valid mapping, so the result equals
    the thresholded exact distance.  ``tau`` is validated like every
    other entry point's (:func:`repro.params.check_tau`).

    >>> a, b = Tree.from_bracket("{a{b}}"), Tree.from_bracket("{a{b}{c}{d}}")
    >>> ted_within(a, b, 1) is None
    True
    >>> ted_within(a, b, 2)
    2
    """
    check_tau(tau)
    # Local import: repro.baselines builds on this package.
    from repro.baselines.common import Verifier

    return Verifier([t1, t2], tau).verify(0, 1)
