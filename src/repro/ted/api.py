"""Public entry points for tree edit distance computation.

``ted`` is the one exact distance: the unbounded Zhang–Shasha DP on the
cheaper orientation of the two trees' records.  ``ted_within`` is the
threshold form every join verifies with; it runs the joins' own
:class:`~repro.baselines.common.Verifier` (bounds first, then the
tau-banded DP) on the pair.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import InvalidParameterError
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

    The pair runs the verification pipeline of every join: O(1) trivial
    upper bound, the bag and traversal-string lower bounds, then the
    tau-banded DP of :mod:`repro.ted.cutoff`, which fills only the cells
    a ``<= tau`` distance can reach and stops as soon as the threshold is
    provably exceeded.  The bounds are proven, so the result equals the
    thresholded exact distance.

    >>> a, b = Tree.from_bracket("{a{b}}"), Tree.from_bracket("{a{b}{c}{d}}")
    >>> ted_within(a, b, 1) is None
    True
    >>> ted_within(a, b, 2)
    2
    """
    if tau < 0:
        raise InvalidParameterError(f"tau must be >= 0, got {tau}")
    # Local import: repro.baselines builds on this package.
    from repro.baselines.common import Verifier

    return Verifier([t1, t2], tau).verify(0, 1)
