"""Subgraphs of a delta-partitioning and subgraph-to-tree matching.

A :class:`Subgraph` is one component of a delta-partitioning of an LC-RS
binary tree (paper Definition 1): a connected set of binary nodes plus the
*bridging edges* that connect it to the rest of the tree.  The subgraph is
stored *flat*: its root is a binary postorder number into the container's
:class:`~repro.core.treecache.TreeCache` arrays, and its member set is a
``bytearray`` bitmap indexed by binary postorder number — matching and
membership tests are pure integer-array walks, no node objects and no
``frozenset`` hashing.

For matching (paper Section 3.2, "s matches the subtree rooted at node N
of Ti"), each node slot of the subgraph falls into one of three cases:

- a **member edge** — the child is part of the subgraph: the probed tree
  must have a matching child there (recursively);
- a **dangling bridging edge** — the child exists in the container tree but
  belongs to another subgraph: under the paper's semantics the probed tree
  must have *some* child there (its content is irrelevant — Figure 7's "the
  grandchild of N is not relevant to this matching");
- an **empty slot** — no edge in the container tree: under the paper's
  semantics the probed tree must have no child there.

Match semantics
---------------
``MatchSemantics.PAPER`` enforces all three cases plus the incoming-edge
category of the subgraph root ("both s2 and N have a left incoming edge").

``MatchSemantics.SAFE`` only enforces member edges and labels.  This is the
provably sound variant: counting which *patterns* (nodes + labels +
internal edges) an edit operation can destroy shows a rename or delete
changes at most 1 subgraph pattern and an insert at most 2 — an insert
between ``Np`` and children ``c_{p+1}..c_{p+k}`` destroys at most the
incoming edge of ``c_{p+1}`` and the right-sibling edge out of ``c_{p+k}``,
each internal to at most one subgraph.  Hence ``tau`` operations change at
most ``2*tau`` of the ``2*tau + 1`` subgraphs and Lemma 2 holds.  Under
PAPER semantics a delete can additionally flip the incoming-edge category
of its first child and grow a right edge under its last child, touching up
to 3 subgraphs — so the strict filter can (rarely) miss results when
``tau >= 2``; the property-test suite measures this and the
``ablation_filters`` experiment (:mod:`repro.bench.experiments`) reports
it.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

from repro.core.intern import EPSILON, pack_twig
from repro.errors import InvalidParameterError
from repro.tree.binary import EdgeKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.treecache import TreeCache

__all__ = ["Subgraph", "MatchSemantics", "EPSILON"]

_EDGE_KIND_OF_CODE = (EdgeKind.ROOT, EdgeKind.LEFT, EdgeKind.RIGHT)


class MatchSemantics(enum.Enum):
    """How strictly a subgraph is matched against a probe tree."""

    PAPER = "paper"  # Section 3.4 exactly: bridging edges + empty slots + incoming
    SAFE = "safe"  # labels and internal edges only; provably no false negatives

    @classmethod
    def coerce(cls, value: "MatchSemantics | str") -> "MatchSemantics":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise InvalidParameterError(
                f"unknown match semantics {value!r}; use 'paper' or 'safe'"
            ) from None


class Subgraph:
    """One component of a delta-partitioning of a container tree.

    Attributes
    ----------
    owner:
        Index of the container tree in the joined collection.
    cache:
        The container tree's :class:`TreeCache` (arrays + interner).
    root_number:
        Binary postorder number of the subgraph root in the container.
    member_bits:
        Bitmap over binary postorder numbers (1-based; ``member_bits[b]``
        truthy iff node ``b`` belongs to this subgraph).
    rank:
        1-based rank ``k`` of this subgraph when the partition is ordered by
        ascending ``postorder_id`` (the paper's ``s_1 .. s_delta``).
    postorder_id:
        ``p_k``: the configured postorder number of the subgraph root in
        the container tree (general-tree postorder by default).
    size:
        Number of member nodes.
    twig_ids:
        The root twig ``(label, left, right)`` as interned ids, epsilon
        (``0``) for missing / non-member children.
    twig_key:
        :func:`repro.core.intern.pack_twig` of :attr:`twig_ids`.
        Snapshots store it; the index files the subgraph under it plus
        its member grandchildren
        (:meth:`repro.core.index.InvertedSizeIndex.insert_all`).
    incoming_code:
        Incoming-edge category of the root: 0 root, 1 left, 2 right.
    """

    __slots__ = (
        "owner",
        "cache",
        "root_number",
        "member_bits",
        "rank",
        "postorder_id",
        "size",
        "twig_ids",
        "twig_key",
        "incoming_code",
        "_members",
    )

    def __init__(
        self,
        owner: int,
        cache: "TreeCache",
        root_number: int,
        member_bits: bytearray,
        rank: int,
        postorder_id: int,
    ):
        self.owner = owner
        self.cache = cache
        self.root_number = root_number
        self.member_bits = member_bits
        self.rank = rank
        self.postorder_id = postorder_id
        self.size = member_bits.count(1)
        labels = cache.labels
        l = cache.left[root_number]
        r = cache.right[root_number]
        left_id = labels[l] if l and member_bits[l] else 0
        right_id = labels[r] if r and member_bits[r] else 0
        self.twig_ids = (labels[root_number], left_id, right_id)
        self.twig_key = pack_twig(labels[root_number], left_id, right_id)
        self.incoming_code = cache.incoming_code(root_number)
        self._members: Optional[frozenset[int]] = None

    # -- compatibility views -------------------------------------------------

    @property
    def members(self) -> frozenset[int]:
        """Member binary postorder numbers as a frozenset (compat view)."""
        cached = self._members
        if cached is None:
            bits = self.member_bits
            cached = frozenset(b for b in range(1, len(bits)) if bits[b])
            self._members = cached
        return cached

    @property
    def incoming(self) -> EdgeKind:
        """Category of the root's incoming (bridging) edge."""
        return _EDGE_KIND_OF_CODE[self.incoming_code]

    @property
    def twig(self) -> tuple[str, str, str]:
        """The root twig as label strings (compat; epsilon = ``""``)."""
        label = self.cache.interner.label
        a, b, c = self.twig_ids
        return (label(a), label(b), label(c))

    # -- matching ------------------------------------------------------------

    def matches_at_number(
        self, probe_cache: "TreeCache", probe_number: int, strict: bool
    ) -> bool:
        """Does this subgraph occur at node ``probe_number`` of ``probe_cache``?

        The matcher of every probe (join, stream, search): both
        trees are walked through their flat arrays with an explicit
        integer stack.  Labels compare as interned
        ids, so both caches must share an interner (always true for caches
        built with the default).  ``strict`` selects PAPER semantics
        (dangling edges must exist, empty slots must be empty, incoming
        categories must agree).
        """
        if strict and probe_cache.incoming_code(probe_number) != self.incoming_code:
            return False
        my_labels = self.cache.labels
        my_left = self.cache.left
        my_right = self.cache.right
        labels = probe_cache.labels
        left = probe_cache.left
        right = probe_cache.right
        bits = self.member_bits
        stack = [self.root_number, probe_number]
        pop = stack.pop
        while stack:
            theirs = pop()
            mine = pop()
            if my_labels[mine] != labels[theirs]:
                return False
            child = my_left[mine]
            other = left[theirs]
            if child and bits[child]:
                if not other:
                    return False
                stack.append(child)
                stack.append(other)
            elif strict and (other if not child else not other):
                # Empty slot filled, or dangling bridging edge missing.
                return False
            child = my_right[mine]
            other = right[theirs]
            if child and bits[child]:
                if not other:
                    return False
                stack.append(child)
                stack.append(other)
            elif strict and (other if not child else not other):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Subgraph(owner={self.owner}, rank={self.rank}, "
            f"pk={self.postorder_id}, size={self.size}, twig={self.twig!r})"
        )
