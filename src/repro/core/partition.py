"""Tree partitioning: Algorithms 2 and 3 of the paper, plus extraction.

- :func:`partitionable` — the linear-time greedy ``(delta, gamma)``-
  partitionable test (Algorithm 2).  Following a binary postorder, every
  time the not-yet-detached part of a subtree reaches ``gamma`` nodes a
  gamma-subtree is (virtually) detached.
- :func:`max_min_size` — binary search for the largest feasible ``gamma``
  (Algorithm 3), searching
  ``[floor((n + delta - 1) / (2*delta - 1)), floor(n / delta)]``.
- :func:`extract_partition` — materializes the partition that the greedy
  test discovers: the first ``delta - 1`` gamma-subtrees are cut off and
  the residual tree (which contains the root and, by Lemma 3, has at least
  ``gamma`` nodes) becomes the last subgraph.
- :func:`extract_random_partition` — the ablation strategy (Section 4.3's
  closing remark): ``delta - 1`` uniformly random bridging edges.
- :class:`PartitionCutter` — the one cut the join driver and a session's
  preparation both run: MaxMinSize with the previous tree's gamma as
  hint, or the seeded random cut.

All passes run over the flat ``left``/``right`` child-number arrays of
:class:`~repro.core.treecache.TreeCache` (children carry smaller binary
postorder numbers than their parent, so one ascending index loop is a
postorder traversal) and produce :class:`~repro.core.subgraph.Subgraph`
objects with bytearray member bitmaps.  Nothing here allocates node
objects or recursion frames, so trees of arbitrary depth and size are
cheap as well as safe.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.subgraph import Subgraph
from repro.core.treecache import TreeCache
from repro.errors import InvalidParameterError, NotPartitionableError

__all__ = [
    "partitionable",
    "max_min_size",
    "extract_partition",
    "extract_random_partition",
    "min_partitionable_size",
    "PartitionCutter",
]


def min_partitionable_size(tau: int) -> int:
    """Smallest tree size for which the Lemma 2 filter is applicable.

    A tree needs at least ``delta = 2*tau + 1`` nodes to be split into
    ``delta`` non-empty subgraphs; smaller trees go to the join's
    small-tree pool.
    """
    return 2 * tau + 1


def _check_delta_gamma(size: int, delta: int, gamma: Optional[int] = None) -> None:
    if delta < 1:
        raise InvalidParameterError(f"delta must be >= 1, got {delta}")
    if gamma is not None and gamma < 1:
        raise InvalidParameterError(f"gamma must be >= 1, got {gamma}")
    if delta > size:
        raise NotPartitionableError(
            f"cannot split a tree of {size} nodes into {delta} non-empty subgraphs"
        )


def _partitionable_flat(
    size: int,
    left: list[int],
    right: list[int],
    internal: list[int],
    delta: int,
    gamma: int,
) -> bool:
    """Algorithm 2 over child-number arrays: one ascending-index pass.

    ``remaining`` plays the role of the paper's ``size - detached``: the
    node count still attached beneath each node after the virtual
    detachments so far.  Binary leaves always carry ``remaining == 1``
    when ``gamma >= 2`` (they can never be detached), so the pass fills
    the array with ones at C speed and walks only the internal nodes.
    """
    if gamma * delta > size:
        return False
    if gamma <= 1:
        # Every node is its own gamma-subtree; delta <= size was checked.
        return True
    found = 0
    remaining = [1] * (size + 1)
    for b in internal:
        value = 1
        child = left[b]
        if child:
            value += remaining[child]
        child = right[b]
        if child:
            value += remaining[child]
        if value >= gamma:
            found += 1
            if found >= delta:
                return True
            value = 0  # gamma-subtree detached (virtually)
        remaining[b] = value
    return False


def partitionable(cache: TreeCache, delta: int, gamma: int) -> bool:
    """Algorithm 2: can the cached tree's LC-RS binary tree be cut into
    ``delta`` subgraphs of size ``>= gamma`` each?"""
    _check_delta_gamma(cache.size, delta, gamma)
    return _partitionable_flat(
        cache.size, cache.left, cache.right, cache.internal, delta, gamma
    )


def _max_min_size_flat(
    size: int,
    left: list[int],
    right: list[int],
    internal: list[int],
    delta: int,
    hint: Optional[int] = None,
) -> int:
    """Algorithm 3 over child-number arrays.

    The lower end of the search range,
    ``gamma_min = floor((n + delta - 1) / (2*delta - 1))``, is always
    feasible (each greedy gamma-subtree has size at most ``2*gamma - 1``
    because both of its child branches are smaller than ``gamma``); the
    upper end is ``floor(n / delta)``.  Binary search in between costs
    ``O(n log(n / delta))``.

    ``hint`` warm-starts the search (e.g. with the previous tree's result:
    a join processes trees in ascending size order, and near-duplicate
    trees share their gamma).  The first two probes are ``hint`` and
    ``hint + 1``, so a correct hint finishes in two greedy passes; a wrong
    hint just reshapes the bisection — the returned maximum is identical.
    """
    hi = size // delta
    lo = max(1, (size + delta - 1) // (2 * delta - 1))  # always feasible
    # A correct hint is confirmed by exactly two probes: hint feasible,
    # hint + 1 not.  Afterwards plain bisection takes over.
    hints = [] if hint is None else [hint, hint + 1]
    # Invariant: lo is feasible, everything above hi is infeasible.
    while lo < hi:
        mid = 0
        while hints:
            candidate = hints.pop(0)
            if lo < candidate <= hi:
                mid = candidate
                break
        if not mid:
            mid = lo + (hi - lo + 1) // 2
        if _partitionable_flat(size, left, right, internal, delta, mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def max_min_size(cache: TreeCache, delta: int, hint: Optional[int] = None) -> int:
    """Algorithm 3: the largest ``gamma`` with the cached tree ``(delta,
    gamma)``-partitionable; ``hint`` warm-starts the search (see
    :func:`_max_min_size_flat`)."""
    _check_delta_gamma(cache.size, delta)
    return _max_min_size_flat(
        cache.size, cache.left, cache.right, cache.internal, delta, hint
    )


def _build_subgraphs(
    cache: TreeCache,
    owner: int,
    bitmaps: list[tuple[int, bytearray]],
    numbering: str,
) -> list[Subgraph]:
    """Wrap ``(root number, member bitmap)`` pairs as rank-ordered Subgraphs.

    ``numbering`` selects the postorder identifier attached to each
    subgraph root: ``"general"`` (general-tree postorder; the provable
    choice) or ``"binary"`` (LC-RS postorder; the other plausible reading
    of the paper's Figure 7).
    """
    if numbering not in ("general", "binary"):
        raise InvalidParameterError(
            f"unknown postorder numbering {numbering!r}; use 'general' or 'binary'"
        )
    general_post = cache.general_post
    subgraphs = [
        Subgraph(
            owner=owner,
            cache=cache,
            root_number=root,
            member_bits=bits,
            rank=0,  # assigned below, ordered by postorder_id
            postorder_id=general_post[root] if numbering == "general" else root,
        )
        for root, bits in bitmaps
    ]
    subgraphs.sort(key=lambda sub: sub.postorder_id)
    for rank, sub in enumerate(subgraphs, start=1):
        sub.rank = rank
    return subgraphs


def extract_partition(
    cache: TreeCache,
    owner: int,
    delta: int,
    gamma: Optional[int] = None,
    numbering: str = "general",
    check: bool = True,
) -> list[Subgraph]:
    """Cut the cached tree into ``delta`` subgraphs, sizes ``>= gamma``.

    With ``gamma=None`` the maximal feasible value from
    :func:`max_min_size` is used (the paper's MaxMinSize
    partitioning).  The greedy pass detaches the first ``delta - 1``
    gamma-subtrees it finds; everything still attached (including the
    tree root) forms the last subgraph.

    ``check=False`` skips the feasibility validation of an explicit
    ``gamma`` — for callers (the join's insert phase) that just computed
    it with :func:`max_min_size`, the extra greedy pass is pure
    overhead.

    Returns subgraphs ordered by ascending root postorder id, with 1-based
    ``rank`` set accordingly.
    """
    size = cache.size
    _check_delta_gamma(size, delta, gamma)
    left, right = cache.left, cache.right
    if gamma is None:
        gamma = _max_min_size_flat(size, left, right, cache.internal, delta)
    elif check and not _partitionable_flat(
        size, left, right, cache.internal, delta, gamma
    ):
        raise NotPartitionableError(
            f"tree of {size} nodes is not ({delta}, {gamma})-partitionable"
        )

    # The greedy pass records each detached gamma-subtree as its binary
    # postorder span (root number, subtree size); membership is resolved
    # afterwards with slice fills instead of per-node bookkeeping.
    subtree_size = [1] * (size + 1)
    remaining = [1] * (size + 1)
    cut_spans: list[tuple[int, int]] = []
    cuts = 0
    # Leaves carry subtree_size == remaining == 1 from the fill above and,
    # for gamma >= 2, can never be detached — the greedy pass walks only
    # the internal nodes then.  gamma <= 1 (tiny trees) must visit leaves
    # too, since any single node forms a valid gamma-subtree.
    numbers = cache.internal if gamma > 1 else range(1, size + 1)
    for b in numbers:
        total = 1
        rem = 1
        child = left[b]
        if child:
            total += subtree_size[child]
            rem += remaining[child]
        child = right[b]
        if child:
            total += subtree_size[child]
            rem += remaining[child]
        subtree_size[b] = total
        if cuts < delta - 1 and rem >= gamma:
            cut_spans.append((b, total))
            cuts += 1
            rem = 0
        remaining[b] = rem

    # Materialize member bitmaps from the spans.  Binary subtree spans are
    # laminar (nested or disjoint), and a node detached by several cuts
    # belongs to the *earliest* (= innermost, smallest root number) one —
    # so each cut's bitmap is its own contiguous span with every earlier
    # nested span punched out, all at bytes-slice speed.
    bitmaps: list[tuple[int, bytearray]] = []
    for index, (b, total) in enumerate(cut_spans):
        lo = b - total + 1
        bits = bytearray(size + 1)
        bits[lo : b + 1] = b"\x01" * total
        for b2, total2 in cut_spans[:index]:
            if lo <= b2 <= b:  # earlier span is nested: its nodes are not ours
                bits[b2 - total2 + 1 : b2 + 1] = bytes(total2)
        bitmaps.append((b, bits))
    # Residual component: everything not detached, rooted at the tree root
    # (always the last node in binary postorder).  With a feasible gamma no
    # cut ever lands on the root itself (the residual would be empty,
    # contradicting Lemma 3).
    residual = bytearray(size + 1)
    residual[1:] = b"\x01" * size
    for b2, total2 in cut_spans:
        residual[b2 - total2 + 1 : b2 + 1] = bytes(total2)
    bitmaps.append((size, residual))
    return _build_subgraphs(cache, owner, bitmaps, numbering)


def extract_random_partition(
    cache: TreeCache,
    owner: int,
    delta: int,
    rng: random.Random,
    numbering: str = "general",
) -> list[Subgraph]:
    """Ablation partitioning: ``delta - 1`` uniformly random bridging edges.

    Any ``delta - 1`` distinct edges split the tree into ``delta``
    components of size >= 1, with no balance guarantee — which is exactly
    what makes it a useful control for the MaxMinSize scheme (the paper
    reports MaxMinSize is 50%-300% faster).
    """
    size = cache.size
    _check_delta_gamma(size, delta)
    # An edge is identified by its child endpoint: sample delta-1 non-roots
    # (the root is always the last binary postorder number).
    cut_numbers = set(rng.sample(range(1, size), delta - 1))

    root_numbers = [size, *cut_numbers]
    bitmap_at: list[Optional[bytearray]] = [None] * (size + 1)
    for root in root_numbers:
        bitmap_at[root] = bytearray(size + 1)
    component_of = [0] * (size + 1)
    component_of[size] = size
    # Binary preorder over the arrays: a parent's component is always
    # assigned before its children's.
    left, right, parent = cache.left, cache.right, cache.parent
    stack = [size]
    while stack:
        b = stack.pop()
        comp = b if bitmap_at[b] is not None else component_of[parent[b]]
        component_of[b] = comp
        bitmap_at[comp][b] = 1  # type: ignore[index]
        child = right[b]
        if child:
            stack.append(child)
        child = left[b]
        if child:
            stack.append(child)
    bitmaps = [(root, bitmap_at[root]) for root in root_numbers]
    return _build_subgraphs(cache, owner, bitmaps, numbering)  # type: ignore[arg-type]


class PartitionCutter:
    """Cuts trees, one after another, into ``delta = 2*tau + 1`` subgraphs.

    ``strategy="maxmin"`` (Algorithm 3) warm-starts each gamma search
    with the previous tree's gamma (near-duplicates share it; the hint
    never changes the result), ``"random"`` draws the cut edges from one
    ``random.Random(seed)`` stream.  Cutting the same trees in the same
    order therefore yields the same subgraphs and gammas, which is why
    :class:`repro.core.join.ShardDriver` and a session's preparation
    (:class:`repro.session.TreeCollection`) can share their output.
    """

    __slots__ = ("delta", "numbering", "rng", "gamma_hint")

    def __init__(self, tau: int, strategy: str, seed: int, numbering: str):
        self.delta = 2 * tau + 1
        self.numbering = numbering
        self.rng = random.Random(seed) if strategy == "random" else None
        self.gamma_hint: Optional[int] = None

    def cut(self, cache: TreeCache, owner: int) -> tuple[list[Subgraph], int]:
        """Tree ``owner``'s partition and its gamma (for a random cut, the
        smallest subgraph size)."""
        if self.rng is not None:
            subgraphs = extract_random_partition(
                cache, owner, self.delta, self.rng, self.numbering
            )
            return subgraphs, min(sub.size for sub in subgraphs)
        gamma = max_min_size(cache, self.delta, hint=self.gamma_hint)
        self.gamma_hint = gamma
        subgraphs = extract_partition(
            cache, owner, self.delta, gamma, self.numbering, check=False
        )
        return subgraphs, gamma
