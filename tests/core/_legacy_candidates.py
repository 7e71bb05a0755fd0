"""Frozen PR-1 candidate-generation engine (reference implementation).

This module preserves, essentially verbatim, the object-graph candidate
generation that shipped before the flat-array engine: ``id()``-keyed
dictionaries in the tree cache, ``(postorder_key, (str, str, str))``
tuple keys with ``2*tau + 1``-fold window duplication in the two-layer
index, ``frozenset`` member sets and node-object walks in subgraph
matching.  It is the reference of
``tests/core/test_flat_equivalence.py``, which asserts that the
flat-array engine returns the pair sets, exact distances and candidate
counts of this reference on random workloads for every filter
configuration.  Its LC-RS node objects come from
``tests/tree/lcrs_reference.py``.

Do not optimize or "fix" this module: its value is that it stays the
PR-1 behaviour.  Verification is intentionally shared with the live
:class:`repro.baselines.common.Verifier` so any difference between the
two joins is attributable to candidate generation alone.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.baselines.common import JoinPair, SizeSortedCollection, Verifier
from repro.core.index import PostorderFilter
from repro.core.join import PartSJConfig
from repro.core.subgraph import EPSILON, MatchSemantics
from repro.errors import NotPartitionableError
from repro.tree.node import Tree, TreeNode
from tests.tree.lcrs_reference import BinaryNode, BinaryTree, EdgeKind

__all__ = ["LegacyStats", "legacy_partsj_join"]


class LegacyTreeCache:
    """PR-1 ``TreeCache``: LC-RS object graph + ``id()``-keyed number maps."""

    __slots__ = (
        "tree",
        "binary",
        "binary_postorder",
        "_general_postorder_of",
        "_binary_number_of",
    )

    def __init__(self, tree: Tree):
        self.tree = tree
        general_post: dict[int, int] = {}
        for number, node in enumerate(tree.iter_postorder(), start=1):
            general_post[id(node)] = number

        binary_root = BinaryNode(tree.root.label)
        twin_general: dict[int, TreeNode] = {id(binary_root): tree.root}
        stack: list[tuple[TreeNode, BinaryNode]] = [(tree.root, binary_root)]
        while stack:
            general, binary = stack.pop()
            previous: Optional[BinaryNode] = None
            for child in general.children:
                twin = BinaryNode(child.label)
                twin_general[id(twin)] = child
                if previous is None:
                    binary.set_left(twin)
                else:
                    previous.set_right(twin)
                stack.append((child, twin))
                previous = twin

        self.binary = BinaryTree(binary_root)
        self.binary_postorder: list[BinaryNode] = self.binary.postorder()
        self._general_postorder_of: dict[int, int] = {
            id(bnode): general_post[id(twin_general[id(bnode)])]
            for bnode in self.binary_postorder
        }
        self._binary_number_of: dict[int, int] = {
            id(bnode): index
            for index, bnode in enumerate(self.binary_postorder, start=1)
        }

    @property
    def size(self) -> int:
        return len(self.binary_postorder)

    def general_postorder(self, node: BinaryNode) -> int:
        return self._general_postorder_of[id(node)]

    def binary_number(self, node: BinaryNode) -> int:
        return self._binary_number_of[id(node)]


@dataclass
class LegacySubgraph:
    """PR-1 ``Subgraph``: frozenset members, string twig, node-object walk."""

    owner: int
    root: BinaryNode
    members: frozenset[int]
    rank: int
    postorder_id: int
    incoming: EdgeKind
    cache: LegacyTreeCache
    twig: tuple[str, str, str] = field(init=False)

    def __post_init__(self) -> None:
        self.twig = (
            self.root.label,
            self._member_label(self.root.left),
            self._member_label(self.root.right),
        )

    def _member_label(self, child: Optional[BinaryNode]) -> str:
        if child is None:
            return EPSILON
        if self.cache.binary_number(child) not in self.members:
            return EPSILON
        return child.label

    @property
    def size(self) -> int:
        return len(self.members)

    def is_member(self, node: BinaryNode) -> bool:
        return self.cache.binary_number(node) in self.members

    def matches_at(self, node: BinaryNode, semantics: MatchSemantics) -> bool:
        strict = semantics is MatchSemantics.PAPER
        if strict and node.incoming is not self.incoming:
            return False
        stack: list[tuple[BinaryNode, BinaryNode]] = [(self.root, node)]
        while stack:
            mine, theirs = stack.pop()
            if mine.label != theirs.label:
                return False
            for my_child, their_child in (
                (mine.left, theirs.left),
                (mine.right, theirs.right),
            ):
                if my_child is not None and self.is_member(my_child):
                    if their_child is None:
                        return False
                    stack.append((my_child, their_child))
                elif my_child is not None:
                    if strict and their_child is None:
                        return False
                else:
                    if strict and their_child is not None:
                        return False
        return True


_ANY = -1


class LegacyTwoLayerIndex:
    """PR-1 index: tuple keys, one entry per postorder key in the window."""

    __slots__ = ("tau", "postorder_filter", "_groups", "count")

    def __init__(self, tau: int, postorder_filter: PostorderFilter):
        self.tau = tau
        self.postorder_filter = postorder_filter
        self._groups: dict[tuple[int, tuple[str, str, str]], list[LegacySubgraph]] = {}
        self.count = 0

    def window(self, subgraph: LegacySubgraph) -> int:
        if self.postorder_filter is PostorderFilter.PAPER:
            return max(0, self.tau - subgraph.rank // 2)
        return self.tau

    def insert(self, subgraph: LegacySubgraph) -> None:
        self.count += 1
        twig = subgraph.twig
        if self.postorder_filter is PostorderFilter.OFF:
            self._groups.setdefault((_ANY, twig), []).append(subgraph)
            return
        half = self.window(subgraph)
        pk = subgraph.postorder_id
        for key in range(pk - half, pk + half + 1):
            self._groups.setdefault((key, twig), []).append(subgraph)

    @property
    def entry_count(self) -> int:
        """Stored index entries (PR-1 duplicates per window key)."""
        return sum(len(bucket) for bucket in self._groups.values())

    def probe(
        self,
        postorder_number: int,
        label: str,
        left_label: str,
        right_label: str,
    ) -> Iterator[LegacySubgraph]:
        if self.postorder_filter is PostorderFilter.OFF:
            position = _ANY
        else:
            position = postorder_number
        groups = self._groups
        seen_keys = set()
        for twig in (
            (label, left_label, right_label),
            (label, left_label, EPSILON),
            (label, EPSILON, right_label),
            (label, EPSILON, EPSILON),
        ):
            if twig in seen_keys:
                continue
            seen_keys.add(twig)
            bucket = groups.get((position, twig))
            if bucket:
                yield from bucket


class LegacyInvertedSizeIndex:
    __slots__ = ("tau", "postorder_filter", "_by_size")

    def __init__(self, tau: int, postorder_filter: PostorderFilter):
        self.tau = tau
        self.postorder_filter = postorder_filter
        self._by_size: dict[int, LegacyTwoLayerIndex] = {}

    def for_size(self, size: int, create: bool = False) -> LegacyTwoLayerIndex | None:
        index = self._by_size.get(size)
        if index is None and create:
            index = LegacyTwoLayerIndex(self.tau, self.postorder_filter)
            self._by_size[size] = index
        return index

    def insert_all(self, size: int, subgraphs: list[LegacySubgraph]) -> None:
        index = self.for_size(size, create=True)
        assert index is not None
        for subgraph in subgraphs:
            index.insert(subgraph)

    @property
    def total_entries(self) -> int:
        return sum(index.entry_count for index in self._by_size.values())


def _legacy_partitionable(binary: BinaryTree, delta: int, gamma: int) -> bool:
    if gamma * delta > binary.size:
        return False
    found = 0
    remaining: dict[int, int] = {}
    for node in binary.iter_postorder():
        value = 1
        if node.left is not None:
            value += remaining[id(node.left)]
        if node.right is not None:
            value += remaining[id(node.right)]
        if value >= gamma:
            found += 1
            if found >= delta:
                return True
            value = 0
        remaining[id(node)] = value
    return False


def _legacy_max_min_size(binary: BinaryTree, delta: int) -> int:
    size = binary.size
    if delta > size:
        raise NotPartitionableError(
            f"cannot split a tree of {size} nodes into {delta} non-empty subgraphs"
        )
    gamma_max = size // delta
    gamma_min = max(1, (size + delta - 1) // (2 * delta - 1))
    count = gamma_max - gamma_min + 1
    while count > 1:
        gamma_mid = gamma_min + count // 2
        if _legacy_partitionable(binary, delta, gamma_mid):
            count -= count // 2
            gamma_min = gamma_mid
        else:
            count //= 2
    return gamma_min


def _legacy_finalize(
    cache: LegacyTreeCache,
    owner: int,
    component_of: list[int],
    roots: dict[int, BinaryNode],
    numbering: str,
) -> list[LegacySubgraph]:
    number_of = (
        cache.general_postorder if numbering == "general" else cache.binary_number
    )
    members: dict[int, set[int]] = {comp: set() for comp in roots}
    for number in range(1, cache.size + 1):
        members[component_of[number]].add(number)
    subgraphs = [
        LegacySubgraph(
            owner=owner,
            root=root,
            members=frozenset(members[comp]),
            rank=0,
            postorder_id=number_of(root),
            incoming=root.incoming,
            cache=cache,
        )
        for comp, root in roots.items()
    ]
    subgraphs.sort(key=lambda sub: sub.postorder_id)
    for rank, sub in enumerate(subgraphs, start=1):
        sub.rank = rank
    return subgraphs


def _legacy_extract_partition(
    cache: LegacyTreeCache,
    owner: int,
    delta: int,
    gamma: int,
    numbering: str,
) -> list[LegacySubgraph]:
    binary = cache.binary
    size = cache.size
    component_of = [0] * (size + 1)
    subtree_size = [0] * (size + 1)
    remaining = [0] * (size + 1)
    roots: dict[int, BinaryNode] = {}
    cuts = 0
    for number, node in enumerate(cache.binary_postorder, start=1):
        total = 1
        rem = 1
        if node.left is not None:
            child = cache.binary_number(node.left)
            total += subtree_size[child]
            rem += remaining[child]
        if node.right is not None:
            child = cache.binary_number(node.right)
            total += subtree_size[child]
            rem += remaining[child]
        subtree_size[number] = total
        if cuts < delta - 1 and rem >= gamma:
            for claimed in range(number - total + 1, number + 1):
                if component_of[claimed] == 0:
                    component_of[claimed] = number
            roots[number] = node
            cuts += 1
            rem = 0
        remaining[number] = rem

    root_number = cache.binary_number(binary.root)
    for number in range(1, size + 1):
        if component_of[number] == 0:
            component_of[number] = root_number
    roots[root_number] = binary.root
    return _legacy_finalize(cache, owner, component_of, roots, numbering)


def _legacy_extract_random_partition(
    cache: LegacyTreeCache,
    owner: int,
    delta: int,
    rng: random.Random,
    numbering: str,
) -> list[LegacySubgraph]:
    binary = cache.binary
    size = cache.size
    root_number = cache.binary_number(binary.root)
    candidates = [n for n in range(1, size + 1) if n != root_number]
    cut_numbers = set(rng.sample(candidates, delta - 1))

    roots: dict[int, BinaryNode] = {root_number: binary.root}
    component_of = [0] * (size + 1)
    for node in binary.iter_preorder():
        number = cache.binary_number(node)
        if number in cut_numbers or node.parent is None:
            component_of[number] = number
            roots[number] = node
        else:
            component_of[number] = component_of[cache.binary_number(node.parent)]
    return _legacy_finalize(cache, owner, component_of, roots, numbering)


@dataclass
class LegacyStats:
    """Phase timings and counters of a legacy join run."""

    probe_time: float = 0.0
    index_time: float = 0.0
    verify_time: float = 0.0
    candidates: int = 0
    probe_hits: int = 0
    total_index_entries: int = 0

    @property
    def candidate_time(self) -> float:
        return self.probe_time + self.index_time


def legacy_partsj_join(
    trees: Sequence[Tree],
    tau: int,
    config: Optional[PartSJConfig] = None,
) -> tuple[list[JoinPair], LegacyStats]:
    """PR-1 PartSJ: Algorithm 1 over the legacy candidate structures.

    Verification uses the current shared :class:`Verifier`, so pairs and
    distances differ from :func:`repro.core.join.partsj_join` only if
    candidate generation differs.
    """
    cfg = (config or PartSJConfig()).resolved()
    semantics: MatchSemantics = cfg.semantics  # type: ignore[assignment]
    stats = LegacyStats()
    collection = SizeSortedCollection(trees)
    verifier = Verifier(trees, tau)
    index = LegacyInvertedSizeIndex(tau, cfg.postorder_filter)  # type: ignore[arg-type]
    rng = random.Random(cfg.seed)

    delta = 2 * tau + 1
    min_size = delta
    small_pool: list[tuple[int, int]] = []
    checked: set[tuple[int, int]] = set()
    pairs: list[JoinPair] = []

    for position in range(len(collection)):
        i = collection.original_index(position)
        tree = trees[i]
        n = tree.size

        start = time.perf_counter()
        candidates: list[int] = []

        if n >= min_size:
            cache = LegacyTreeCache(tree)
            per_size = [
                index.for_size(size)
                for size in range(max(min_size, n - tau), n + 1)
            ]
            per_size = [idx for idx in per_size if idx is not None and idx.count]
            number_of = (
                cache.general_postorder
                if cfg.postorder_numbering == "general"
                else cache.binary_number
            )
            if per_size:
                for node in cache.binary_postorder:
                    p = number_of(node)
                    label = node.label
                    left_label = node.left.label if node.left is not None else EPSILON
                    right_label = (
                        node.right.label if node.right is not None else EPSILON
                    )
                    for size_index in per_size:
                        for subgraph in size_index.probe(
                            p, label, left_label, right_label
                        ):
                            stats.probe_hits += 1
                            j = subgraph.owner
                            key = (j, i) if j < i else (i, j)
                            if key in checked:
                                continue
                            if subgraph.matches_at(node, semantics):
                                checked.add(key)
                                candidates.append(j)
        else:
            cache = None

        if small_pool and n - tau <= 2 * tau:
            for j, size_j in small_pool:
                if size_j >= n - tau:
                    key = (j, i) if j < i else (i, j)
                    if key not in checked:
                        checked.add(key)
                        candidates.append(j)
        stats.probe_time += time.perf_counter() - start

        stats.candidates += len(candidates)
        start = time.perf_counter()
        for j in candidates:
            distance = verifier.verify(i, j)
            if distance is not None:
                lo, hi = (i, j) if i < j else (j, i)
                pairs.append(JoinPair(lo, hi, distance))
        stats.verify_time += time.perf_counter() - start

        start = time.perf_counter()
        if cache is not None:
            if cfg.partition_strategy == "random":
                subgraphs = _legacy_extract_random_partition(
                    cache, i, delta, rng, cfg.postorder_numbering
                )
            else:
                gamma = _legacy_max_min_size(cache.binary, delta)
                subgraphs = _legacy_extract_partition(
                    cache, i, delta, gamma, cfg.postorder_numbering
                )
            index.insert_all(n, subgraphs)
        else:
            small_pool.append((i, n))
        stats.index_time += time.perf_counter() - start

    stats.total_index_entries = index.total_entries
    pairs.sort(key=lambda p: p.key())
    return pairs, stats
