"""Shared plumbing for all join methods: results, statistics, verification.

Every join in this repository — PartSJ and the baselines — reports its
outcome through the same :class:`JoinResult` / :class:`JoinStats` types so
the benchmark harness can print the paper's figures uniformly:

- *candidate generation time* vs *TED computation time* (the two bar
  segments of Figures 10/12/14);
- *number of candidates* (the series of Figures 11/13/14) — a candidate is
  a pair that survived the method's filter and was handed to exact TED
  verification.

:class:`Verifier` is the *threshold-aware verification engine* shared by
all methods.  TED computation dominates every join's runtime (the "TED
computation" bars of Figures 10/12/14), so the verifier never runs an
unbounded distance computation on a candidate.  Instead each pair walks a
cheap-to-expensive pipeline:

1. **Trivial upper bound** (O(1) from the records): if deleting one
   tree and inserting the other already costs ``<= tau``, the pair runs
   the banded DP below with that bound as its band, skipping the filters
   (counter ``ub_accepted``).
2. **Bag lower bounds** (O(distinct keys) from the per-tree bags): any
   bound ``> tau`` rejects the pair (counter ``lb_filtered``).  PartSJ
   screens with the label multiset alone; the baselines choose their own
   bags (label multiset, degree histogram, binary branches).
3. **Preorder alignment** (O(tau * n), :mod:`repro.ted.string_edit`):
   with the records in a canonical order, the banded string edit
   distance of the two preorder label sequences, traced back to one
   optimal alignment.  Under unit costs it lower-bounds TED (Guha et
   al., [13] in the paper), so a distance ``> tau`` rejects the pair
   (``lb_filtered``).  If the aligned nodes are in the same postorder
   order on both sides, they are in the same ancestor and left-of
   relations too, so they form an ordered edit mapping whose cost is
   that distance: TED is squeezed between the two, and the distance is
   returned as exact with no DP (counter ``certified``).
4. **Postorder bound**: a pair the alignment did not certify runs the
   banded string edit distance of the postorder sequences, another
   lower bound (``lb_filtered``).
5. **tau-banded exact DP**: the rest run
   :func:`repro.ted.cutoff.zhang_shasha_bounded`, which visits only the
   keyroot pairs and forest cells within the tau-strip and abandons a
   keyroot pair as soon as no cell can recover (counter
   ``ted_early_exits`` when the ``> tau`` sentinel comes back).
   ``JoinStats.ted_calls`` counts these runs.

The STR join, whose candidates passed both traversal bounds already,
turns step 4 off (``traversal_bound``); step 3 still runs there for its
certificate, and its bound never fires.

Every per-tree input of the pipeline is a view of the tree's one flat
record, :class:`repro.core.treecache.TreeCache` — the record the PartSJ
filter probes with: the label, degree and binary-branch bags, the
pre/postorder label ids, each preorder position's postorder number, and
the Zhang–Shasha annotations in both
orientations (the mirrored one is built only for pairs where
:func:`repro.ted.zhang_shasha.oriented` compares orientations).  Each
view is derived from the record's arrays on first use and memoized on
the record, and records live in a
:class:`~repro.core.treecache.RecordStore` keyed by original index.  A
session, a streaming engine and its searchers hand their store to every
verifier they build, so a tree joined or searched against many
candidates is derived a constant number of times.  The counters surface
in ``JoinStats.extra`` for every join method via
:meth:`Verifier.extra_stats`, giving the figure scripts a verification
breakdown.  Results are bit-identical to unconditional exact verification
because every bound is proven, a certificate is a valid edit mapping
whose cost equals a lower bound, and the banded DP is exact within
``tau``.  The canonical order (size, then preorder label strings) makes
each pair's path through the pipeline, and so every counter, the same
in either argument order and in every process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.errors import InvalidParameterError
from repro.params import check_tau
from repro.ted.bounds import (
    branch_bound_from_bags,
    degree_bound_from_bags,
    label_bound_from_bags,
    trivial_upper_bound_from_parts,
)
from repro.ted.cutoff import zhang_shasha_bounded
from repro.ted.string_edit import string_edit_alignment, string_edit_within
from repro.ted.zhang_shasha import oriented
from repro.tree.node import Tree

if TYPE_CHECKING:  # pragma: no cover - typing only; repro.core builds on this
    from repro.core.treecache import RecordStore, TreeCache

__all__ = [
    "JoinPair",
    "JoinStats",
    "JoinResult",
    "Verifier",
    "DeferredVerification",
    "SizeSortedCollection",
    "check_join_inputs",
]


@dataclass(frozen=True)
class JoinPair:
    """One join result: tree indices ``i < j`` and their exact distance."""

    i: int
    j: int
    distance: int

    def key(self) -> tuple[int, int]:
        return (self.i, self.j)


@dataclass
class JoinStats:
    """Counters and phase timings for one join execution."""

    method: str
    tau: int
    tree_count: int
    candidates: int = 0  # pairs sent to exact TED verification
    results: int = 0  # pairs with TED <= tau
    # Banded TED DP runs: candidates that no lower bound rejected and no
    # certificate decided (extra["certified"]), plus any the trivial upper
    # bound accepted.
    ted_calls: int = 0
    # Pairs examined by the filter phase.  The baselines count tree pairs.
    # PartSJ sets it to probe_hits + small_pool_pairs: the (node, subgraph)
    # hits whose depth-2 index keys agree, plus the small-pool pairs.
    pairs_considered: int = 0
    candidate_time: float = 0.0  # seconds in candidate generation (probe + index)
    verify_time: float = 0.0  # seconds in TED verification
    # Candidate generation split: time probing existing index structures for
    # candidates vs. time building/inserting them (PartSJ's insert phase).
    # Filter-only baselines do all their candidate work in the probe phase,
    # so for them probe_time == candidate_time and index_time == 0.
    probe_time: float = 0.0
    index_time: float = 0.0
    # Method-specific counters.  Every join additionally merges the
    # verifier's breakdown here (``Verifier.EXTRA_COUNTERS``):
    # ``lb_filtered`` (candidates rejected by a lower bound, no DP),
    # ``ub_accepted`` (candidates accepted by the trivial upper bound),
    # ``ted_early_exits`` (banded DPs that stopped at the > tau sentinel)
    # and ``certified`` (candidates whose preorder alignment gave the exact
    # distance, no DP).
    extra: dict = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        return self.candidate_time + self.verify_time

    def summary(self) -> str:
        """One-line human-readable summary."""
        if self.index_time > 0:
            cand = (
                f"cand {self.candidate_time:.3f}s "
                f"(probe {self.probe_time:.3f}s + index {self.index_time:.3f}s)"
            )
        else:
            cand = f"cand {self.candidate_time:.3f}s"
        return (
            f"{self.method}(tau={self.tau}, n={self.tree_count}): "
            f"{self.results} results, {self.candidates} candidates, "
            f"{self.ted_calls} TED calls, "
            f"{cand} + ted {self.verify_time:.3f}s"
        )


@dataclass
class JoinResult:
    """Pairs plus statistics returned by every join method."""

    pairs: list[JoinPair]
    stats: JoinStats

    def pair_set(self) -> set[tuple[int, int]]:
        """The result as a set of ``(i, j)`` index pairs (``i < j``)."""
        return {pair.key() for pair in self.pairs}

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[JoinPair]:
        return iter(self.pairs)


def check_join_inputs(trees: Sequence[Tree], tau: int) -> None:
    """Validate common join arguments (tau via :mod:`repro.params`)."""
    check_tau(tau)
    for position, tree in enumerate(trees):
        if not isinstance(tree, Tree):
            raise InvalidParameterError(
                f"trees[{position}] is {type(tree).__name__}, expected Tree"
            )


class Verifier:
    """Threshold-aware exact-TED verification engine (see module docstring).

    Parameters
    ----------
    trees:
        The collection, indexed by original position.
    tau:
        The join threshold; :meth:`verify` reports distances ``<= tau``.
    traversal_bound:
        Run the banded postorder string-edit lower bound on pairs the
        preorder alignment does not certify.  (The preorder one always
        runs: it is the alignment.)  The STR join disables it because its
        candidates already passed both traversal filters.
    bag_bounds:
        Which bag lower bounds to include in the filter chain: ``True``
        (all of labels / degrees / branches), ``False`` (none), or an
        iterable naming a subset.  The default, PartSJ's, is the label
        bag alone: a cheap pre-screen for the preorder alignment, which
        rejects every pair the label bound does and, on the benchmark's
        trees, nearly every pair the other two bags do.  Each baseline
        names its own: the STR join passes ``True``, the nested-loop
        join with bounds ``False`` (its screen already applied all
        three), the histogram join ``("branches",)``, the SET join
        ``("labels", "degrees")``.
    caches:
        The :class:`~repro.core.treecache.RecordStore` over ``trees`` to
        read and populate.  Sessions and streaming engines pass their
        own, so the per-tree views amortize across queries at different
        thresholds; without one the verifier keeps a private store (and
        a private label interner).  The accepted pairs and distances are
        unaffected.
    """

    #: The breakdown counters :meth:`extra_stats` reports.  Each is kept as
    #: a ``stats_<name>`` attribute, as is ``stats_ted_calls`` (banded DP
    #: runs), and every site that moves the counters between a verifier,
    #: a worker and ``JoinStats`` reads these two tuples.
    EXTRA_COUNTERS = ("lb_filtered", "ub_accepted", "ted_early_exits", "certified")
    COUNTERS = ("ted_calls",) + EXTRA_COUNTERS

    def __init__(
        self,
        trees: Sequence[Tree],
        tau: int,
        traversal_bound: bool = True,
        bag_bounds: "bool | Sequence[str]" = ("labels",),
        caches: "Optional[RecordStore]" = None,
        # Accepted and ignored: benchmarks/suite/layers.py still passes it.
        backend: object = None,
    ):
        if bag_bounds is True:
            bag_bounds = ("labels", "degrees", "branches")
        elif bag_bounds is False:
            bag_bounds = ()
        if caches is None:
            # Local import: repro.core builds on this module.
            from repro.core.treecache import RecordStore

            caches = RecordStore(trees)
        self._records = caches
        self._tau = tau
        self._traversal_bound = traversal_bound
        self._bag_bounds = frozenset(bag_bounds)
        self.stats_time = 0.0
        for name in self.COUNTERS:
            setattr(self, "stats_" + name, 0)

    def features(self, index: int) -> "TreeCache":
        """Tree ``index``'s record, whose views the bounds read."""
        return self._records[index]

    def verify(self, i: int, j: int) -> Optional[int]:
        """Exact distance if ``<= tau`` else ``None``.

        This is the hot path of every join: the pipeline described in the
        module docstring (bounds, the preorder alignment's certificate,
        then the tau-banded DP).
        """
        records = self._records
        return self._verify(records[i], records[j])

    def verify_record(self, i: int, record: "TreeCache") -> Optional[int]:
        """:meth:`verify` of tree ``i`` against a record outside the store.

        The similarity searchers verify a query this way: ``record`` is
        the query's own probe record, built over the store's interner.
        """
        return self._verify(self._records[i], record)

    def _verify(self, f1: "TreeCache", f2: "TreeCache") -> Optional[int]:
        tau = self._tau
        start = time.perf_counter()
        try:
            upper = trivial_upper_bound_from_parts(
                f1.size, f2.size, f1.labels[f1.size] == f2.labels[f2.size]
            )
            if upper <= tau:
                # The pair cannot miss; skip the whole filter chain.
                self.stats_ub_accepted += 1
                value = zhang_shasha_bounded(
                    f1.annotation, f2.annotation, upper
                )
                self.stats_ted_calls += 1
                return value  # TED <= upper, so the band cannot cut it off
            # The composite lower bound of repro.ted.bounds, evaluated
            # stepwise from the records' bags (cheapest first, stopping at
            # the first bound > tau); checks whose L1 the join's own
            # candidate screen already applied are excluded via bag_bounds.
            if abs(f1.size - f2.size) > tau:
                self.stats_lb_filtered += 1
                return None
            bags = self._bag_bounds
            if (
                ("labels" in bags
                 and label_bound_from_bags(f1.label_bag, f2.label_bag) > tau)
                or ("degrees" in bags
                    and degree_bound_from_bags(f1.degree_bag, f2.degree_bag) > tau)
                or ("branches" in bags
                    and branch_bound_from_bags(f1.branch_bag, f2.branch_bag) > tau)
            ):
                self.stats_lb_filtered += 1
                return None
            if not _canonical_order(f1, f2):
                f1, f2 = f2, f1
            aligned = string_edit_alignment(f1.preorder, f2.preorder, tau)
            if aligned is None:
                self.stats_lb_filtered += 1
                return None
            distance, pairs = aligned
            if _keeps_postorder(f1.preorder_post, f2.preorder_post, pairs):
                # The aligned pairs form an ordered edit mapping of cost
                # `distance`, a lower bound on TED: the distance is exact.
                self.stats_certified += 1
                return distance
            if self._traversal_bound and (
                string_edit_within(f1.postorder, f2.postorder, tau) is None
            ):
                self.stats_lb_filtered += 1
                return None
            x1, x2 = oriented(f1, f2)
            self.stats_ted_calls += 1
            value = zhang_shasha_bounded(x1, x2, tau)
            if value is None:
                self.stats_ted_early_exits += 1
            return value
        finally:
            self.stats_time += time.perf_counter() - start

    def counters(self) -> dict:
        """Every counter of :attr:`COUNTERS`, by name."""
        return {name: getattr(self, "stats_" + name) for name in self.COUNTERS}

    def extra_stats(self) -> dict:
        """The verification breakdown joins merge into ``JoinStats.extra``."""
        return {
            name: getattr(self, "stats_" + name) for name in self.EXTRA_COUNTERS
        }


def _canonical_order(f1: "TreeCache", f2: "TreeCache") -> bool:
    """Whether ``(f1, f2)`` ascends by ``(size, preorder label strings)``.

    The verifier aligns every pair in this order, so which alignment it
    traces, and so whether it certifies the pair, never depends on the
    argument order.  Labels compare as strings, not interned ids: stores
    in different processes number labels differently.  Records whose
    preorders are equal align the same way in either order.
    """
    if f1.size != f2.size:
        return f1.size < f2.size
    for x, y in zip(f1.preorder, f2.preorder):
        if x != y:
            return f1.interner.label(x) < f2.interner.label(y)
    return True


def _keeps_postorder(
    post1: Sequence[int], post2: Sequence[int], pairs: list[tuple[int, int]]
) -> bool:
    """Whether the aligned preorder positions keep postorder order as well.

    ``pairs`` ascend in preorder on both sides.  Of two nodes, the one
    first in preorder is an ancestor of the other if it is later in
    postorder and lies left of it otherwise, so pairs that agree in both
    orders keep ancestry and sibling order: they form an ordered edit
    mapping.
    """
    mapped = sorted([(post1[p], post2[q]) for p, q in pairs])
    second = [q for _, q in mapped]
    return second == sorted(second)


class DeferredVerification:
    """Candidate sink for a baseline join running with ``workers > 1``.

    The four baselines share the same parallel shape: the candidate loop
    stays serial (it is method-specific and cheap relative to TED), but
    instead of verifying inline it collects the pairs here and resolves
    them through the shared verification pool at the end
    (:func:`repro.parallel.verify_pool.parallel_verify`).  ``options`` are
    the join's usual :class:`Verifier` keyword arguments, so each worker
    applies exactly the bound pipeline the serial run would have.

    :meth:`resolve` fills the verification side of ``stats`` (``ted_calls``,
    ``verify_time`` as summed worker CPU seconds, the verifier breakdown
    counters, plus ``workers`` / ``verify_chunks`` / ``verify_wall_time``)
    and returns the accepted pairs — exact distances, canonical order,
    identical to inline verification.
    """

    def __init__(self, workers: int, options: Optional[dict] = None):
        self.workers = workers
        self.options = options
        self.pairs: list[tuple[int, int]] = []

    def add(self, i: int, j: int) -> None:
        self.pairs.append((i, j))

    def resolve(
        self, trees: Sequence[Tree], tau: int, stats: JoinStats
    ) -> list[JoinPair]:
        # Local import: repro.parallel builds on this module.
        from repro.parallel.verify_pool import parallel_verify

        verified, verify_stats = parallel_verify(
            trees, tau, self.pairs, self.workers, options=self.options
        )
        stats.ted_calls = verify_stats["ted_calls"]
        stats.verify_time = verify_stats["verify_time"]
        for key in Verifier.EXTRA_COUNTERS:
            stats.extra[key] = verify_stats[key]
        stats.extra["workers"] = self.workers
        stats.extra["verify_chunks"] = verify_stats["verify_chunks"]
        stats.extra["verify_wall_time"] = round(
            verify_stats["verify_wall_time"], 6
        )
        # Supervised-dispatch failure accounting (present only when the
        # verify stage actually saw worker failures; see repro.resilience).
        for key in ("retries", "worker_failures", "timeouts",
                    "degraded_serial_tasks"):
            if key in verify_stats:
                stats.extra[key] = verify_stats[key]
        return verified


class SizeSortedCollection:
    """Trees sorted ascending by size, remembering original indices.

    All joins process trees in this order (Algorithm 1, line 3): for the
    probe tree ``Ti``, only previously seen trees within the size window
    ``[|Ti| - tau, |Ti|]`` can be join partners.
    """

    def __init__(self, trees: Sequence[Tree]):
        self.order: list[int] = sorted(range(len(trees)), key=lambda k: trees[k].size)
        self.trees = trees
        # Ascending sizes, hoisted once; every tau window reuses them.
        self.sizes: list[int] = [trees[k].size for k in self.order]
        self._histogram: Optional[list[tuple[int, int]]] = None

    def __len__(self) -> int:
        return len(self.order)

    def size_histogram(self) -> list[tuple[int, int]]:
        """Ascending ``(size, count)`` runs of the sorted collection.

        Computed once and cached; shard planning
        (:func:`repro.parallel.sharding.plan_shards`) and collection
        statistics read it instead of re-scanning ``sizes``.
        """
        if self._histogram is None:
            histogram: list[tuple[int, int]] = []
            sizes = self.sizes
            run_start = 0
            for k in range(1, len(sizes) + 1):
                if k == len(sizes) or sizes[k] != sizes[run_start]:
                    histogram.append((sizes[run_start], k - run_start))
                    run_start = k
            self._histogram = histogram
        return self._histogram

    def tree_at(self, position: int) -> Tree:
        """Tree at sorted position ``position``."""
        return self.trees[self.order[position]]

    def original_index(self, position: int) -> int:
        return self.order[position]

    def iter_window_pairs(self, tau: int) -> Iterator[tuple[int, int]]:
        """Yield sorted-position pairs ``(earlier, later)`` within the window.

        A pair is yielded iff ``size(later) - size(earlier) <= tau``
        (sizes are sorted, so the window is contiguous); every unordered
        pair passing the size filter is produced exactly once.
        """
        sizes = self.sizes
        start = 0
        for later in range(len(self.order)):
            while sizes[later] - sizes[start] > tau:
                start += 1
            for earlier in range(start, later):
                yield earlier, later

    def make_pair(self, pos_a: int, pos_b: int, distance: int) -> JoinPair:
        """Build a :class:`JoinPair` in canonical (i < j) orientation."""
        i = self.original_index(pos_a)
        j = self.original_index(pos_b)
        if i > j:
            i, j = j, i
        return JoinPair(i, j, distance)
