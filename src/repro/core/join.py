"""PartSJ: the partition-based tree similarity join (paper Algorithm 1).

Processing trees in ascending size order, each tree ``Ti``:

1. **Probe phase** — every node ``N`` of ``Ti``'s binary representation
   large enough to hold an indexed subgraph probes the subgraphs of the
   trees of size ``[|Ti| - tau, |Ti| + tau]`` with its postorder number
   and its depth-2 keys, its packed twig variants plus its grandchild
   labels (:meth:`repro.core.index.InvertedSizeIndex.probe`, the one
   walk the stream and the searchers share; in ascending size order the
   index never holds a size above ``|Ti|``).  Every returned subgraph
   ``s`` whose depth-3 screen agrees with ``N`` is structurally matched
   at ``N`` by an integer-array walk; a successful match makes ``(Ti,
   owner(s))`` a candidate (checked at most once per pair), verified
   with exact TED.
2. **Insert phase** — ``Ti`` is partitioned into ``delta = 2*tau + 1``
   subgraphs maximizing the minimum subgraph size
   (:class:`repro.core.partition.PartitionCutter`), which are filed under
   size ``|Ti|`` (one index entry per subgraph).

The two phases are timed separately as ``JoinStats.probe_time`` and
``JoinStats.index_time``; ``candidate_time`` remains their sum, so the
paper's two-segment figures are unchanged while the breakdown is
available to the benchmark harness and the CLI.

Trees smaller than ``2*tau + 1`` nodes cannot be partitioned into ``delta``
non-empty subgraphs, and for them Lemma 2 gives no guarantee (every
subgraph could be touched); they are kept in a *small-tree pool* and joined
by direct verification.  The pool only ever holds trees of fewer than
``2*tau + 1`` nodes and only trees of at most ``3*tau`` nodes consult it,
so its cost is negligible (and zero for collections of non-tiny trees).

The configuration knobs (:class:`PartSJConfig`) select between the paper's
published filter variants and the provably-safe ones; see
:mod:`repro.core.subgraph` and :mod:`repro.core.index` for the analysis.

Sharding and the handoff-band invariant
---------------------------------------
The probe/insert loop is packaged as :class:`ShardDriver`, a *resumable
per-shard driver*: the serial join runs one driver over the whole
size-sorted order, and the multiprocess executor
(:mod:`repro.parallel.executor`) runs one driver per *shard* — a
contiguous run of the size-sorted order.  Sharding is sound because a
probing tree only ever finds partners **backwards**, at index sizes
``[|Ti| - tau, |Ti|]`` (the walk reads ``[|Ti| - tau, |Ti| + tau]``,
but no later, so no larger, tree is indexed yet):

- A shard owning sorted positions ``[p_lo, p_hi]`` (owned size range
  ``[lo, hi]``) first bulk-inserts its *handoff band* — every earlier
  position whose size is ``>= lo - tau`` — via
  :meth:`ShardDriver.insert_only` (partition + index insert, or small-pool
  append, with **no probing**), then probes, inserts and verifies its
  owned trees in the usual ascending order (:meth:`ShardDriver.join`).
  The band is exactly wide enough that every partner a shard tree could
  have under the size filter is present in the shard's private index
  before the tree probes.
- A candidate pair is therefore *found and verified exactly once, by the
  shard owning the later tree of the sorted order* (the larger tree; for
  equal-size trees, the one later in the stable order): the earlier tree
  is band- or owned-inserted there, while no other shard ever probes the
  later tree.  Cross-shard pairs need no coordination and, with the
  deterministic ``"maxmin"`` partitioning, the merged candidate set —
  and every owned-tree counter — is identical to the serial run's.

One caveat: ``partition_strategy="random"`` draws each shard's random
cuts from a fresh per-driver stream (serial consumption order cannot be
replayed across shards), so under ``workers > 1`` the *candidate set*
may differ slightly from the serial run's.  The **result pairs and
distances are still bit-identical** — every sound configuration's filter
is complete for any partition — but random-partition ablation figures
should be swept at a fixed worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.baselines.common import (
    JoinPair,
    JoinResult,
    JoinStats,
    SizeSortedCollection,
    Verifier,
    check_join_inputs,
)
from repro.core.index import InvertedSizeIndex, PostorderFilter
from repro.core.partition import PartitionCutter, min_partitionable_size
from repro.core.subgraph import MatchSemantics
from repro.core.treecache import RecordStore, TreeCache
from repro.errors import InvalidParameterError
from repro.obs.trace import NULL_TRACER, phase_timer
from repro.params import check_workers
from repro.resilience.faults import FaultInjector
from repro.resilience.policy import RetryPolicy
from repro.tree.node import Tree

__all__ = ["PartSJConfig", "PreparedJoinState", "ShardDriver", "partsj_join"]


@dataclass(frozen=True)
class PartSJConfig:
    """Tuning knobs for :func:`partsj_join`.

    Attributes
    ----------
    semantics:
        Subgraph matching semantics: ``"safe"`` (default; provably exact)
        or ``"paper"`` (Section 3.4's strict matching).
    postorder_filter:
        Postorder-layer window: ``"safe"`` (default), ``"paper"``
        (``Delta' = tau - floor(k/2)``) or ``"off"``.
    partition_strategy:
        ``"maxmin"`` (default; Algorithm 3) or ``"random"`` (the ablation
        control).  Random partitioning is only meaningful with
        ``postorder_filter="off"`` or ``"safe"``, because the paper's
        window derivation assumes the greedy postorder cut structure.
    seed:
        RNG seed for the random partitioning strategy.
    postorder_numbering:
        Which postorder numbers the index keys on: ``"general"`` (default;
        a surviving node's general-tree postorder shifts by at most one per
        edit, which makes the safe window provably exact) or ``"binary"``
        (LC-RS postorder — the other plausible reading of the paper's
        Figure 7, under which no constant window is sound: a single delete
        can displace a promoted subtree past an arbitrarily large sibling).
    workers:
        Number of worker processes.  ``1`` (default) runs the serial
        engine in-process; ``> 1`` dispatches to the sharded executor of
        :mod:`repro.parallel.executor` (identical pair set and distances,
        see the module docstring's handoff-band invariant).
    retry:
        A :class:`repro.resilience.RetryPolicy` governing supervised
        parallel execution (attempts, per-task timeout, backoff, and the
        graceful-degradation switch).  ``None`` (default) uses the policy
        defaults; irrelevant with ``workers == 1``.
    fault_injector:
        A :class:`repro.resilience.FaultInjector` for chaos testing
        (``None`` falls back to the ``REPRO_FAULT_SPEC`` environment
        hook).  Injected faults never change results while degradation
        is enabled — only the failure counters in ``JoinStats.extra``.
    """

    semantics: MatchSemantics | str = MatchSemantics.SAFE
    postorder_filter: PostorderFilter | str = PostorderFilter.SAFE
    partition_strategy: str = "maxmin"
    seed: int = 0
    postorder_numbering: str = "general"
    workers: int = 1
    retry: Optional["RetryPolicy"] = None
    fault_injector: Optional["FaultInjector"] = None
    # Not a field: benchmarks/suite/layers.py still reads config.backend.
    backend = "python"

    def resolved(self) -> "PartSJConfig":
        """Normalize string fields to enums and validate."""
        if self.partition_strategy not in ("maxmin", "random"):
            raise InvalidParameterError(
                f"unknown partition strategy {self.partition_strategy!r}; "
                "use 'maxmin' or 'random'"
            )
        if self.postorder_numbering not in ("general", "binary"):
            raise InvalidParameterError(
                f"unknown postorder numbering {self.postorder_numbering!r}; "
                "use 'general' or 'binary'"
            )
        check_workers(self.workers)
        if self.retry is not None:
            self.retry.validated()
        return PartSJConfig(
            semantics=MatchSemantics.coerce(self.semantics),
            postorder_filter=PostorderFilter.coerce(self.postorder_filter),
            partition_strategy=self.partition_strategy,
            seed=self.seed,
            postorder_numbering=self.postorder_numbering,
            workers=self.workers,
            retry=self.retry,
            fault_injector=self.fault_injector,
        )

    @classmethod
    def paper(cls) -> "PartSJConfig":
        """The configuration matching the published filter exactly."""
        return cls(
            semantics=MatchSemantics.PAPER,
            postorder_filter=PostorderFilter.PAPER,
        )


@dataclass
class PreparedJoinState:
    """Prepared per-collection artifacts a :class:`ShardDriver` can reuse.

    Built (and cached per ``(tau, filter-config)``) by
    :class:`repro.session.TreeCollection`; ``partsj_join`` consumes it via
    its ``prepared=`` keyword so a warm session skips the preparation
    phase — sorting, cache construction and partitioning — and pays only
    probe + index-insert + verification.  Every field mirrors state the
    serial driver would otherwise build itself, computed in the identical
    order (ascending size-sorted, gamma hints chained, the random
    strategy's RNG consumed tree by tree), so results are bit-identical
    with or without it.

    Attributes
    ----------
    collection:
        The size-sorted view of the trees (tau-independent).
    records:
        The collection's :class:`~repro.core.treecache.RecordStore`
        (``original index -> TreeCache`` over the collection-wide
        interner); missing records are built on demand into it, so later
        queries — and the verifier — reuse them.
    partitions:
        ``original index -> list[Subgraph]`` for every partitionable tree
        (size ``>= 2*tau + 1``); small trees are absent and take the
        driver's small-pool path unchanged.
    gammas:
        ``original index -> gamma`` actually used by the stored partition
        (for the random strategy, the minimum subgraph size), keeping the
        driver's ``gamma_total`` counter identical to an unprepared run.
    """

    collection: SizeSortedCollection
    records: RecordStore
    partitions: dict = field(default_factory=dict)
    gammas: dict = field(default_factory=dict)


@dataclass
class _ProbeCounters:
    """Mutable per-join counters feeding ``JoinStats.extra``."""

    # Indexed subgraphs whose depth-2 key (root twig plus member
    # grandchildren) equals a probe node's, within its postorder window.
    # Nodes whose LC-RS subtree is smaller than every probed subgraph
    # are never visited, so their hits are not counted.  A stream's
    # counters include the sizes above each arrival's.
    probe_hits: int = 0
    match_tests: int = 0  # hits tested: by the screen, then the matcher
    match_hits: int = 0  # structural matches that succeeded
    dedup_skips: int = 0  # probe hits skipped because the pair was checked
    screened: int = 0  # tested hits the depth-3 screen rejected
    small_pool_pairs: int = 0  # pairs verified via the small-tree pool
    partitioned_trees: int = 0
    small_trees: int = 0
    subgraphs_built: int = 0
    gamma_total: int = 0  # sum of chosen gammas (for average reporting)
    # Handoff-band overhead of the sharded executor: insert-only trees
    # re-partitioned at a shard boundary.  Always 0 in a serial run, and
    # excluded from the owned-tree counters above so those merge to the
    # exact serial values across shards.
    band_trees: int = 0
    band_subgraphs: int = 0

    def as_dict(self) -> dict:
        return {
            "probe_hits": self.probe_hits,
            "match_tests": self.match_tests,
            "match_hits": self.match_hits,
            "dedup_skips": self.dedup_skips,
            "screened": self.screened,
            "small_pool_pairs": self.small_pool_pairs,
            "partitioned_trees": self.partitioned_trees,
            "small_trees": self.small_trees,
            "subgraphs_built": self.subgraphs_built,
            "gamma_total": self.gamma_total,
            "band_trees": self.band_trees,
            "band_subgraphs": self.band_subgraphs,
        }


class ShardDriver:
    """Resumable probe/insert driver over one ascending-size run of trees.

    One driver owns the per-shard join state of Algorithm 1 — the inverted
    size index, the label interner, the small-tree pool and the probe
    counters — and :attr:`checked`, the partners the tree probed last has
    found so far, which :meth:`probe` clears.  Callers feed it original
    tree indices **in ascending size-sorted order** (ties in the
    collection's stable order):

    - :meth:`probe` runs the probe phase of one tree and returns its
      candidate partners; the caller decides what to do with them.
    - :meth:`insert` runs the insert phase of the same tree (partition +
      index insert, or small-pool append).  It must follow :meth:`probe`
      for that tree — the probe's :class:`TreeCache` is reused.
    - :meth:`insert_only` processes a *handoff-band* tree of the sharded
      executor: indexed (or pooled) without probing, so a later owned tree
      can find it, and counted separately (``band_trees`` /
      ``band_subgraphs``) so the owned-tree counters merge to the exact
      serial values.
    - :meth:`ingest` is the incremental probe-then-insert entry point of
      one tree, shared with the streaming engine (:mod:`repro.stream`):
      one call runs both phases and hands back the candidates.
    - :meth:`join` is Algorithm 1's pass over a run of trees: ingest each
      one and verify its candidates on the spot.  The serial join calls
      it once over the whole order, each shard of the sharded executor
      once over its owned trees.

    The serial join is the one-shard special case: every tree is owned,
    the band is empty.

    Feeding order: ascending size order makes the driver *complete* on
    its own (every partner of a probing tree is already indexed — the
    batch invariant above).  The probe/insert machinery itself is
    order-agnostic: every tree, however small, probes the index sizes
    ``[|Ti| - tau, |Ti| + tau]`` (sizes above ``|Ti|`` under the
    larger-side rule of :mod:`repro.core.index`) and the small pool
    sizes ``[|Ti| - tau, |Ti| + tau]``, and files its partition under its
    own size.  In ascending order the sizes above ``|Ti|`` are empty; the
    streaming engine relies on them to find the earlier arrivals larger
    than a late-arriving tree, including a tree too small to partition.
    """

    def __init__(
        self,
        trees: Sequence[Tree],
        tau: int,
        config: Optional[PartSJConfig] = None,
        prepared: Optional[PreparedJoinState] = None,
    ):
        cfg = (config or PartSJConfig()).resolved()
        self.trees = trees
        self.tau = tau
        self.config = cfg
        self.strict = cfg.semantics is MatchSemantics.PAPER
        self.numbering = cfg.postorder_numbering
        self.index = InvertedSizeIndex(tau, cfg.postorder_filter)
        # One record store (and so one interner) per driver: all records
        # (probe and stored sides) share it, and the packed-key label
        # budget is per shard.  A prepared session hands in its
        # collection-wide store and precomputed partitions instead; the
        # driver then skips record construction and partitioning but runs
        # the identical probe/insert discipline (see PreparedJoinState).
        # Either way a verifier over the same trees can share the store.
        self.prepared = prepared
        self.records = (
            prepared.records if prepared is not None else RecordStore(trees)
        )
        self.interner = self.records.interner
        self.counters = _ProbeCounters()
        # Partners the tree probed last has found; a pair is only ever
        # found while its later tree probes, so each probe starts afresh.
        self.checked: set[int] = set()
        self.small_pool: list[tuple[int, int]] = []  # (original index, size)
        self.cutter = PartitionCutter(
            tau, cfg.partition_strategy, cfg.seed, cfg.postorder_numbering
        )
        self.min_size = min_partitionable_size(tau)
        self.probe_time = 0.0
        self.index_time = 0.0
        self.band_time = 0.0
        self._probed_index: Optional[int] = None
        self._probed_cache: Optional[TreeCache] = None

    def probe(self, i: int) -> list[int]:
        """Probe phase for tree ``i``: candidate partner original indices."""
        tree = self.trees[i]
        n = tree.size
        tau = self.tau
        counters = self.counters
        checked = self.checked
        checked.clear()
        candidates: list[int] = []

        with phase_timer(self, "probe_time"):
            if n < self.min_size:
                counters.small_trees += 1
            # Every tree walks: a small one has no indexed partner of its
            # own size or below, but may have larger ones (out of order).
            cache = self.records[i]
            hits, tests, skips, screened = self.index.probe(
                cache, self.numbering, self.strict, checked, candidates,
            )
            counters.probe_hits += hits
            counters.match_tests += tests
            counters.match_hits += len(candidates)
            counters.dedup_skips += skips
            counters.screened += screened

            # Small-pool partners: only relevant while |Ti| - tau can reach
            # the pool's size range [1, 2*tau].  The upper guard is vacuous
            # in a batch run (ascending order means pool trees are never
            # larger) but keeps the scan exact when the streaming engine
            # feeds trees out of size order.
            if self.small_pool and n - tau <= 2 * tau:
                for j, size_j in self.small_pool:
                    if n - tau <= size_j <= n + tau and j not in checked:
                        checked.add(j)
                        counters.small_pool_pairs += 1
                        candidates.append(j)
            self._probed_index = i
            self._probed_cache = cache
        return candidates

    def insert(self, i: int) -> None:
        """Insert phase for tree ``i``; must follow ``probe(i)``.

        Files the tree's partition in the index, or appends the tree to
        the small pool when it is too small to partition.
        """
        if self._probed_index != i:
            raise InvalidParameterError(
                f"insert({i}) must follow probe({i}); last probed: "
                f"{self._probed_index}"
            )
        with phase_timer(self, "index_time"):
            n = self.trees[i].size
            if n >= self.min_size:
                subgraphs = self._partition(self._probed_cache, i, owned=True)
                self.index.insert_all(n, subgraphs)
                self.counters.partitioned_trees += 1
                self.counters.subgraphs_built += len(subgraphs)
            else:
                self.small_pool.append((i, n))
            self._probed_index = None
            self._probed_cache = None

    def ingest(self, i: int) -> list[int]:
        """Probe-then-insert for tree ``i`` in one call.

        The incremental entry point shared by :meth:`join` and the
        streaming engine (:class:`repro.stream.StreamingJoin`): returns
        the probe phase's candidate partner indices.  Verification of the
        candidates is independent of the insert: :meth:`join` and the
        stream verify them right after this call.
        """
        candidates = self.probe(i)
        self.insert(i)
        return candidates

    def join(
        self, order: Sequence[int], verifier: Verifier
    ) -> tuple[list[tuple[int, int, int]], int]:
        """Ingest each tree of ``order`` and verify its candidates inline.

        ``order`` lists original indices in ascending size-sorted order.
        Returns the accepted ``(i, j, distance)`` triples (``i < j``, in
        discovery order) and the number of candidates verified.
        """
        accepted: list[tuple[int, int, int]] = []
        candidate_count = 0
        ingest = self.ingest
        verify = verifier.verify
        for i in order:
            candidates = ingest(i)
            # Verification: the "TED computation" phase of Figures 10/12/14.
            candidate_count += len(candidates)
            for j in candidates:
                distance = verify(i, j)
                if distance is not None:
                    lo, hi = (i, j) if i < j else (j, i)
                    accepted.append((lo, hi, distance))
        return accepted, candidate_count

    def insert_only(self, i: int) -> None:
        """Index a handoff-band tree without probing it (sharded executor).

        The tree becomes findable by later owned trees exactly as if it
        had been processed normally; its work is timed in ``band_time``
        and counted in the ``band_*`` counters, never in the owned-tree
        ones.
        """
        tree = self.trees[i]
        n = tree.size
        with phase_timer(self, "band_time"):
            if n >= self.min_size:
                cache = self.records[i]
                subgraphs = self._partition(cache, i, owned=False)
                self.index.insert_all(n, subgraphs)
                self.counters.band_subgraphs += len(subgraphs)
            else:
                self.small_pool.append((i, n))
            self.counters.band_trees += 1

    def _partition(self, cache: TreeCache, i: int, owned: bool):
        """Tree ``i``'s partition: the prepared one, else a fresh cut."""
        prepared = self.prepared
        if prepared is not None and i in prepared.partitions:
            subgraphs, gamma = prepared.partitions[i], prepared.gammas[i]
        else:
            subgraphs, gamma = self.cutter.cut(cache, i)
        if owned:
            self.counters.gamma_total += gamma
        return subgraphs


def partsj_join(
    trees: Sequence[Tree],
    tau: int,
    config: Optional[PartSJConfig] = None,
    *,
    prepared: Optional[PreparedJoinState] = None,
    verifier: Optional[Verifier] = None,
    tracer=None,
) -> JoinResult:
    """The PartSJ similarity self-join (``PRT`` in the paper's figures).

    Parameters
    ----------
    trees:
        The collection; result pairs reference positions in this sequence.
    tau:
        The TED threshold.
    config:
        Filter variants; defaults to the provably-exact configuration.
        ``config.workers > 1`` runs the sharded multiprocess executor of
        :mod:`repro.parallel.executor` (identical pairs and distances).
    prepared:
        Session-prepared artifacts (:class:`PreparedJoinState`): the
        size-sorted order, shared interner/caches and per-tau partitions
        are consumed instead of rebuilt.  Results are bit-identical with
        or without it; only the preparation cost disappears.
    verifier:
        A pre-built verification engine (sessions pass one over their
        record store, shared across queries).  Without one the join
        verifies over the driver's own records.
    tracer:
        A :class:`repro.obs.Tracer` to record phase spans on (``None``
        disables tracing at zero cost).  Tracing is coarse-grained —
        one ``partsj.loop`` span around the probe/insert/verify loop,
        plus synthetic ``partsj.probe`` / ``partsj.index`` /
        ``partsj.verify`` spans carrying the driver's and verifier's
        accumulated phase attribution — and never changes results,
        counters or timings recorded in ``JoinStats``.

    >>> a = Tree.from_bracket("{a{b}{c{d}{e}}{f}}")
    >>> b = Tree.from_bracket("{a{b}{c{d}{e}}{g}}")
    >>> [p.key() for p in partsj_join([a, b], 1).pairs]
    [(0, 1)]
    """
    check_join_inputs(trees, tau)
    cfg = (config or PartSJConfig()).resolved()
    tracer = tracer if tracer is not None else NULL_TRACER
    if cfg.workers > 1:
        from repro.parallel.executor import parallel_partsj_join

        return parallel_partsj_join(
            trees, tau, cfg, prepared=prepared, tracer=tracer
        )

    stats = JoinStats(method="PRT", tau=tau, tree_count=len(trees))
    collection = (
        prepared.collection if prepared is not None
        else SizeSortedCollection(trees)
    )
    driver = ShardDriver(trees, tau, cfg, prepared=prepared)
    if verifier is None:
        verifier = Verifier(trees, tau, caches=driver.records)

    with tracer.span("partsj.loop", tau=tau, trees=len(trees)) as sp:
        accepted, stats.candidates = driver.join(collection.order, verifier)
        sp.set("candidates", stats.candidates)
    # Phase attribution the driver accumulates anyway, as synthetic
    # spans — zero cost in the per-tree loop.
    tracer.record("partsj.probe", driver.probe_time,
                  probe_hits=driver.counters.probe_hits)
    tracer.record("partsj.index", driver.index_time,
                  subgraphs=driver.counters.subgraphs_built)
    tracer.record("partsj.verify", verifier.stats_time,
                  ted_calls=verifier.stats_ted_calls)

    stats.probe_time = driver.probe_time
    stats.index_time = driver.index_time
    stats.candidate_time = stats.probe_time + stats.index_time
    stats.ted_calls = verifier.stats_ted_calls
    stats.verify_time = verifier.stats_time
    stats.results = len(accepted)
    counters = driver.counters
    stats.pairs_considered = counters.probe_hits + counters.small_pool_pairs
    stats.extra = counters.as_dict()
    stats.extra["total_indexed_subgraphs"] = driver.index.total_subgraphs
    stats.extra["total_index_entries"] = driver.index.total_entries
    stats.extra.update(verifier.extra_stats())
    accepted.sort()
    return JoinResult(pairs=[JoinPair(*t) for t in accepted], stats=stats)

