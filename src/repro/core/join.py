"""PartSJ: the partition-based tree similarity join (paper Algorithm 1).

Processing trees in ascending size order, each tree ``Ti``:

1. **Probe phase** — for every node ``N`` of ``Ti``'s binary representation
   and every size ``n`` in ``[|Ti| - tau, |Ti|]``, the two-layer index
   ``I_n`` is probed with ``N``'s postorder number and packed twig keys.
   The at most four search keys are computed *once per node* (the epsilon
   collapse is a static property of the node's children) and reused for
   every probed size.  Every returned subgraph ``s`` is structurally
   matched at ``N`` by an integer-array walk; a successful match makes
   ``(Ti, owner(s))`` a candidate (checked at most once per pair),
   verified with exact TED.
2. **Insert phase** — ``Ti`` is partitioned into ``delta = 2*tau + 1``
   subgraphs maximizing the minimum subgraph size, which are inserted into
   ``I_{|Ti|}`` (one index entry per subgraph).

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
probing tree only ever looks **backwards** at index sizes
``[|Ti| - tau, |Ti|]``:

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

import random
from bisect import bisect_left, bisect_right
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
from repro.core.intern import TWIG_LABEL_SHIFT, TWIG_LEFT_SHIFT
from repro.core.partition import (
    extract_partition,
    extract_random_partition,
    max_min_size,
    min_partitionable_size,
)
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

    probe_hits: int = 0  # subgraphs returned by the index
    match_tests: int = 0  # structural matches attempted
    match_hits: int = 0  # structural matches that succeeded
    dedup_skips: int = 0  # probe hits skipped because the pair was checked
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
    size index, the label interner, the checked-pair set, the small-tree
    pool and the probe counters.  Callers feed it original tree indices
    **in ascending size-sorted order** (ties in the collection's stable
    order):

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
      one call runs both phases and hands back the candidates plus the
      partition subgraphs.
    - :meth:`join` is Algorithm 1's pass over a run of trees: ingest each
      one and verify its candidates on the spot.  The serial join calls
      it once over the whole order, each shard of the sharded executor
      once over its owned trees.

    The serial join is the one-shard special case: every tree is owned,
    the band is empty.

    Feeding order: ascending size order makes the driver *complete* on
    its own (every partner of a probing tree is already indexed — the
    batch invariant above).  The probe/insert machinery itself is
    order-agnostic: a tree arriving out of order still probes exactly
    the index sizes ``[|Ti| - tau, |Ti|]`` and still files its partition
    under its own size, which is what the streaming engine relies on —
    it pairs the driver with a reverse index
    (:class:`repro.stream.reverse.NodeTwigIndex`) to cover partners
    larger than a late-arriving tree.
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
        self.semantics: MatchSemantics = cfg.semantics  # type: ignore[assignment]
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
        self.checked: set[tuple[int, int]] = set()
        self.small_pool: list[tuple[int, int]] = []  # (original index, size)
        self.rng = random.Random(cfg.seed)
        self.delta = 2 * tau + 1
        self.min_size = min_partitionable_size(tau)
        self.gamma_hint: Optional[int] = None  # near-duplicates share gamma
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
        candidates: list[int] = []

        with phase_timer(self, "probe_time"):
            if n >= self.min_size:
                cache = self.records[i]
                _probe_index(
                    self.index, cache, i, n, tau, self.min_size,
                    self.semantics, checked, candidates, counters,
                    self.numbering,
                )
            else:
                cache = None
                counters.small_trees += 1

            # Small-pool partners: only relevant while |Ti| - tau can reach
            # the pool's size range [1, 2*tau].  The upper guard is vacuous
            # in a batch run (ascending order means pool trees are never
            # larger) but keeps the scan exact when the streaming engine
            # feeds trees out of size order.
            if self.small_pool and n - tau <= 2 * tau:
                for j, size_j in self.small_pool:
                    if n - tau <= size_j <= n + tau:
                        key = (j, i) if j < i else (i, j)
                        if key not in checked:
                            checked.add(key)
                            counters.small_pool_pairs += 1
                            candidates.append(j)
            self._probed_index = i
            self._probed_cache = cache
        return candidates

    def insert(self, i: int) -> Optional[list]:
        """Insert phase for tree ``i``; must follow ``probe(i)``.

        Returns the partition subgraphs just filed in the index, or
        ``None`` when the tree went to the small pool instead.  (The
        streaming engine registers the subgraphs — and their shared
        :class:`TreeCache` — in its reverse index; batch callers ignore
        the return value.)
        """
        if self._probed_index != i:
            raise InvalidParameterError(
                f"insert({i}) must follow probe({i}); last probed: "
                f"{self._probed_index}"
            )
        with phase_timer(self, "index_time"):
            cache = self._probed_cache
            if cache is not None:
                subgraphs = self._partition(cache, i, owned=True)
                self.index.insert_all(self.trees[i].size, subgraphs)
                self.counters.partitioned_trees += 1
                self.counters.subgraphs_built += len(subgraphs)
            else:
                subgraphs = None
                self.small_pool.append((i, self.trees[i].size))
            self._probed_index = None
            self._probed_cache = None
        return subgraphs

    def ingest(self, i: int) -> tuple[list[int], Optional[list]]:
        """Probe-then-insert for tree ``i`` in one call.

        The incremental entry point shared by :meth:`join` and the
        streaming engine (:class:`repro.stream.StreamingJoin`): returns
        ``(candidates, subgraphs)`` where ``candidates`` are the probe
        phase's partner indices and ``subgraphs`` is the partition filed
        by the insert phase (``None`` for small-pool trees).
        Verification of the candidates is independent of the insert, so
        callers are free to verify inline, defer to a pool, or stream.
        """
        candidates = self.probe(i)
        subgraphs = self.insert(i)
        return candidates, subgraphs

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
            candidates, _ = ingest(i)
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
        """Cut tree ``i`` into ``delta`` subgraphs per the configured strategy."""
        prepared = self.prepared
        if prepared is not None:
            subgraphs = prepared.partitions.get(i)
            if subgraphs is not None:
                if owned:
                    self.counters.gamma_total += prepared.gammas[i]
                return subgraphs
        if self.config.partition_strategy == "random":
            subgraphs = extract_random_partition(
                cache, i, self.delta, self.rng, self.numbering
            )
            if owned:
                self.counters.gamma_total += min(sub.size for sub in subgraphs)
        else:
            gamma = max_min_size(cache, self.delta, hint=self.gamma_hint)
            self.gamma_hint = gamma
            subgraphs = extract_partition(
                cache, i, self.delta, gamma, self.numbering, check=False
            )
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


def _probe_index(
    index: InvertedSizeIndex,
    cache: TreeCache,
    i: int,
    n: int,
    tau: int,
    min_size: int,
    semantics: MatchSemantics,
    checked: set[tuple[int, int]],
    candidates: list[int],
    counters: _ProbeCounters,
    numbering: str,
) -> None:
    """Algorithm 1 lines 5-12: gather candidate partners for tree ``i``.

    The loop never touches node objects: labels, children and postorder
    numbers are read from the cache's flat arrays, and the packed twig
    search keys are built once per node, outside the per-size loop.
    """
    sizes = [
        size
        for size in range(max(min_size, n - tau), n + 1)
        if (size_index := index.for_size(size)) is not None and size_index.count
    ]
    if not sizes:
        return
    # The merged twig view is frozen while this tree probes (inserts happen
    # strictly after), so the bucket lookups and window bisects are inlined
    # here — the loop body is nothing but int arithmetic, dict gets and
    # list indexing.  A twig key absent from every probed size costs one
    # dict probe total, not one per size.
    merged = index.merged
    mode = index.postorder_filter
    off = mode is PostorderFilter.OFF
    strict_window = mode is PostorderFilter.PAPER
    labels = cache.labels
    left = cache.left
    right = cache.right
    positions = cache.general_post if numbering == "general" else range(n + 1)
    strict = semantics is MatchSemantics.PAPER
    label_shift = TWIG_LABEL_SHIFT
    left_shift = TWIG_LEFT_SHIFT
    probe_hits = 0
    match_tests = 0
    match_hits = 0
    dedup_skips = 0
    for b in range(1, n + 1):
        p = positions[b]
        label = labels[b]
        child = left[b]
        ll = labels[child] if child else 0
        child = right[b]
        rl = labels[child] if child else 0
        # The paper's four search keys (pack_twig layout, inlined),
        # deduplicated once per node: with a missing child the epsilon
        # variant coincides, so only the distinct packed keys survive.
        # (lab,ll,0) == full_key - rl, etc.
        full_key = (label << label_shift) | (ll << left_shift) | rl
        bare_key = label << label_shift
        if ll:
            if rl:
                twig_keys = (full_key, full_key - rl, bare_key | rl, bare_key)
            else:
                twig_keys = (full_key, bare_key)
        elif rl:
            twig_keys = (full_key, bare_key)
        else:
            twig_keys = (full_key,)
        lo = p - tau
        hi = p + tau
        for twig_key in twig_keys:
            by_size = merged.get(twig_key)
            if by_size is None:
                continue
            for size in sizes:
                bucket = by_size.get(size)
                if bucket is None:
                    continue
                entries = bucket.entries
                if off:
                    start = 0
                    stop = len(entries)
                else:
                    if bucket.dirty:
                        bucket._ensure_sorted()
                    posts = bucket.posts
                    start = bisect_left(posts, lo)
                    stop = bisect_right(posts, hi, start)
                    if start == stop:
                        continue
                for k in range(start, stop):
                    pk, half, subgraph = entries[k]
                    if strict_window and not -half <= p - pk <= half:
                        continue
                    probe_hits += 1
                    j = subgraph.owner
                    key = (j, i) if j < i else (i, j)
                    if key in checked:
                        dedup_skips += 1
                        continue
                    match_tests += 1
                    if subgraph.matches_at_number(cache, b, strict):
                        match_hits += 1
                        checked.add(key)
                        candidates.append(j)
    counters.probe_hits += probe_hits
    counters.match_tests += match_tests
    counters.match_hits += match_hits
    counters.dedup_skips += dedup_skips
