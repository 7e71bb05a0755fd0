"""Prepared-once, query-many sessions: :class:`TreeCollection` and its plans.

The paper's pipeline (partition → two-layer index → verify) pays its
preparation cost once per *collection*; this module makes the public API
pay it once per collection too.  A :class:`TreeCollection` owns every
artifact that outlives a single call:

- the size-sorted order (:class:`~repro.baselines.common.SizeSortedCollection`),
- the record store (:class:`~repro.core.treecache.RecordStore`): one
  :class:`~repro.core.treecache.TreeCache` per tree over the
  collection-wide :class:`~repro.core.intern.LabelInterner`, read by the
  partitioner, the probe and every verifier.  The tau-independent
  verification views (bags, traversals, Zhang–Shasha annotations) are
  memoized on those records, so they too outlive a single query,
- and, lazily per ``(tau, filter config)``, the partitions and two-layer
  index (:class:`_PreparedTau`) that both the join and the searcher
  consume.

Queries are *lazy builders*: :meth:`TreeCollection.join`,
:meth:`~TreeCollection.join_with` (R×S), :meth:`~TreeCollection.search`
and :meth:`~TreeCollection.stream` each return a :class:`QueryPlan` whose
:meth:`~QueryPlan.explain` describes the execution (method, filter
config, shard plan, index statistics) without running anything, and whose
:meth:`~QueryPlan.run` / :meth:`~QueryPlan.iter` execute it.  Repeated
queries reuse everything that is reusable: a second identical join is
served from the result cache, a join at a new tau re-partitions but
reuses caches and verification state, a search after a join at the same
tau reuses that tau's partitions outright.

Usage::

    col = TreeCollection.from_file("forest.trees")
    plan = col.join(tau=2)            # nothing computed yet
    plan.explain()                     # structured description
    result = plan.run()                # prepares tau=2, joins
    col.search(query, tau=2).run()     # reuses the tau=2 preparation
    col.join(tau=3).run()              # re-partitions only; caches warm

A one-off query is a one-shot session, and :class:`StreamPlan` joins any
iterable (a generator still reading from disk, a socket) as it arrives:

>>> trees = [Tree.from_bracket(s) for s in ("{a{b}{c}}", "{a{b}}", "{x{y}}")]
>>> col = TreeCollection.from_trees(trees)
>>> [p.key() for p in col.join(1).run().pairs]
[(0, 1)]
>>> query = Tree.from_bracket("{a{b}}")
>>> [(h.index, h.distance) for h in col.search(query, 1).run()]
[(0, 1), (1, 0)]
>>> right = [Tree.from_bracket("{a{b}}"), Tree.from_bracket("{z}")]
>>> [(p.i, p.j, p.distance) for p in col.join_with(right, 1).run().pairs]
[(0, 0, 1), (1, 0, 0)]
>>> [p.key() for p in StreamPlan(iter(trees), 1).iter()]
[(0, 1)]

Results are bit-identical to the unprepared engines because preparation
replays exactly what the serial driver would do, in the same order: trees
are partitioned in ascending size-sorted order, gamma hints chain across
trees, and the random strategy's RNG is seeded and consumed identically
(see :class:`repro.core.join.PreparedJoinState`).  All parameter
validation (``tau``, ``workers``) is centralized in :mod:`repro.params`.

Failure semantics
-----------------
The one multi-process execution path, a PartSJ join (or R×S join) with
``workers > 1``, runs under **supervised dispatch**
(:mod:`repro.resilience`).  The baselines and streams run in the calling
process.  The contract, in order of escalation:

1. **Detect** — each dispatched task carries a per-task deadline
   (``RetryPolicy.task_timeout``) and the supervisor health-checks worker
   pids; a crashed, hung, raising, or corrupt-result worker (result
   envelopes are CRC-checked) fails only its own task.
2. **Retry** — failed tasks are re-dispatched on a respawned pool up to
   ``RetryPolicy.max_attempts`` times, with deterministic exponential
   backoff (seeded jitter, so runs are reproducible).
3. **Degrade** — tasks that exhaust the policy are re-executed serially
   in-process (``RetryPolicy.degradation``, on by default).  Degraded
   execution uses the same pure per-shard computation, so results stay
   **bit-identical to the serial engine** no matter how many workers
   die.  With ``degradation=False`` the error escapes as
   :class:`~repro.errors.WorkerFailureError` or
   :class:`~repro.errors.TaskTimeoutError`.

All swallowed failures are accounted for in ``JoinStats.extra``
(``retries``, ``worker_failures``, ``timeouts``,
``degraded_serial_tasks``, ``pool_respawns``) and surfaced by
``QueryPlan.explain()`` under ``"resilience"``.  Knobs live on
:class:`~repro.core.join.PartSJConfig` (``retry=RetryPolicy(...)``,
``fault_injector=FaultInjector(...)`` — deterministic fault injection
for tests, also settable via the ``REPRO_FAULT_SPEC`` environment
variable).  The baselines and streams ignore them: they verify each
candidate inline, and a verification that raises propagates out of
``run()`` or ``add()``, as in a serial join.  Streaming ingest has
its own channel for malformed input: it is rejected
(``on_error="fail"``) or quarantined with counts in
``StreamStats.quarantined_trees`` (``on_error="skip"``).

Durability semantics
--------------------
Prepared sessions and streaming state survive process death
(:mod:`repro.persist`):

- ``TreeCollection.save(path)`` snapshots a session — trees (optional),
  interner, size order, every prepared tau, and the record of every
  tree the session has built — into a versioned container whose every
  section carries a CRC32, written atomically (temp file + fsync +
  rename): a crash mid-save leaves the previous snapshot intact, and a
  later reader sees either the old complete file or the new one, never
  a blend.  ``TreeCollection.load(path)`` verifies every checksum, binds
  the restored records to the trees' texts and the label table by a
  SHA-256 digest, checks each record's ranges, *and* recomputes the
  derived state it restores (interner ids, sorted order, twig keys)
  against the stored values; any mismatch, and any section whose bytes
  pass their checksum but do not decode, raises a
  :class:`~repro.errors.PersistenceError` subclass.  A loaded session
  answers joins, searches and streams **bit-identically** to the one
  that was saved, without tokenizing the trees whose records it
  restored (see :mod:`repro.persist.snapshot`).
- ``TreeCollection.from_file(path)`` auto-discovers a
  ``<path>.repro-idx`` sidecar.  The implicit path is *never trusted
  into wrongness*: a corrupt, truncated, malformed, version-mismatched
  or stale (the dataset changed since the save — detected by content
  digest) sidecar produces a warning and a cold rebuild, so the worst a
  broken snapshot can cost is preparation time, never a wrong answer.
- ``StreamingJoin(wal=path)`` appends every arrival to a per-record-CRC
  write-ahead log *before* indexing it.  The fsync policy bounds the
  loss window: ``"always"`` fsyncs per arrival (a crashed process loses
  nothing acknowledged), ``"batch"`` (default) fsyncs at every
  ``flush()``/``close()`` (a crash loses at most the arrivals since the
  last flush), ``"never"`` leaves flushing to the OS.
  ``StreamingJoin.recover(path)`` replays the log through the normal
  ingest path to a state bit-identical to a batch join over the logged
  prefix, tolerating a torn final record (the one kind of damage a
  mid-append crash can cause) and refusing — with salvage statistics on
  :class:`~repro.errors.WALCorruptError` — to replay past a mid-log
  hole, which would silently drop arrivals.

Observability
-------------
Every execution tier is instrumented (:mod:`repro.obs`), with one
invariant: **observability never changes results**.  Pairs, distances
and every ``JoinStats`` / ``StreamStats`` field are bit-identical with
tracing on, off, or under injected faults; with tracing off the hot
path runs through a shared no-op tracer whose ``span()`` is a constant
context manager.

- **Tracing** — pass ``trace=repro.Tracer()`` to any plan's ``run()``
  (or ``tracer=`` to :class:`~repro.stream.engine.StreamingJoin` /
  :class:`~repro.stream.service.StreamJoinService`), then export the
  finished spans with :func:`repro.obs.write_jsonl` or render them with
  :func:`repro.obs.format_span_tree`.  Span names are a contract:

  - ``join`` — one per executed join (attrs: ``method``, ``tau``,
    ``workers``, ``trees``, ``results``);
  - serial PartSJ: ``partsj.loop`` > ``partsj.probe`` /
    ``partsj.index`` / ``partsj.verify`` per loop pass;
  - parallel PartSJ: ``parallel.plan``, ``parallel.candidates`` >
    ``shard:<n>`` (one per shard, relayed from the worker process,
    ``pid``-stamped) > ``partsj.band`` / ``partsj.probe`` /
    ``partsj.index`` / ``partsj.verify``;
  - streaming: ``wal.append``, ``wal.sync``, ``wal.recover``,
    ``stream.flush``;
  - persistence: ``snapshot.save``, ``snapshot.load``;
  - search: ``search``.

  Worker-side spans are captured unconditionally as plain dicts,
  shipped back inside the CRC-sealed result envelopes and grafted under
  the coordinator's span only when tracing is enabled — no flag crosses
  the pool boundary.  A traced ``run()`` bypasses the session result
  *cache read* (a cache hit would emit no spans) but still stores its
  result; the returned pairs are bit-identical either way.

- **Metrics** — every executed ``JoinPlan.run()`` publishes into the
  process-wide :class:`~repro.obs.metrics.MetricsRegistry`
  (:func:`repro.obs.get_registry`); ``StreamJoinService.stats()`` and
  ``close()`` fan out ``StreamStats`` the same way.  Families:
  ``repro_join_runs_total``, ``repro_join_trees_total``,
  ``repro_join_candidates_total``, ``repro_join_results_total``,
  ``repro_join_ted_calls_total``, ``repro_join_pairs_considered_total``
  (labels ``method``, ``tau``), ``repro_join_phase_seconds{phase}``,
  ``repro_join_counter_total{counter}`` (one series per integer
  ``JoinStats.extra`` counter), and on the stream side
  ``repro_stream_snapshots_total``, gauges ``repro_stream_trees`` /
  ``_results`` / ``_candidates`` / ``_index_entries``,
  ``repro_stream_quarantined_trees_total``,
  ``repro_stream_wall_seconds{phase}``.
  :func:`repro.obs.render_prometheus` renders any registry as text
  exposition format 0.0.4.

- **Plans** — every ``QueryPlan.explain()`` carries an
  ``"observability"`` section listing the span names that run would
  emit and the metric families it would publish.

- **CLI** — ``join --trace PATH`` writes the run's spans as JSONL (one
  object per line with keys ``name``, ``span_id``, ``parent_id``,
  ``trace_id``, ``start``, ``duration``, ``pid`` plus span attributes);
  ``repro-trees trace PATH`` pretty-prints such a file; ``stats
  --metrics`` emits Prometheus text instead of the human report.  The
  ``join --json`` payload is unchanged: ``{"stats": {"method", "tau",
  "trees", "workers", "candidates", "results", "candidate_time",
  "probe_time", "index_time", "verify_time", "ted_calls", "extra"},
  "pairs": [[i, j, distance], ...]}`` (wrapped per-tau under
  ``"queries"`` when ``--tau`` repeats).

Invariants
----------
The promises above are *enforced statically* by the AST invariant
linter (:mod:`repro.analysis`, run as ``python -m repro.analysis``; a
tier-1 test fails the build on any finding).  The rules, and what each
one protects:

- ``determinism`` — inside ``core/``, ``parallel/``, ``stream/`` and
  ``ted/``: no shared global RNG or unseeded ``random.Random()``, no
  ``id()``-keyed mappings, no iterating a set straight into ordered
  output.  Protects the bit-identical contract across worker counts
  and processes.
- ``wall-clock`` — ``time.time()`` / ``datetime.now()`` and friends
  only under ``obs/`` and the benchmark harness; durations use
  ``time.perf_counter()`` / ``time.monotonic()``.  Protects
  reproducible stats and the observability-never-changes-results rule.
- ``cache-key`` — every :class:`~repro.core.join.PartSJConfig` field
  appears in ``Session._prep_key``, the snapshot config encoding and
  ``JoinPlan._cache_key``, or on an explicit exclusion list with a
  reason.  Protects against stale cache hits after a config grows a
  field.
- ``pool-boundary`` — callables handed across the fork boundary
  (``apply_async`` tasks, pool ``initializer=``, the dispatched
  function of ``PoolSupervisor.run``) must be module-level defs.
  Protects against pickle failures that only fire on multi-process
  paths.
- ``error-contract`` — no bare ``except:``, no raising builtin
  exceptions from library code (use :mod:`repro.errors`; the typed
  classes subclass the matching builtin), and every ``ReproError``
  subclass exported.  Protects the single-catchable-base promise.
- ``counter-registry`` — stats ``extra`` keys and ``repro_*`` metric
  family names must be declared in :mod:`repro.analysis.registry`.
  Protects dashboards and ``explain()`` from silent typos.

A deliberate violation is suppressed inline — hash sign, then
``repro: allow[rule-id]`` plus a justification — on the offending
line.  Pragmas are themselves linted: unknown rule ids and pragmas
that suppress nothing are findings.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from typing import Iterable, Iterator, Optional, Sequence

from repro.baselines.common import (
    JoinPair,
    JoinResult,
    SizeSortedCollection,
    Verifier,
)
from repro.baselines.histogram_join import histogram_join
from repro.baselines.nested_loop import nested_loop_join
from repro.baselines.set_join import set_join
from repro.baselines.str_join import str_join
from repro.core.index import InvertedSizeIndex
from repro.core.intern import LabelInterner
from repro.core.join import PartSJConfig, PreparedJoinState, partsj_join
from repro.core.partition import PartitionCutter, min_partitionable_size
from repro.core.treecache import RecordStore, TreeCache
from repro.errors import InvalidParameterError
from repro.obs.metrics import publish_join_stats
from repro.obs.trace import NULL_TRACER
from repro.params import check_tau, check_workers
from repro.tree.node import Tree

__all__ = [
    "TreeCollection",
    "QueryPlan",
    "JoinPlan",
    "RSJoinPlan",
    "SearchPlan",
    "StreamPlan",
    "JOIN_METHOD_NAMES",
]

# Baseline implementations the join plan dispatches to; "partsj"/"prt"
# take the prepared-session path instead.  "rel" is the figure series'
# name for the nested loop.
_BASELINE_IMPLS = {
    "str": str_join,
    "set": set_join,
    "histogram": histogram_join,
    "nested_loop": nested_loop_join,
    "rel": nested_loop_join,
}

# Every accepted method name (aliases included), as the public surface
# and error messages enumerate them.
JOIN_METHOD_NAMES = ("histogram", "nested_loop", "partsj", "prt", "rel", "set", "str")

_PARTSJ_NAMES = frozenset(("partsj", "prt"))


def _resolve_method(method: str) -> str:
    key = method.lower() if isinstance(method, str) else method
    if key not in JOIN_METHOD_NAMES:
        raise InvalidParameterError(
            f"unknown join method {method!r}; choose from "
            f"{sorted(JOIN_METHOD_NAMES)}"
        )
    return key


def _resolve_partsj_config(
    config: Optional[PartSJConfig],
    workers: int,
    options: dict,
) -> PartSJConfig:
    """The PartSJ config of a :class:`JoinPlan` (and so of an R×S plan).

    ``config=`` and loose filter kwargs are mutually exclusive; ``workers``
    is an execution knob that composes with either.
    """
    if options and config is not None:
        raise InvalidParameterError(
            "pass either a PartSJConfig via config= or individual options, "
            "not both"
        )
    if config is None and options:
        config = PartSJConfig(**options)
    if workers != 1:
        config = dataclasses.replace(
            config or PartSJConfig(), workers=workers
        )
    return (config or PartSJConfig()).resolved()


def _observability_section(span_names: Sequence[str], metrics: str) -> dict:
    """The ``"observability"`` entry every plan's :meth:`explain` carries.

    ``span_names`` are the span names a traced ``run(trace=Tracer())``
    would emit for this plan's execution shape; ``metrics`` names the
    metric family prefix (and publish hook) the run's statistics feed.
    """
    return {
        "trace": "pass trace=repro.obs.Tracer() to run()",
        "span_names": list(span_names),
        "metrics": metrics,
    }


class _PreparedTau:
    """Per-``(tau, filter config)`` artifacts of one collection.

    Holds the partitions (and their gammas) of every partitionable tree,
    cut by the serial join's own :class:`PartitionCutter` in its order;
    lazily also the fully populated index the searcher probes.  Cached
    by :meth:`TreeCollection.prepare`.
    """

    def __init__(self, collection: "TreeCollection", tau: int, config: PartSJConfig):
        started = time.perf_counter()
        self.collection = collection
        self.tau = tau
        self.config = config
        self.min_size = min_partitionable_size(tau)
        self.partitions: dict[int, list] = {}
        self.gammas: dict[int, int] = {}
        self.small: list[int] = []  # unpartitionable trees, sorted order
        cutter = PartitionCutter(
            tau, config.partition_strategy, config.seed,
            config.postorder_numbering,
        )
        sorted_col = collection.sorted
        trees = collection.trees
        for position in range(len(sorted_col)):
            i = sorted_col.original_index(position)
            if trees[i].size < self.min_size:
                self.small.append(i)
                continue
            cut = cutter.cut(collection.cache(i), i)
            self.partitions[i], self.gammas[i] = cut
        self._search_index: Optional[InvertedSizeIndex] = None
        self._searcher = None
        self.build_time = time.perf_counter() - started

    @classmethod
    def _restore(
        cls,
        collection: "TreeCollection",
        tau: int,
        config: PartSJConfig,
        partitions: dict[int, list],
        gammas: dict[int, int],
        small: list[int],
        build_time: float,
    ) -> "_PreparedTau":
        """Rebuild from snapshot state, bypassing the partition loop.

        The caller (:mod:`repro.persist.snapshot`) supplies subgraphs
        reconstructed over the collection's own caches and verified
        against their stored twig keys, so the restored artifact is
        indistinguishable from a freshly computed one — same dict
        orders, same gamma values, same rank assignment.
        """
        prep = object.__new__(cls)
        prep.collection = collection
        prep.tau = tau
        prep.config = config
        prep.min_size = min_partitionable_size(tau)
        prep.partitions = partitions
        prep.gammas = gammas
        prep.small = small
        prep._search_index = None
        prep._searcher = None
        prep.build_time = build_time
        return prep

    def join_state(self) -> PreparedJoinState:
        """The driver-consumable view (see :class:`PreparedJoinState`)."""
        col = self.collection
        return PreparedJoinState(
            collection=col.sorted,
            records=col._records,
            partitions=self.partitions,
            gammas=self.gammas,
        )

    def search_index(self) -> InvertedSizeIndex:
        """The index over every partition (built once, reused by every
        search at this tau)."""
        if self._search_index is None:
            col = self.collection
            index = InvertedSizeIndex(self.tau, self.config.postorder_filter)
            sorted_col = col.sorted
            for position in range(len(sorted_col)):
                i = sorted_col.original_index(position)
                subgraphs = self.partitions.get(i)
                if subgraphs is not None:
                    index.insert_all(col.trees[i].size, subgraphs)
            self._search_index = index
        return self._search_index

    def searcher(self):
        """A reusable :class:`repro.search.SimilaritySearcher` over this
        preparation (constructed once)."""
        if self._searcher is None:
            from repro.search import SimilaritySearcher

            self._searcher = SimilaritySearcher(
                self.collection, self.tau, self.config
            )
        return self._searcher

    def describe(self) -> dict:
        """Index statistics for :meth:`QueryPlan.explain`."""
        info = {
            "tau": self.tau,
            "partitioned_trees": len(self.partitions),
            "small_trees": len(self.small),
            "subgraphs": sum(len(s) for s in self.partitions.values()),
            "build_time": round(self.build_time, 6),
            "search_index_built": self._search_index is not None,
        }
        if self._search_index is not None:
            info["index_entries"] = self._search_index.total_entries
        return info


class TreeCollection:
    """A prepared, queryable collection of trees (the session object).

    Construct with :meth:`from_trees` or :meth:`from_file`; then build
    queries with :meth:`join`, :meth:`join_with`, :meth:`search` and
    :meth:`stream`.  All shared state — sorted order, record store
    (interner, per-tree records and their verification views), per-tau
    partitions and indexes, result cache — lives here and is reused
    across queries.

    The collection is immutable: the tree list is snapshotted at
    construction.  For growing collections use the streaming engine
    (:meth:`stream` / :class:`repro.stream.StreamingJoin`).

    >>> col = TreeCollection.from_trees(
    ...     [Tree.from_bracket(s) for s in ("{a{b}{c}}", "{a{b}}", "{x{y}}")]
    ... )
    >>> sorted(p.key() for p in col.join(1).run().pairs)
    [(0, 1)]
    >>> [h.index for h in col.search(Tree.from_bracket("{a{b}}"), 1).run()]
    [0, 1]
    """

    def __init__(self, trees: Iterable[Tree]):
        trees = list(trees)
        for position, tree in enumerate(trees):
            if not isinstance(tree, Tree):
                raise InvalidParameterError(
                    f"trees[{position}] is {type(tree).__name__}, expected Tree"
                )
        self._trees: list[Tree] = trees
        self._sorted: Optional[SizeSortedCollection] = None
        self._records = RecordStore(trees)
        self._prepared: dict[tuple, _PreparedTau] = {}
        self._results: dict = {}
        self._merged: dict[int, tuple] = {}  # id(other) -> (other, merged)
        self._provenance: Optional[dict] = None  # set by snapshot loads

    # -- construction --------------------------------------------------------

    @classmethod
    def from_trees(cls, trees: Iterable[Tree]) -> "TreeCollection":
        """A session over an in-memory collection (the list is copied)."""
        return cls(trees)

    @classmethod
    def from_file(cls, path, sidecar="auto") -> "TreeCollection":
        """A session over a dataset file (one bracket tree per line,
        ``.gz`` supported; see :mod:`repro.datasets.io`).

        ``sidecar`` controls snapshot auto-discovery: ``"auto"`` (the
        default) loads ``<path>.repro-idx`` next to the dataset when it
        exists, restoring every prepared tau and every tree record saved
        there; a path loads that snapshot explicitly; ``None`` disables
        the lookup.  A snapshot that is corrupt, malformed, stale (the
        dataset changed since it was saved) or otherwise unusable is
        **never** trusted: the session warns and rebuilds cold instead,
        so a broken sidecar can cost preparation time but not
        correctness.
        """
        from repro.datasets.io import load_trees

        trees = load_trees(path)
        snapshot_path = None
        if sidecar == "auto":
            from repro.persist.snapshot import sidecar_path

            candidate = sidecar_path(path)
            if candidate.exists():
                snapshot_path = candidate
        elif sidecar is not None:
            snapshot_path = sidecar
        if snapshot_path is not None:
            from repro.errors import PersistenceError
            from repro.persist.snapshot import load_collection

            try:
                return load_collection(
                    snapshot_path, trees=trees, expected_source=path
                )
            except PersistenceError as exc:
                warnings.warn(
                    f"ignoring snapshot {snapshot_path}: {exc} — "
                    "rebuilding the session cold",
                    stacklevel=2,
                )
        return cls(trees)

    # -- persistence ---------------------------------------------------------

    def save(self, path, include_trees: bool = True, source=None):
        """Snapshot this session — trees, every prepared tau and every
        record already built — to ``path``.

        The write is atomic (temp + fsync + rename) and every section is
        checksummed; see :mod:`repro.persist`.  ``include_trees=False``
        writes a *sidecar* (everything but the trees: interner, order,
        partitions, records) meant to live next to its dataset file —
        pass ``source=<dataset path>`` so loads can verify the dataset
        has not changed since.  Saving builds no record the session
        lacks.  Returns the written path.
        """
        from repro.persist.snapshot import save_collection

        return save_collection(
            self, path, include_trees=include_trees, source=source
        )

    @classmethod
    def load(cls, path, trees: Optional[Sequence[Tree]] = None) -> "TreeCollection":
        """Rebuild a session from a :meth:`save` snapshot.

        Every section checksum is verified, labels are re-interned in
        their stored order (so restored records and packed twig keys
        keep their ids), the size-sorted order is recomputed and
        compared, the saved records are adopted once their digest
        matches these trees' texts and their ranges check out, and every
        restored subgraph's twig key is recomputed against the stored
        one — a loaded session answers joins and searches bit-identically
        to the session that was saved.  A snapshot saved without records
        loads too; its records are built from text on first use.
        Raises the :class:`~repro.errors.PersistenceError` family on any
        damage; use :meth:`from_file` for the warn-and-rebuild behavior.
        """
        from repro.persist.snapshot import load_collection

        return load_collection(path, trees=trees)

    @property
    def provenance(self) -> Optional[dict]:
        """Where this session came from, when loaded from a snapshot
        (path, format/library versions, sections, restored taus, the
        count of restored records) — ``None`` for sessions built
        in-process."""
        return self._provenance

    def drop_caches(self, deep: bool = False) -> None:
        """Release derived state kept for query reuse.

        The default drops the result cache and the merged R×S sessions
        (the unbounded-growth candidates); ``deep=True`` additionally
        drops every prepared tau and every per-tree record with its
        verification views, returning the session to its
        just-constructed footprint (the interner keeps its ids).  The
        next query rebuilds whatever it needs — results are unaffected.
        """
        self._results.clear()
        self._merged.clear()
        if deep:
            self._prepared.clear()
            self._records.clear()

    # -- shared state --------------------------------------------------------

    @property
    def trees(self) -> list[Tree]:
        """The collection, indexed as every result pair references it."""
        return self._trees

    def __len__(self) -> int:
        return len(self._trees)

    def __getitem__(self, index: int) -> Tree:
        return self._trees[index]

    def __iter__(self) -> Iterator[Tree]:
        return iter(self._trees)

    def __repr__(self) -> str:
        prepared = sorted({key[0] for key in self._prepared})
        return (
            f"TreeCollection({len(self._trees)} trees, "
            f"prepared taus {prepared or '[]'})"
        )

    @property
    def sorted(self) -> SizeSortedCollection:
        """The size-sorted view (built once, tau-independent)."""
        if self._sorted is None:
            self._sorted = SizeSortedCollection(self._trees)
        return self._sorted

    @property
    def interner(self) -> LabelInterner:
        """The collection-wide label interner all records share."""
        return self._records.interner

    def cache(self, i: int) -> TreeCache:
        """Tree ``i``'s record (built on first use, kept)."""
        return self._records[i]

    @property
    def verifier_caches(self) -> RecordStore:
        """The record store every query's verifier reads and fills."""
        return self._records

    # -- preparation ---------------------------------------------------------

    @staticmethod
    def _prep_key(tau: int, config: PartSJConfig) -> tuple:
        # Every filter field except the execution knob (workers) keys the
        # preparation.  semantics does not influence the partitions or
        # the index contents, but the cached searcher carries its
        # prep.config into query-time matching — sharing a prep across
        # semantics would silently answer a "safe" search with "paper"
        # strictness (or vice versa).
        return (
            tau,
            config.semantics,
            config.partition_strategy,
            config.seed,
            config.postorder_numbering,
            config.postorder_filter,
        )

    def prepare(
        self, tau: int, config: Optional[PartSJConfig] = None
    ) -> _PreparedTau:
        """Partition the collection for ``tau`` (cached per filter config).

        Idempotent and lazy: the first call at a ``(tau, config)`` pays
        the partitioning pass; later joins and searches at the same key
        reuse it.  Returns the prepared artifact (mostly useful for its
        :meth:`_PreparedTau.describe` statistics).
        """
        prep, _ = self._prepare_entry(check_tau(tau), self._resolved(config))
        return prep

    def _resolved(self, config: Optional[PartSJConfig]) -> PartSJConfig:
        return (config or PartSJConfig()).resolved()

    def _prepare_entry(
        self, tau: int, config: PartSJConfig
    ) -> tuple[_PreparedTau, bool]:
        """``(prepared, fresh)`` where ``fresh`` is True when this call
        built it (the builder's cost then belongs to the running query)."""
        key = self._prep_key(tau, config)
        prep = self._prepared.get(key)
        if prep is not None:
            return prep, False
        prep = _PreparedTau(self, tau, config)
        self._prepared[key] = prep
        return prep, True

    def is_prepared(
        self, tau: int, config: Optional[PartSJConfig] = None
    ) -> bool:
        """Whether :meth:`prepare` already ran for this ``(tau, config)``."""
        return self._prep_key(tau, self._resolved(config)) in self._prepared

    def prepared_taus(self) -> list[int]:
        """Thresholds with at least one prepared artifact (ascending)."""
        return sorted({key[0] for key in self._prepared})

    def stats(self) -> dict:
        """Session-level statistics (for diagnostics and the CLI)."""
        sizes = self.sorted.sizes if self._trees else []
        stats = {
            "trees": len(self._trees),
            "size_min": sizes[0] if sizes else None,
            "size_max": sizes[-1] if sizes else None,
            "tree_caches": len(self._records),
            "prepared": [prep.describe() for prep in self._prepared.values()],
            "cached_results": len(self._results),
            "verifier_annotations": self._records.built("annotation"),
            "merged_sessions": len(self._merged),
        }
        if self._provenance is not None:
            stats["snapshot"] = dict(self._provenance)
        return stats

    # -- query builders ------------------------------------------------------

    def join(
        self,
        tau: int,
        method: str = "partsj",
        workers: int = 1,
        config: Optional[PartSJConfig] = None,
        **options,
    ) -> "JoinPlan":
        """A lazy self-join plan: all pairs with ``TED <= tau``.

        Validation happens now; execution on :meth:`JoinPlan.run`.

        Parameters
        ----------
        tau:
            The TED threshold (an integer >= 0).  Result pairs are
            ``(i, j, distance)`` with ``i < j`` indexing this collection.
        method:
            ``"partsj"`` (default; alias ``"prt"``), ``"str"``, ``"set"``,
            ``"histogram"`` or ``"nested_loop"`` (alias ``"rel"``), in any
            case.  All methods return the identical result set; they
            differ in filtering strategy and therefore speed.
        workers:
            Worker process count (default ``1`` = serial, in-process).
            PartSJ shards the join across the workers, and each shard
            verifies its own candidates (:mod:`repro.parallel`).  The
            baselines run in this process at any setting, and the plan
            reports ``workers`` 1 for them.  Results are bit-identical at
            every setting.
        config:
            PartSJ's filter configuration (:class:`PartSJConfig`), or
            ``None`` for the provably exact default.  Rejected for the
            baselines.
        options:
            Method-specific options: PartSJ's filter fields as loose
            keywords (``semantics="paper"``; not together with
            ``config``), ``use_bounds=False`` for the nested loop,
            ``banded=False`` for STR.
        """
        return JoinPlan(self, tau, method, workers, config, options)

    def join_with(
        self,
        other: "TreeCollection | Sequence[Tree]",
        tau: int,
        method: str = "partsj",
        workers: int = 1,
        config: Optional[PartSJConfig] = None,
        **options,
    ) -> "RSJoinPlan":
        """A lazy R×S join plan against ``other`` (non-self join).

        Result pairs have ``pair.i`` indexing this collection and
        ``pair.j`` indexing ``other``.  The merged preparation is cached
        (keyed by the ``other`` object itself, whether a
        :class:`TreeCollection` or a plain sequence), so repeated R×S
        queries against the same ``other`` (at any tau) re-prepare
        nothing.
        """
        return RSJoinPlan(self, other, tau, method, workers, config, options)

    def search(
        self,
        query: Tree,
        tau: int,
        config: Optional[PartSJConfig] = None,
    ) -> "SearchPlan":
        """A lazy similarity-search plan: collection trees within ``tau``
        of ``query``.  Repeated searches at one tau share the prepared
        index and one verifier."""
        return SearchPlan(self, query, tau, config)

    def searcher(self, tau: int, config: Optional[PartSJConfig] = None):
        """A reusable searcher over this collection (prepared once).

        Equivalent to running :meth:`search` plans one by one, minus the
        plan objects; handy in a REPL or a service loop.
        """
        return self.prepare(tau, config).searcher()

    def stream(
        self,
        tau: int,
        config: Optional[PartSJConfig] = None,
    ) -> "StreamPlan":
        """A lazy streaming re-play of this collection in arrival order.

        :meth:`StreamPlan.iter` yields verified pairs as they are found —
        exactly the pairs of :meth:`join` at the same tau, discovered
        incrementally; :meth:`StreamPlan.engine` instead hands back the
        live :class:`~repro.stream.StreamingJoin` after pre-loading the
        collection, for callers who want to keep ingesting.
        """
        return StreamPlan(self._trees, tau, config, collection=self)

    # -- internals -----------------------------------------------------------

    # Merged sessions retained per right side; beyond this many distinct
    # right sides the oldest entry (and its prepared state) is dropped.
    _MERGED_CACHE_LIMIT = 8

    def _cached_merged_with(
        self, other: "TreeCollection | Sequence[Tree]"
    ) -> Optional["TreeCollection"]:
        """The cached merged session for ``other``, or ``None``.

        A hit requires the same right-side *object* with the same tree
        objects in it: a ``TreeCollection`` is immutable by contract, but
        a plain list can be mutated between queries, so its snapshot is
        re-validated by an O(n) identity scan — a stale merged session
        must never silently answer for trees it has not seen.
        """
        entry = self._merged.get(id(other))
        if entry is None or entry[0] is not other:
            return None
        snapshot = entry[1]
        if snapshot is not None and (
            len(snapshot) != len(other)
            or any(a is not b for a, b in zip(snapshot, other))
        ):
            del self._merged[id(other)]
            return None
        # True LRU: a hit moves the entry to the recently-used end, so
        # eviction (oldest-first insertion order) drops the right side
        # least recently queried, not least recently first seen.
        self._merged[id(other)] = self._merged.pop(id(other))
        return entry[2]

    def _merged_with(
        self, other: "TreeCollection | Sequence[Tree]"
    ) -> "TreeCollection":
        """The cached merged session behind R×S joins against ``other``.

        Keyed by the identity of the object the caller passed — a
        :class:`TreeCollection` or a plain sequence — with a strong
        reference held so the id stays valid; the cache is bounded so a
        churn of one-off right sides cannot grow it without limit.
        """
        merged = self._cached_merged_with(other)
        if merged is not None:
            return merged
        if isinstance(other, TreeCollection):
            right_trees, snapshot = other.trees, None
        else:
            right_trees = snapshot = list(other)
        merged = TreeCollection.from_trees(
            list(self._trees) + list(right_trees)
        )
        while len(self._merged) >= self._MERGED_CACHE_LIMIT:
            self._merged.pop(next(iter(self._merged)))
        self._merged[id(other)] = (other, snapshot, merged)
        return merged

    def _cached_result(self, key: Optional[tuple]):
        return self._results.get(key) if key is not None else None

    def _store_result(self, key: Optional[tuple], result) -> None:
        if key is not None:
            self._results[key] = result


class QueryPlan:
    """A validated, not-yet-executed query over a :class:`TreeCollection`.

    Subclasses implement :meth:`run` (execute, return the result),
    :meth:`iter` (element-wise iteration) and :meth:`explain` (a
    structured, side-effect-light description of what :meth:`run` would
    do).  Plans are cheap to build and reusable; running one twice
    returns the session's cached result where the query is cacheable.
    """

    kind = "query"

    def run(self):
        raise NotImplementedError

    def iter(self):
        return iter(self.run())

    def explain(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:
        try:
            detail = self.explain()
        except Exception:  # pragma: no cover - defensive repr
            detail = {}
        summary = ", ".join(
            f"{k}={detail[k]!r}" for k in ("method", "tau", "workers")
            if k in detail and detail[k] is not None
        )
        return f"{type(self).__name__}({summary})"


class JoinPlan(QueryPlan):
    """Self-join plan built by :meth:`TreeCollection.join`."""

    kind = "join"

    def __init__(
        self,
        collection: TreeCollection,
        tau: int,
        method: str,
        workers: int,
        config: Optional[PartSJConfig],
        options: dict,
    ):
        self.collection = collection
        self.tau = check_tau(tau)
        self.method = _resolve_method(method)
        self.workers = check_workers(workers)
        if self.method in _PARTSJ_NAMES:
            self.config = _resolve_partsj_config(config, self.workers, options)
            # The resolved config is authoritative for execution — a
            # PartSJConfig(workers=N) composes exactly like workers=N, so
            # explain() and the shard-plan gate must report it.
            self.workers = self.config.workers
            self.options: dict = {}
        else:
            if config is not None:
                raise InvalidParameterError(
                    f"config= is a PartSJ option; method {self.method!r} "
                    "takes its own keyword options"
                )
            self.config = None
            self.options = dict(options)
            # A baseline verifies each candidate inline, in this process,
            # whatever ``workers`` asked for.
            self.workers = 1

    def _cache_key(self) -> Optional[tuple]:
        if self.config is not None:
            return ("join", self.tau, "partsj", self.config)
        try:
            options = tuple(sorted(self.options.items()))
            hash(options)
        except TypeError:
            return None
        return ("join", self.tau, self.method, self.workers, options)

    def run(self, trace=None) -> JoinResult:
        """Execute (or fetch from the session's result cache).

        The returned :class:`~repro.baselines.common.JoinResult` may be
        served to later identical queries — treat it as read-only.

        ``trace`` (a :class:`repro.obs.Tracer`) records the execution as
        a span tree rooted at ``join``; a traced run bypasses the result
        cache *read* (a cache hit would execute nothing and emit no
        spans) but its result — bit-identical with tracing on or off —
        still lands in the cache.  Every executed run also publishes its
        :class:`~repro.baselines.common.JoinStats` into the process-wide
        metrics registry (:func:`repro.obs.publish_join_stats`).
        """
        col = self.collection
        tracer = trace if trace is not None else NULL_TRACER
        key = self._cache_key()
        if not tracer.enabled:
            cached = col._cached_result(key)
            if cached is not None:
                return cached
        method = "partsj" if self.config is not None else self.method
        with tracer.span("join", method=method, tau=self.tau,
                         workers=self.workers, trees=len(col)) as sp:
            if self.config is not None:
                result = self._run_partsj(tracer)
            else:
                impl = _BASELINE_IMPLS[self.method]
                result = impl(col.trees, self.tau, **self.options)
            sp.set("results", len(result.pairs))
        publish_join_stats(result.stats)
        col._store_result(key, result)
        return result

    def _run_partsj(self, tracer=NULL_TRACER) -> JoinResult:
        col = self.collection
        cfg = self.config
        if cfg.workers > 1:
            # Each shard builds its own records and partitions in its
            # worker, over the Tree list the pool inherits, and verifies
            # its candidates there.  The executor consumes the prepared
            # sorted order for shard planning, and its serial fallbacks
            # (tiny collections, single-shard plans) run warm off the
            # same state.  Reuse the full per-tau partitions when this
            # session already has them; otherwise hand over a bare state
            # rather than paying a partitioning pass the workers would
            # ignore.
            if col.is_prepared(self.tau, cfg):
                state = col.prepare(self.tau, cfg).join_state()
            else:
                state = PreparedJoinState(
                    collection=col.sorted, records=col._records
                )
            return partsj_join(col.trees, self.tau, cfg, prepared=state,
                               tracer=tracer)
        prep, fresh = col._prepare_entry(self.tau, cfg)
        verifier = Verifier(col.trees, self.tau, caches=col._records)
        result = partsj_join(
            col.trees, self.tau, cfg,
            prepared=prep.join_state(), verifier=verifier, tracer=tracer,
        )
        # Keep the paper's two-phase accounting intact: a cold run did
        # the partitioning inside prepare(), so its cost is folded back
        # into the index-build phase; a warm run genuinely skipped it.
        if fresh:
            result.stats.index_time += prep.build_time
            result.stats.candidate_time += prep.build_time
        result.stats.extra["prep_time"] = round(prep.build_time, 6)
        result.stats.extra["prep_reused"] = not fresh
        return result

    def iter(self) -> Iterator[JoinPair]:
        return iter(self.run().pairs)

    def explain(self) -> dict:
        col = self.collection
        plan = {
            "kind": self.kind,
            "method": "partsj" if self.config is not None else self.method,
            "tau": self.tau,
            "workers": self.workers,
            "collection": {
                "trees": len(col),
                "size_min": col.sorted.sizes[0] if len(col) else None,
                "size_max": col.sorted.sizes[-1] if len(col) else None,
            },
            "cached_result": col._cached_result(self._cache_key()) is not None,
        }
        if self.config is not None:
            cfg = self.config
            plan["filter"] = {
                "semantics": getattr(cfg.semantics, "value", cfg.semantics),
                "postorder_filter": getattr(
                    cfg.postorder_filter, "value", cfg.postorder_filter
                ),
                "partition_strategy": cfg.partition_strategy,
                "postorder_numbering": cfg.postorder_numbering,
                "seed": cfg.seed,
            }
            plan["small_tree_floor"] = min_partitionable_size(self.tau)
            plan["prepared"] = col.is_prepared(self.tau, cfg)
            if plan["prepared"]:
                plan["index"] = col.prepare(self.tau, cfg).describe()
            if self.workers > 1:
                from repro.parallel.sharding import plan_shards
                from repro.resilience import FaultInjector, RetryPolicy

                plan["shards"] = [
                    {
                        "shard": shard.shard_id,
                        "owned_trees": len(shard.owned),
                        "band_trees": len(shard.band),
                        "size_range": [shard.lo, shard.hi],
                        "est_cost": shard.est_cost,
                    }
                    for shard in plan_shards(col.sorted, self.tau, self.workers)
                ]
                # The failure policy this execution would run under: the
                # config's retry knobs (or the defaults) plus whether a
                # fault injector is active (config or REPRO_FAULT_SPEC).
                injector = (
                    cfg.fault_injector if cfg.fault_injector is not None
                    else FaultInjector.from_env()
                )
                plan["resilience"] = {
                    **(cfg.retry or RetryPolicy()).validated().describe(),
                    "fault_injection": injector is not None,
                }
        else:
            plan["options"] = dict(self.options)
        if self.config is not None and self.workers > 1:
            spans = (
                "join", "parallel.plan", "parallel.candidates", "shard:<n>",
                "partsj.band", "partsj.probe", "partsj.index",
                "partsj.verify",
            )
        elif self.config is not None:
            spans = (
                "join", "partsj.loop", "partsj.probe", "partsj.index",
                "partsj.verify",
            )
        else:
            spans = ("join",)
        plan["observability"] = _observability_section(
            spans, "repro_join_* (published via repro.obs.publish_join_stats)"
        )
        return plan


class RSJoinPlan(QueryPlan):
    """R×S join plan built by :meth:`TreeCollection.join_with`.

    Implements the paper's "directly applicable" construction: the two
    collections are merged, self-joined, and same-side pairs discarded.
    The merged session is cached on the left collection, so repeated R×S
    queries (any tau, any method) against the same right side prepare
    nothing twice.
    """

    kind = "rs_join"

    def __init__(
        self,
        left: TreeCollection,
        right: "TreeCollection | Sequence[Tree]",
        tau: int,
        method: str,
        workers: int,
        config: Optional[PartSJConfig],
        options: dict,
    ):
        self.left = left
        self.right = right  # kept as passed: it keys the merged cache
        # Validate eagerly with the same rules as a self-join plan.
        self._inner_args = (tau, method, workers, config, options)
        self._template = JoinPlan(left, tau, method, workers, config, options)

    @property
    def tau(self) -> int:
        return self._template.tau

    @property
    def workers(self) -> int:
        return self._template.workers

    def _inner_plan(self) -> JoinPlan:
        tau, method, workers, config, options = self._inner_args
        merged = self.left._merged_with(self.right)
        return JoinPlan(merged, tau, method, workers, config, dict(options))

    def run(self, trace=None) -> JoinResult:
        """All cross pairs ``(i, j)`` with ``TED(left[i], right[j]) <= tau``.

        ``trace`` is forwarded to the merged self-join's
        :meth:`JoinPlan.run` — the R×S post-filter adds no spans of its
        own.
        """
        inner = self._inner_plan().run(trace=trace)
        offset = len(self.left)
        cross: list[JoinPair] = []
        discarded = 0
        for pair in inner.pairs:
            # Merged-index pairs are canonical (i < j); a cross pair has
            # its low index in `left` and its high index in `right`.
            if pair.i < offset <= pair.j:
                cross.append(JoinPair(pair.i, pair.j - offset, pair.distance))
            else:
                discarded += 1
        # The inner result may be cached on the merged session — derive
        # the RS stats on a copy instead of mutating it.
        stats = dataclasses.replace(inner.stats)
        stats.extra = dict(inner.stats.extra)
        stats.method = f"{inner.stats.method}-RS"
        stats.results = len(cross)
        stats.extra["cross_pairs"] = len(cross)
        stats.extra["same_side_pairs_discarded"] = discarded
        cross.sort(key=lambda p: (p.i, p.j))
        return JoinResult(pairs=cross, stats=stats)

    def iter(self) -> Iterator[JoinPair]:
        return iter(self.run().pairs)

    def explain(self) -> dict:
        # explain() must not build the merged session (plans run nothing
        # until .run()): describe through it only when a previous run
        # already materialized it; otherwise report the not-yet-merged
        # shape from the validated template.
        merged = self.left._cached_merged_with(self.right)
        if merged is not None:
            tau, method, workers, config, options = self._inner_args
            plan = JoinPlan(
                merged, tau, method, workers, config, dict(options)
            ).explain()
        else:
            template = self._template
            plan = {
                "kind": self.kind,
                "method": (
                    "partsj" if template.config is not None else template.method
                ),
                "tau": template.tau,
                "workers": template.workers,
                "collection": {
                    "trees": len(self.left) + len(self.right),
                    "size_min": None,  # merged session not built yet
                    "size_max": None,
                },
                "prepared": False,
                "cached_result": False,
            }
            if template.config is not None:
                cfg = template.config
                plan["filter"] = {
                    "semantics": getattr(cfg.semantics, "value", cfg.semantics),
                    "postorder_filter": getattr(
                        cfg.postorder_filter, "value", cfg.postorder_filter
                    ),
                    "partition_strategy": cfg.partition_strategy,
                    "postorder_numbering": cfg.postorder_numbering,
                    "seed": cfg.seed,
                }
                plan["small_tree_floor"] = min_partitionable_size(template.tau)
            else:
                plan["options"] = dict(template.options)
        plan["kind"] = self.kind
        plan["left_trees"] = len(self.left)
        plan["right_trees"] = len(self.right)
        plan.setdefault("observability", _observability_section(
            ("join",),
            "repro_join_* (published via repro.obs.publish_join_stats)",
        ))
        return plan


class SearchPlan(QueryPlan):
    """Similarity-search plan built by :meth:`TreeCollection.search`."""

    kind = "search"

    def __init__(
        self,
        collection: TreeCollection,
        query: Tree,
        tau: int,
        config: Optional[PartSJConfig],
    ):
        if not isinstance(query, Tree):
            raise InvalidParameterError(
                f"query must be a Tree, got {type(query).__name__}"
            )
        self.collection = collection
        self.query = query
        self.tau = check_tau(tau)
        self.config = collection._resolved(config)

    def run(self, trace=None) -> list:
        """All collection trees with ``TED(query, tree) <= tau``, as
        :class:`repro.search.SearchHit` objects.  ``trace`` (a
        :class:`repro.obs.Tracer`) records the query as one ``search``
        span."""
        tracer = trace if trace is not None else NULL_TRACER
        with tracer.span("search", tau=self.tau,
                         query_size=self.query.size) as sp:
            hits = self.collection.prepare(
                self.tau, self.config
            ).searcher().search(self.query)
            sp.set("hits", len(hits))
        return hits

    def explain(self) -> dict:
        col = self.collection
        prepared = col.is_prepared(self.tau, self.config)
        plan = {
            "kind": self.kind,
            "method": "partsj-index",
            "tau": self.tau,
            "workers": 1,
            "query_size": self.query.size,
            "collection": {
                "trees": len(col),
                "size_min": col.sorted.sizes[0] if len(col) else None,
                "size_max": col.sorted.sizes[-1] if len(col) else None,
            },
            "prepared": prepared,
            "small_tree_floor": min_partitionable_size(self.tau),
        }
        if prepared:
            plan["index"] = col.prepare(self.tau, self.config).describe()
        plan["observability"] = _observability_section(
            ("search",), "none (session stats only)"
        )
        return plan


class StreamPlan(QueryPlan):
    """Streaming plan: re-play a source through the incremental engine.

    Built by :meth:`TreeCollection.stream` (source = the collection's
    trees in arrival order) or directly as ``StreamPlan(source, tau,
    config)`` over any iterable, consumed lazily: pair indices are
    arrival positions, and each arrival's pairs are yielded before the
    next tree is pulled, so a consumer that stops early holds a correct
    join of the prefix it has seen (under a sound ``config`` such as the
    default; see :mod:`repro.stream.engine`).  The constructor validates
    ``tau`` at once, not at the first ``next()``.  Preparation cannot be
    reused here by design — the streaming engine builds its own state
    incrementally — which :meth:`explain` reports honestly.
    """

    kind = "stream"

    def __init__(
        self,
        source: Iterable[Tree],
        tau: int,
        config: Optional[PartSJConfig] = None,
        collection: Optional[TreeCollection] = None,
    ):
        self.source = source
        self.tau = check_tau(tau)
        self.config = config
        self.collection = collection

    def iter(self, trace=None) -> Iterator[JoinPair]:
        """Yield each arrival's verified pairs right after its ``add``
        (lazy in the source).

        ``trace`` (a :class:`repro.obs.Tracer`) is handed to the
        streaming engine — it records a ``stream.flush`` span when the
        stream ends."""
        return self._generate(trace)

    def _generate(self, trace=None) -> Iterator[JoinPair]:
        from repro.stream.engine import StreamingJoin

        with StreamingJoin(self.tau, config=self.config, tracer=trace) as join:
            for tree in self.source:
                yield from join.add(tree)

    def run(self, trace=None) -> list[JoinPair]:
        """Drain the stream; the pairs equal a batch join of the source."""
        return list(self.iter(trace=trace))

    def engine(self, trace=None):
        """A live :class:`~repro.stream.StreamingJoin` pre-loaded with the
        source — the warm-handoff path for callers who keep ingesting.
        Pairs found during pre-load are in ``engine.pairs``; the caller
        owns the engine's lifecycle (``close()`` / context manager).
        """
        from repro.stream.engine import StreamingJoin

        join = StreamingJoin(self.tau, config=self.config, tracer=trace)
        join.add_many(self.source)
        return join

    def explain(self) -> dict:
        return {
            "kind": self.kind,
            "method": "partsj-stream",
            "tau": self.tau,
            "workers": 1,
            "source": (
                {"trees": len(self.collection)}
                if self.collection is not None
                else {"trees": None}  # lazy iterable; length unknown
            ),
            "prepared": False,  # the engine builds its own state incrementally
            "observability": _observability_section(
                ("stream.flush", "wal.append", "wal.sync"),
                "repro_stream_* (published via "
                "repro.obs.publish_stream_stats)",
            ),
        }
