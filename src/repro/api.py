"""One-shot convenience shims over :mod:`repro.session` sessions.

The canonical API is the *prepared-once, query-many* session object::

    from repro import TreeCollection

    col = TreeCollection.from_file("forest.trees")
    result = col.join(tau=2).run()          # prepares tau=2, joins
    col.search(query, tau=2).run()          # reuses that preparation
    col.join(tau=3).run()                   # re-partitions only
    for pair in col.stream(tau=2).iter():   # incremental re-play
        ...

Every query builder returns a :class:`repro.session.QueryPlan` with
``.explain()`` (structured plan: method, filter config, shard plan, index
statistics) and ``.run()`` / ``.iter()``.  Preparation — parsing,
interning, size-sorting, partitioning, index building, per-tree
verification caches — happens once per collection (per tau where
tau-dependent) and is shared by joins, R×S joins, searches and repeated
queries.

This module keeps the historical free functions alive as *thin shims*,
each building a one-shot session per call and returning bit-identical
results:

- :func:`similarity_join` — self-join via any registered method;
- :func:`stream_join` — incremental join over a (possibly still
  producing) iterable, yielding pairs as they verify;
- (:func:`repro.rsjoin.similarity_join_rs` and
  :func:`repro.search.similarity_search` are the R×S and search shims.)

Use the shims for one-off calls and scripts; use sessions whenever the
same collection is queried more than once — the shims themselves say so
through a once-per-process :class:`DeprecationWarning`.  All parameter
validation (``tau``, ``workers``, ``micro_batch``) is centralized in
:mod:`repro.params`, so shims and sessions accept and reject exactly the
same inputs.

Failure semantics
-----------------
Every multi-process execution path (``workers > 1`` joins, R×S joins,
search preparation, streaming verification) runs under **supervised
dispatch** (:mod:`repro.resilience`).  The contract, in order of
escalation:

1. **Detect** — each dispatched task carries a per-task deadline
   (``RetryPolicy.task_timeout``) and the supervisor health-checks worker
   pids; a crashed, hung, raising, or corrupt-result worker (result
   envelopes are CRC-checked) fails only its own task.
2. **Retry** — failed tasks are re-dispatched on a respawned pool up to
   ``RetryPolicy.max_attempts`` times, with deterministic exponential
   backoff (seeded jitter, so runs are reproducible).
3. **Degrade** — tasks that exhaust the policy are re-executed serially
   in-process (``RetryPolicy.degradation``, on by default).  Degraded
   execution uses the same pure per-shard/per-chunk computation, so
   results stay **bit-identical to the serial engine** no matter how
   many workers die.  With ``degradation=False`` the error escapes as
   :class:`~repro.errors.WorkerFailureError` or
   :class:`~repro.errors.TaskTimeoutError`.

All swallowed failures are accounted for in ``JoinStats.extra``
(``retries``, ``worker_failures``, ``timeouts``,
``degraded_serial_tasks``, ``pool_respawns``) and surfaced by
``QueryPlan.explain()`` under ``"resilience"``.  Knobs live on
:class:`~repro.core.join.PartSJConfig` (``retry=RetryPolicy(...)``,
``fault_injector=FaultInjector(...)`` — deterministic fault injection
for tests, also settable via the ``REPRO_FAULT_SPEC`` environment
variable).  Streaming ingest adds its own channel: malformed input is
rejected (``on_error="fail"``) or quarantined with counts in
``StreamStats.quarantined_trees`` (``on_error="skip"``), and poison
candidate pairs are quarantined individually during degraded stream
verification.

Durability semantics
--------------------
Prepared sessions and streaming state survive process death
(:mod:`repro.persist`):

- ``TreeCollection.save(path)`` snapshots a session — trees (optional),
  interner, size order, every prepared tau — into a versioned container
  whose every section carries a CRC32, written atomically (temp file +
  fsync + rename): a crash mid-save leaves the previous snapshot intact,
  and a later reader sees either the old complete file or the new one,
  never a blend.  ``TreeCollection.load(path)`` verifies every checksum
  *and* recomputes the derived state it restores (interner ids, sorted
  order, twig keys) against the stored values; any mismatch raises a
  :class:`~repro.errors.PersistenceError` subclass.  A loaded session
  answers joins, searches and streams **bit-identically** to the one
  that was saved.
- ``TreeCollection.from_file(path)`` auto-discovers a
  ``<path>.repro-idx`` sidecar.  The implicit path is *never trusted
  into wrongness*: a corrupt, truncated, version-mismatched or stale
  (the dataset changed since the save — detected by content digest)
  sidecar produces a warning and a cold rebuild, so the worst a broken
  snapshot can cost is preparation time, never a wrong answer.
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
    ``stream.flush``, ``verify.stream_chunk``;
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
  ``_results`` / ``_pending_verification`` / ``_candidates`` /
  ``_index_entries``, ``repro_stream_quarantined_trees_total`` /
  ``_pairs_total``, ``repro_stream_wall_seconds{phase}``,
  ``repro_stream_counter_total{counter}``.
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

import warnings
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.baselines.common import JoinPair, JoinResult
from repro.core.join import PartSJConfig
from repro.params import check_micro_batch, check_tau, check_workers
from repro.session import (
    _BASELINE_IMPLS,
    JOIN_METHOD_NAMES,
    StreamPlan,
    TreeCollection,
)
from repro.tree.node import Tree

__all__ = ["similarity_join", "stream_join", "JOIN_METHODS"]


# -- shim deprecation machinery ----------------------------------------------

_SHIM_WARNINGS_EMITTED: set[str] = set()


def _warn_shim(name: str) -> None:
    """Emit the one-shot-shim deprecation notice, once per process.

    The library itself never calls a shim (everything internal goes
    through sessions); the test suite turns repro-internal
    DeprecationWarnings into errors to keep it that way.
    """
    if name in _SHIM_WARNINGS_EMITTED:
        return
    _SHIM_WARNINGS_EMITTED.add(name)
    warnings.warn(
        f"{name}() is a one-shot shim over repro.TreeCollection sessions; "
        "for repeated queries over the same trees, prepare a TreeCollection "
        "and reuse it (this notice is emitted once per process)",
        DeprecationWarning,
        stacklevel=3,
    )


def _reset_shim_warnings() -> None:
    """Re-arm the once-per-process shim warnings (test hook)."""
    _SHIM_WARNINGS_EMITTED.clear()


# -- the method registry (kept for compatibility) ----------------------------

def _partsj(trees: Sequence[Tree], tau: int, **options) -> JoinResult:
    config = options.pop("config", None)
    workers = options.pop("workers", 1)
    return (
        TreeCollection.from_trees(trees)
        .join(tau, method="partsj", workers=workers, config=config, **options)
        .run()
    )


JOIN_METHODS: dict[str, Callable[..., JoinResult]] = {
    "partsj": _partsj,  # the paper's PRT
    "prt": _partsj,  # figure-series alias
    "str": _BASELINE_IMPLS["str"],
    "set": _BASELINE_IMPLS["set"],
    "histogram": _BASELINE_IMPLS["histogram"],
    "nested_loop": _BASELINE_IMPLS["nested_loop"],  # ground truth (REL)
    "rel": _BASELINE_IMPLS["rel"],
}


def similarity_join(
    trees: Sequence[Tree],
    tau: int,
    method: str = "partsj",
    workers: int = 1,
    **options,
) -> JoinResult:
    """Similarity self-join: all pairs with ``TED <= tau`` (one-shot shim).

    Equivalent to ``TreeCollection.from_trees(trees).join(...).run()`` —
    bit-identical pairs and distances — but the preparation work is
    discarded afterwards; joining the same trees repeatedly (other taus,
    searches, R×S) is what sessions are for.

    Parameters
    ----------
    trees:
        The collection.  Result pairs are ``(i, j, distance)`` with
        ``i < j`` indexing into this sequence.
    tau:
        The TED threshold (an integer >= 0).
    method:
        ``"partsj"`` (default), ``"str"``, ``"set"``, ``"histogram"``, or
        ``"nested_loop"``.  All methods return the identical result set;
        they differ in filtering strategy and therefore speed.
    workers:
        Worker process count (default ``1`` = serial, in-process).  Every
        method verifies candidates through the parallel pool; PartSJ
        additionally shards candidate generation itself
        (:mod:`repro.parallel`).  Results are bit-identical at every
        setting.
    options:
        Method-specific options, e.g. ``config=PartSJConfig.paper()`` or
        ``semantics="paper"`` for PartSJ, ``use_bounds=False`` for the
        nested loop.

    >>> trees = [Tree.from_bracket(s) for s in ("{a{b}{c}}", "{a{b}}", "{x{y}}")]
    >>> sorted(p.key() for p in similarity_join(trees, 1))
    [(0, 1)]
    """
    _warn_shim("similarity_join")
    key = method.lower() if isinstance(method, str) else method
    if key in JOIN_METHODS and key not in JOIN_METHOD_NAMES:
        # A caller-registered method: dispatch through the registry with
        # the historical calling convention (workers rides in options).
        check_tau(tau)
        if check_workers(workers) != 1:
            options["workers"] = workers
        return JOIN_METHODS[key](trees, tau, **options)
    return (
        TreeCollection.from_trees(trees)
        .join(tau, method=method, workers=workers, **options)
        .run()
    )


def stream_join(
    trees: Iterable[Tree],
    tau: int,
    config: Optional[PartSJConfig] = None,
    workers: int = 1,
    micro_batch: int = 1,
) -> Iterator[JoinPair]:
    """Incremental similarity self-join over a stream of trees (shim).

    Consumes ``trees`` lazily — an exhausted list, a generator still
    reading from disk, a socket — and yields verified
    :class:`~repro.baselines.common.JoinPair` objects **as they are
    found**, where pair indices are arrival positions.  When the iterable
    is exhausted (and pending verification drained), the yielded pairs
    are exactly those of ``similarity_join(list(trees), tau)`` — and the
    same holds at every intermediate flush point, so a consumer can stop
    early with a correct join of the prefix it has seen.

    A thin shim over :class:`repro.session.StreamPlan` (laziness is why
    it takes an iterable rather than a prepared collection; an in-memory
    collection streams via ``TreeCollection.stream(tau)``).

    Parameters
    ----------
    trees:
        The arriving collection, in arrival order.
    tau:
        The TED threshold (an integer >= 0).
    config:
        PartSJ filter configuration (defaults to the provably-exact one).
    workers:
        ``1`` verifies inline (each yielded pair involves the most recent
        arrival); ``> 1`` verifies in a background pool, so pairs may be
        yielded a few arrivals after both their trees were ingested.
    micro_batch:
        Ingest this many trees between yield points (``>= 1``).  Larger
        batches amortize per-arrival overhead at the cost of result
        latency.

    >>> from repro.tree.node import Tree
    >>> trees = [Tree.from_bracket(s) for s in ("{a{b}{c}}", "{a{b}}", "{x{y}}")]
    >>> [(p.i, p.j) for p in stream_join(iter(trees), 1)]
    [(0, 1)]
    """
    _warn_shim("stream_join")
    # The plan constructor raises parameter errors at call time, not at
    # the first next(); iteration itself stays lazy.
    plan = StreamPlan(
        trees, check_tau(tau), config,
        check_workers(workers), check_micro_batch(micro_batch),
    )
    return plan.iter()


def join_methods() -> list[str]:
    """The registered method names (aliases included)."""
    return sorted(JOIN_METHODS)
