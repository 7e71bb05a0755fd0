"""The sharded multiprocess join executor (PartSJ across worker processes).

Execution model — one supervised stage over one worker pool:

- The pool initializer hands every worker the ``Tree`` list itself: a
  fork pool's children inherit it without serialization, a spawn pool
  pickles it as bracket text (``Tree.__reduce__``).
- The size-sorted loop is cut into cost-balanced shards
  (:func:`repro.parallel.sharding.plan_shards`).  Each worker runs the
  serial loop of Algorithm 1 — probe, insert, verify — in a private
  :class:`~repro.core.join.ShardDriver` over its handoff band
  (insert-only) and owned trees, and returns only the shard's result
  triples and counters.  The handoff-band invariant (see
  :mod:`repro.core.join`) guarantees every candidate pair is found and
  verified by exactly one shard, as the serial engine would.

Results are **bit-identical** to the serial engine at every ``workers``
setting: the same pair set with the same exact distances, sorted in the
same canonical order.  Statistics merge deterministically — with the
default deterministic partitioning the owned-tree and verifier counters
sum to the exact serial values (``partition_strategy="random"`` keeps the
results identical but may shift candidate counts; see
:mod:`repro.core.join`), timing fields are summed worker CPU seconds
(``wall_time`` of the harness captures the actual speedup), and the
per-shard breakdown is surfaced in ``JoinStats.extra["shards"]``.

The stage runs under **supervised dispatch**
(:class:`repro.resilience.PoolSupervisor`): a crashed, hung, raising, or
corrupt-result worker fails only its shard, which is retried on a
respawned pool under the config's :class:`~repro.resilience.RetryPolicy`
and finally re-executed serially in-process over the parent's trees
(graceful degradation) — the bit-identical guarantee holds even with
workers killed mid-flight.  The failure accounting lands in
``JoinStats.extra`` (``retries``, ``worker_failures``, ``timeouts``,
``degraded_serial_tasks``, ``fault_events``).

The executor falls back to the serial engine when there is nothing to
parallelize (``workers == 1``, fewer than two trees, or a plan with a
single shard) — pool startup is pure overhead there.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import replace
from typing import Optional, Sequence

from repro.baselines.common import (
    JoinPair,
    JoinResult,
    JoinStats,
    SizeSortedCollection,
    check_join_inputs,
)
from repro.core.join import PartSJConfig, partsj_join
from repro.obs.trace import NULL_TRACER
from repro.parallel.sharding import ShardResult, plan_shards
from repro.parallel.worker import execute_shard, init_worker, run_shard_task
from repro.resilience import FaultInjector, PoolSupervisor, RetryPolicy
from repro.tree.node import Tree

__all__ = ["merge_counters", "parallel_partsj_join", "pool_context"]

# Explicit start method rather than the platform default: "fork" where
# the platform offers it, "spawn" otherwise (macOS defaults and Windows
# have no safe fork).  Our initargs — the Tree list and frozen config
# dataclasses — are spawn-safe too (a Tree pickles as bracket text), so
# the choice is a performance one, not a correctness one: fork children
# inherit the trees without serializing or re-parsing them.
_START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


def pool_context():
    """The multiprocessing context every repro pool is created from."""
    return multiprocessing.get_context(_START_METHOD)

def merge_counters(shard_results: Sequence[ShardResult]) -> dict:
    """Sum the shards' integer-valued counters, generically over keys.

    Every key of every shard's counter dict whose value is an ``int``
    (``bool`` excluded) is summed — a counter introduced by a worker
    build merges without an executor edit, and a key only some shards
    report still sums correctly.  Non-integer values are skipped (they
    have no meaningful cross-shard sum).
    """
    merged: dict[str, int] = {}
    for result in shard_results:
        for key, value in result.counters.items():
            if isinstance(value, bool) or not isinstance(value, int):
                continue
            merged[key] = merged.get(key, 0) + value
    return merged


def _create_pool(
    trees: Sequence[Tree],
    tau: int,
    workers: int,
    config: Optional[PartSJConfig],
    verifier_options: Optional[dict],
    injector: Optional[FaultInjector],
):
    """A pool whose workers hold the collection (see worker.py)."""
    return pool_context().Pool(
        processes=workers,
        initializer=init_worker,
        initargs=(trees, tau, config, verifier_options, injector),
    )


def parallel_partsj_join(
    trees: Sequence[Tree],
    tau: int,
    config: Optional[PartSJConfig] = None,
    *,
    prepared=None,
    tracer=None,
) -> JoinResult:
    """PartSJ over ``config.workers`` processes; serial-identical results.

    ``prepared`` (a :class:`repro.core.join.PreparedJoinState`) lets a
    session reuse its size-sorted view for shard planning and keeps the
    serial fallbacks warm; each shard still builds its own records and
    partitions in its worker.

    ``tracer`` (a :class:`repro.obs.Tracer`; ``None`` disables) records a
    ``parallel.plan`` span and a ``parallel.candidates`` span over the
    shard stage, with each shard's relayed worker spans grafted under
    it.  Tracing never changes pairs, distances or any ``JoinStats``
    field.
    """
    check_join_inputs(trees, tau)
    cfg = (config or PartSJConfig()).resolved()
    tracer = tracer if tracer is not None else NULL_TRACER
    workers = cfg.workers
    serial_cfg = replace(cfg, workers=1)
    if workers <= 1 or len(trees) < 2:
        return partsj_join(trees, tau, serial_cfg, prepared=prepared,
                           tracer=tracer)

    plan_start = time.perf_counter()
    collection = (
        prepared.collection if prepared is not None
        else SizeSortedCollection(trees)
    )
    plans = plan_shards(collection, tau, workers)
    plan_time = time.perf_counter() - plan_start
    if len(plans) <= 1:
        return partsj_join(trees, tau, serial_cfg, prepared=prepared,
                           tracer=tracer)
    tracer.record("parallel.plan", plan_time, shards=len(plans))

    policy = (cfg.retry or RetryPolicy()).validated()
    injector = (
        cfg.fault_injector if cfg.fault_injector is not None
        else FaultInjector.from_env()
    )
    supervisor = PoolSupervisor(
        lambda: _create_pool(trees, tau, workers, serial_cfg, None, injector),
        policy,
    )
    with supervisor:
        stage_start = time.perf_counter()
        with tracer.span("parallel.candidates", workers=workers,
                         shards=len(plans)) as stage_span:
            shard_results: list[ShardResult] = supervisor.run(
                run_shard_task,
                [(f"shard:{plan.shard_id}", plan) for plan in plans],
                # Degradation fallback: the same pure shard computation, in
                # this process over the real trees (no fault injection).
                lambda plan: execute_shard(trees, tau, serial_cfg, plan),
            )
            # Each pair was verified by exactly one shard (the handoff-band
            # invariant), so the union needs sorting, not deduplication.
            triples = sorted(t for r in shard_results for t in r.pairs)
            candidates = sum(r.candidates for r in shard_results)
            stage_span.set("candidates", candidates)
            stage_span.set("results", len(triples))
            if tracer.enabled:
                for result in shard_results:
                    tracer.graft(result.spans)
        stage_wall = time.perf_counter() - stage_start

    counters = merge_counters(shard_results)

    stats = JoinStats(method="PRT", tau=tau, tree_count=len(trees))
    stats.candidates = candidates
    stats.probe_time = sum(r.probe_time for r in shard_results)
    stats.index_time = sum(r.index_time + r.band_time for r in shard_results)
    stats.candidate_time = stats.probe_time + stats.index_time
    stats.ted_calls = counters.pop("ted_calls")
    stats.verify_time = sum(r.verify_time for r in shard_results)
    stats.results = len(triples)
    stats.pairs_considered = counters["probe_hits"] + counters["small_pool_pairs"]
    stats.extra = counters
    # Serial-equivalent index totals: owned subgraphs only (one index entry
    # per subgraph); the per-shard totals below include the handoff-band
    # duplicates, i.e. the sharding overhead.
    stats.extra["total_indexed_subgraphs"] = counters["subgraphs_built"]
    stats.extra["total_index_entries"] = counters["subgraphs_built"]
    stats.extra["shard_index_entries"] = sum(r.index_entries for r in shard_results)
    stats.extra["workers"] = workers
    # Resilience accounting: every supervised failure, retry and serial
    # degradation of the shard stage (see repro.resilience.supervisor).
    stats.extra.update(supervisor.stats)
    stats.extra["shards"] = [r.timing_summary() for r in shard_results]
    stats.extra["band_time"] = round(sum(r.band_time for r in shard_results), 6)
    stats.extra["plan_time"] = round(plan_time, 6)
    stats.extra["candidate_wall_time"] = round(stage_wall, 6)
    return JoinResult(pairs=[JoinPair(*t) for t in triples], stats=stats)
