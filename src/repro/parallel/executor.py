"""The sharded multiprocess join executor (PartSJ across worker processes).

Execution model — two stages over one worker pool:

1. **Candidate generation**: the size-sorted loop is cut into cost-
   balanced shards (:func:`repro.parallel.sharding.plan_shards`); each
   worker runs a private :class:`~repro.core.join.ShardDriver` over its
   handoff band (insert-only) and owned trees, returning the shard's
   candidate pairs and counters.  The handoff-band invariant (see
   :mod:`repro.core.join`) guarantees the union of shard candidate sets
   equals the serial engine's, with no duplicates across shards.
2. **Verification**: the deduplicated, canonically ordered pairs are
   chunked through the same pool's persistent per-process ``Verifier``
   (:func:`repro.parallel.verify_pool.parallel_verify`).

Results are **bit-identical** to the serial engine at every ``workers``
setting: the same pair set with the same exact distances, sorted in the
same canonical order.  Statistics merge deterministically — with the
default deterministic partitioning the owned-tree counters sum to the
exact serial values (``partition_strategy="random"`` keeps the results
identical but may shift candidate counts; see :mod:`repro.core.join`),
timing fields are summed worker CPU seconds (``wall_time`` of the
harness captures the actual speedup), and the per-shard breakdown is
surfaced in ``JoinStats.extra["shards"]``.

Both stages run under **supervised dispatch**
(:class:`repro.resilience.PoolSupervisor`): a crashed, hung, raising, or
corrupt-result worker fails only its task, which is retried on a
respawned pool under the config's :class:`~repro.resilience.RetryPolicy`
and finally re-executed serially in-process (graceful degradation) — the
bit-identical guarantee holds even with workers killed mid-flight.  The
failure accounting lands in ``JoinStats.extra`` (``retries``,
``worker_failures``, ``timeouts``, ``degraded_serial_tasks``,
``fault_events``).

The executor falls back to the serial engine when there is nothing to
parallelize (``workers == 1``, fewer than two trees, or a plan with a
single shard) — pool startup is pure overhead there.
"""

from __future__ import annotations

import multiprocessing
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Optional, Sequence

from repro.baselines.common import (
    JoinResult,
    JoinStats,
    SizeSortedCollection,
    check_join_inputs,
)
from repro.core.join import PartSJConfig, partsj_join
from repro.obs.trace import NULL_TRACER
from repro.parallel.sharding import ShardResult, plan_shards
from repro.parallel.verify_pool import parallel_verify
from repro.parallel.worker import execute_shard, init_worker, run_shard_task
from repro.resilience import (
    FaultInjector,
    PoolSupervisor,
    RetryPolicy,
    shutdown_pool,
)
from repro.tree.node import Tree

__all__ = ["merge_counters", "open_pool", "parallel_partsj_join",
           "pool_context"]

# Explicit start method rather than the platform default: "fork" where
# the platform offers it (cheap startup; our initargs — bracket strings
# and frozen config dataclasses — are equally spawn-safe, so the choice
# is a performance one, not a correctness one), "spawn" otherwise
# (macOS defaults and Windows have no safe fork).
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
    brackets: Sequence[str],
    tau: int,
    workers: int,
    config: Optional[PartSJConfig],
    verifier_options: Optional[dict],
    injector: Optional[FaultInjector],
):
    return pool_context().Pool(
        processes=workers,
        initializer=init_worker,
        initargs=(brackets, tau, config, verifier_options, injector),
    )


@contextmanager
def open_pool(
    trees: Sequence[Tree],
    tau: int,
    workers: int,
    config: Optional[PartSJConfig] = None,
    verifier_options: Optional[dict] = None,
    injector: Optional[FaultInjector] = None,
):
    """A worker pool whose processes hold the collection (see worker.py).

    The collection crosses the process boundary once, as bracket strings,
    via the pool initializer; subsequent task payloads are index lists
    only.  Closes and joins the pool on exit; on error it is terminated
    and the join is **bounded** (:func:`repro.resilience.shutdown_pool`),
    so a wedged worker cannot hang cleanup forever.
    """
    brackets = [tree.to_bracket() for tree in trees]
    pool = _create_pool(brackets, tau, workers, config, verifier_options, injector)
    try:
        yield pool
    except BaseException:
        shutdown_pool(pool)
        raise
    else:
        pool.close()
        pool.join()


def _merge_candidates(
    shard_results: Sequence[ShardResult],
) -> list[tuple[int, int]]:
    """Union of shard candidate pairs, canonical orientation, deduplicated.

    The handoff-band invariant makes cross-shard duplicates impossible;
    the dict pass is a cheap structural guarantee that verification work
    never depends on it.
    """
    merged: dict[tuple[int, int], None] = {}
    for result in shard_results:
        for i, j in result.candidates:
            merged[(i, j) if i < j else (j, i)] = None
    return sorted(merged)


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
    serial fallbacks warm; the per-shard caches and partitions stay
    process-local — they cannot cross the pool boundary.

    ``tracer`` (a :class:`repro.obs.Tracer`; ``None`` disables) records a
    ``parallel.candidates`` span over the shard stage with each shard's
    relayed worker spans grafted under it, and hands itself to
    :func:`~repro.parallel.verify_pool.parallel_verify` for the
    verification stage.  Tracing never changes pairs, distances or any
    ``JoinStats`` field.
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
    brackets = [tree.to_bracket() for tree in trees]
    stats = JoinStats(method="PRT", tau=tau, tree_count=len(trees))
    supervisor = PoolSupervisor(
        lambda: _create_pool(brackets, tau, workers, serial_cfg, None, injector),
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
            candidate_pairs = _merge_candidates(shard_results)
            stage_span.set("candidates", len(candidate_pairs))
            if tracer.enabled:
                for result in shard_results:
                    tracer.graft(result.spans)
        candidate_wall = time.perf_counter() - stage_start
        pairs, verify_stats = parallel_verify(
            trees, tau, candidate_pairs, workers,
            supervisor=supervisor, tracer=tracer,
        )

    counters = merge_counters(shard_results)
    stats.candidates = len(candidate_pairs)
    stats.probe_time = sum(r.probe_time for r in shard_results)
    stats.index_time = sum(r.index_time + r.band_time for r in shard_results)
    stats.candidate_time = stats.probe_time + stats.index_time
    stats.ted_calls = verify_stats["ted_calls"]
    stats.verify_time = verify_stats["verify_time"]
    stats.results = len(pairs)
    stats.pairs_considered = counters["probe_hits"] + counters["small_pool_pairs"]
    stats.extra = counters
    # Serial-equivalent index totals: owned subgraphs only (one index entry
    # per subgraph); the per-shard totals below include the handoff-band
    # duplicates, i.e. the sharding overhead.
    stats.extra["total_indexed_subgraphs"] = counters["subgraphs_built"]
    stats.extra["total_index_entries"] = counters["subgraphs_built"]
    stats.extra["shard_index_entries"] = sum(r.index_entries for r in shard_results)
    for key in ("lb_filtered", "ub_accepted", "ted_early_exits"):
        stats.extra[key] = verify_stats[key]
    stats.extra["workers"] = workers
    # Resilience accounting: every supervised failure, retry and serial
    # degradation across both stages (see repro.resilience.supervisor).
    stats.extra.update(supervisor.stats)
    stats.extra["shards"] = [r.timing_summary() for r in shard_results]
    stats.extra["band_time"] = round(sum(r.band_time for r in shard_results), 6)
    stats.extra["plan_time"] = round(plan_time, 6)
    stats.extra["candidate_wall_time"] = round(candidate_wall, 6)
    stats.extra["verify_wall_time"] = round(verify_stats["verify_wall_time"], 6)
    stats.extra["verify_chunks"] = verify_stats["verify_chunks"]
    # parallel_verify already returns canonical (i, j)-sorted pairs.
    return JoinResult(pairs=pairs, stats=stats)
