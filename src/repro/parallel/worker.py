"""Per-process state and task functions for the parallel join workers.

Worker processes receive the collection **once**, through the pool
initializer, as the ``Tree`` list itself: a fork pool's children inherit
it without any serialization, and a spawn pool pickles it as bracket text
(``Tree.__reduce__``).  Task payloads then stay small: a
:class:`~.sharding.ShardPlan` going in and a :class:`~.sharding.ShardResult`
coming back.

The one task is PartSJ's shard: it runs the serial loop of Algorithm 1
over its handoff band and owned trees — probe, insert, verify — with one
record store shared by its driver and its verifier, and returns only
result triples and counters.  The baselines never come here: they verify
each candidate inline, in the calling process.
"""

from __future__ import annotations

import itertools
import os
import time
from collections.abc import Sequence
from typing import Optional

from repro.baselines.common import Verifier
from repro.core.join import PartSJConfig, ShardDriver
from repro.errors import WorkerStateError
from repro.obs.trace import span_dict
from repro.parallel.sharding import ShardPlan, ShardResult
from repro.resilience.faults import FaultInjector, corrupt_envelope, seal
from repro.tree.node import Tree

__all__ = [
    "execute_shard",
    "init_worker",
    "run_shard_task",
]


# Worker-side span ids: unique per (process, counter).  Span capture is
# unconditional — a handful of dicts per shard, relayed inside the sealed
# result envelope — and the coordinator drops them when tracing is off,
# so no trace flag needs to cross the pool boundary.
_SPAN_SEQ = itertools.count(1)


def _span_id(prefix: str) -> str:
    return f"{prefix}-{os.getpid():x}-{next(_SPAN_SEQ)}"


class _WorkerState:
    """Everything a worker process holds between tasks."""

    def __init__(
        self,
        trees: Sequence[Tree],
        tau: int,
        config: PartSJConfig,
        injector: Optional[FaultInjector] = None,
    ):
        self.trees = trees
        self.tau = tau
        self.config = config
        self.injector = injector


_STATE: Optional[_WorkerState] = None


def init_worker(
    trees: Sequence[Tree],
    tau: int,
    config: PartSJConfig,
    injector: Optional[FaultInjector] = None,
) -> None:
    """Pool initializer: install the collection in this worker process."""
    global _STATE
    _STATE = _WorkerState(trees, tau, config, injector)


def _require_state() -> _WorkerState:
    if _STATE is None:  # pragma: no cover - misuse guard
        raise WorkerStateError(
            "worker state not initialized; the pool must be created with "
            "initializer=init_worker"
        )
    return _STATE


def execute_shard(
    trees: Sequence[Tree],
    tau: int,
    config: PartSJConfig,
    plan: ShardPlan,
) -> ShardResult:
    """Probe, insert and verify one shard, against any tree sequence.

    Band trees are insert-only and strictly precede the owned trees in
    the sorted order, so one linear pass over ``band`` then ``owned``
    reproduces the serial loop's state for every owned probe (the
    handoff-band invariant of :mod:`repro.core.join`); each owned tree's
    candidates are verified as it probes, exactly as in the serial join.
    The result is a pure function of ``(trees, tau, config, plan)``, so
    the same shard re-executed anywhere — a retried worker, or the parent
    process during graceful degradation — yields the identical result.
    """
    started = time.perf_counter()
    driver = ShardDriver(trees, tau, config)
    verifier = Verifier(trees, tau, caches=driver.records)
    for i in plan.band:
        driver.insert_only(i)
    pairs, candidates = driver.join(plan.owned, verifier)
    wall_time = time.perf_counter() - started
    counters = driver.counters.as_dict()
    counters.update(verifier.counters())
    # Observability relay: one shard span plus its phase attribution,
    # shipped back through the sealed envelope (see ShardResult.spans).
    shard_span = _span_id(f"shard{plan.shard_id}")
    spans = [
        span_dict(
            f"shard:{plan.shard_id}", started, wall_time, shard_span,
            owned=len(plan.owned), band=len(plan.band),
            candidates=candidates, results=len(pairs),
        ),
        span_dict("partsj.band", started, driver.band_time,
                  _span_id("band"), parent_id=shard_span,
                  band_trees=driver.counters.band_trees),
        span_dict("partsj.probe", started, driver.probe_time,
                  _span_id("probe"), parent_id=shard_span,
                  probe_hits=driver.counters.probe_hits),
        span_dict("partsj.index", started, driver.index_time,
                  _span_id("index"), parent_id=shard_span,
                  subgraphs=driver.counters.subgraphs_built),
        span_dict("partsj.verify", started, verifier.stats_time,
                  _span_id("verify"), parent_id=shard_span,
                  ted_calls=verifier.stats_ted_calls),
    ]
    return ShardResult(
        shard_id=plan.shard_id,
        pairs=pairs,
        candidates=candidates,
        counters=counters,
        probe_time=driver.probe_time,
        index_time=driver.index_time,
        band_time=driver.band_time,
        verify_time=verifier.stats_time,
        wall_time=wall_time,
        index_entries=driver.index.total_entries,
        owned_count=len(plan.owned),
        band_count=len(plan.band),
        lo=plan.lo,
        hi=plan.hi,
        spans=spans,
    )


def run_shard_task(task: tuple) -> tuple:
    """Supervised shard task: ``(task_id, attempt, plan)`` → sealed result.

    Entry point of :class:`repro.resilience.PoolSupervisor` dispatch: runs
    :func:`execute_shard` over this worker's installed collection.  Any
    fault injected for this ``(task, attempt)`` fires first; the result
    is sealed with an integrity CRC so the supervisor can detect
    corruption in transit.
    """
    task_id, attempt, plan = task
    state = _require_state()
    injector = state.injector
    if injector is not None:
        injector.fire(task_id, attempt)
    envelope = seal(execute_shard(state.trees, state.tau, state.config, plan))
    if injector is not None and injector.corrupts(task_id, attempt):
        envelope = corrupt_envelope(envelope)
    return envelope
