"""``repro.parallel``: the sharded multiprocess PartSJ executor.

Scales PartSJ's size-sorted join loop across worker processes while
keeping results bit-identical to the serial engine:

- :mod:`~repro.parallel.sharding` — cost-balanced shard planning over the
  collection's size histogram, with the tau-wide handoff band that makes
  shards independent (``ShardPlan`` / ``ShardResult`` protocol);
- :mod:`~repro.parallel.executor` — pool lifecycle and the one
  supervised stage in which every shard probes, inserts and verifies its
  own trees, plus the deterministic stats merge;
- :mod:`~repro.parallel.worker` — per-process state (the inherited
  ``Tree`` list) and the shard task.

It serves PartSJ's batch joins only.  The baselines and streams verify
each candidate inline, in the calling process, at any ``workers``.
Entry points: ``TreeCollection.join(..., workers=N)`` (and
``join_with``), ``PartSJConfig(workers=N)``, or the CLI's
``join --workers`` and ``experiment --workers``.
"""

from repro.parallel.executor import parallel_partsj_join
from repro.parallel.sharding import (
    ShardPlan,
    ShardResult,
    estimated_probe_cost,
    plan_shards,
)

__all__ = [
    "ShardPlan",
    "ShardResult",
    "estimated_probe_cost",
    "plan_shards",
    "parallel_partsj_join",
]
