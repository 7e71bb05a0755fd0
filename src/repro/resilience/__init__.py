"""Fault tolerance for the parallel execution tier.

The package bundles three pieces, threaded through :mod:`repro.parallel`
(a stream verifies inline, in its own process, and uses none of them):

- :class:`RetryPolicy` — attempts, per-task timeouts, exponential
  backoff with deterministic seeded jitter, and the graceful-degradation
  switch (:mod:`repro.resilience.policy`);
- :class:`FaultInjector` — deterministic crash / hang / corrupt / poison
  faults keyed on task ids, settable programmatically (on
  :class:`repro.core.join.PartSJConfig`) or through the
  ``REPRO_FAULT_SPEC`` environment hook
  (:mod:`repro.resilience.faults`);
- :class:`PoolSupervisor` — supervised dispatch over a respawnable
  worker pool: detect, retry, degrade, account
  (:mod:`repro.resilience.supervisor`).

The invariant all of it preserves: ``TreeCollection.join(tau,
workers=N)`` returns **bit-identical results** under any injected (or
real) worker failure, as long as graceful degradation is enabled — the
failure surface moves into statistics, not into results.
"""

from repro.resilience.faults import (
    FAULT_SPEC_ENV,
    FaultInjector,
    FaultRule,
    InjectedFaultError,
    seal,
    unseal,
)
from repro.resilience.policy import RetryPolicy
from repro.resilience.supervisor import PoolSupervisor, shutdown_pool

__all__ = [
    "FAULT_SPEC_ENV",
    "FaultInjector",
    "FaultRule",
    "InjectedFaultError",
    "PoolSupervisor",
    "RetryPolicy",
    "seal",
    "shutdown_pool",
    "unseal",
]
