"""Retry policy: attempts, timeouts, and deterministic backoff.

:class:`RetryPolicy` is the single knob bundle the supervised execution
tier (:mod:`repro.parallel`) consults when a task fails — a worker
process dies, hangs past its timeout, raises, or returns a corrupt
result.  It is a frozen (hashable, picklable) dataclass so it
can ride on :class:`repro.core.join.PartSJConfig` and participate in the
session layer's prepare/result cache keys.

Backoff is exponential with **deterministic seeded jitter**: the jitter
fraction for ``(task_id, attempt)`` is derived from a CRC of the policy
seed and the task identity, never from wall-clock entropy, so two runs of
the same workload under the same injected faults sleep the same delays —
chaos tests stay reproducible.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional

from repro.errors import InvalidParameterError

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How supervised parallel execution reacts to task failures.

    Attributes
    ----------
    max_attempts:
        Total tries per task (first run included).  ``1`` disables
        retries: a failed task degrades (or escapes) immediately.
    task_timeout:
        Per-task wall-clock budget in seconds; ``None`` (the default)
        waits forever.  Crashed workers are still detected without a
        timeout (the supervisor health-checks worker pids), but a *hung*
        worker can only be detected by a finite timeout.
    backoff_base:
        Delay before the first retry, in seconds.
    backoff_factor:
        Multiplier applied per further attempt (exponential backoff).
    jitter:
        Maximum extra delay as a fraction of the backoff delay; the
        realized fraction is drawn deterministically from ``seed`` and
        the failing task's identity (see :meth:`delay`).
    seed:
        Seed of the deterministic jitter stream.
    degradation:
        When ``True`` (default) a task whose attempts are exhausted is
        re-executed serially in-process — the join still completes with
        bit-identical results.  When ``False`` the failure escapes as
        :class:`~repro.errors.WorkerFailureError` /
        :class:`~repro.errors.TaskTimeoutError`.
    """

    max_attempts: int = 3
    task_timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    degradation: bool = True

    def validated(self) -> "RetryPolicy":
        """Range-check every field; returns ``self`` for call chaining."""
        if not isinstance(self.max_attempts, int) or self.max_attempts < 1:
            raise InvalidParameterError(
                f"max_attempts must be an integer >= 1, got {self.max_attempts!r}"
            )
        if self.task_timeout is not None and not self.task_timeout > 0:
            raise InvalidParameterError(
                f"task_timeout must be > 0 or None, got {self.task_timeout!r}"
            )
        if self.backoff_base < 0:
            raise InvalidParameterError(
                f"backoff_base must be >= 0, got {self.backoff_base!r}"
            )
        if self.backoff_factor < 1:
            raise InvalidParameterError(
                f"backoff_factor must be >= 1, got {self.backoff_factor!r}"
            )
        if self.jitter < 0:
            raise InvalidParameterError(
                f"jitter must be >= 0, got {self.jitter!r}"
            )
        return self

    def delay(self, task_id: str, attempt: int) -> float:
        """Backoff before retrying ``task_id`` after failed ``attempt``.

        ``attempt`` is 1-based (the first execution is attempt 1).  The
        jitter fraction is ``crc32(seed | task | attempt) / 2**32`` —
        stable across processes and runs, unlike ``hash()`` (randomized
        per process) or ``random`` (shared global state).
        """
        base = self.backoff_base * self.backoff_factor ** max(0, attempt - 1)
        token = f"{self.seed}|{task_id}|{attempt}".encode()
        fraction = zlib.crc32(token) / 2**32
        return base * (1.0 + self.jitter * fraction)

    def describe(self) -> dict:
        """JSON-ready summary for ``QueryPlan.explain()`` payloads."""
        return {
            "max_attempts": self.max_attempts,
            "task_timeout": self.task_timeout,
            "backoff_base": self.backoff_base,
            "backoff_factor": self.backoff_factor,
            "jitter": self.jitter,
            "degradation": self.degradation,
        }
