"""Deterministic fault injection and end-to-end result integrity.

The chaos-testing half of the resilience layer: a :class:`FaultInjector`
carries a set of :class:`FaultRule` entries keyed on supervised task ids
(``shard:2`` for a PartSJ shard — glob patterns allowed) and fires the
configured fault when a matching task executes.  The spec parser accepts
any task id; only ``shard:<n>`` tasks are ever dispatched.  It is a
frozen dataclass, so it travels to worker processes through pool
initializers and can sit on :class:`repro.core.join.PartSJConfig`
without breaking the session cache keys.

Fault kinds
-----------
- ``crash``  — the worker process exits hard (``os._exit``), simulating
  an OOM kill or segfault; the supervisor sees a dead pid / lost result.
- ``hang``   — the worker sleeps (default far past any timeout),
  simulating a wedged task; detected by the per-task timeout.
- ``corrupt`` — the task runs normally but its sealed result envelope is
  corrupted in transit; detected by the CRC integrity check.
- ``poison`` — raises :class:`InjectedFaultError` inside the task, which
  the supervisor sees as a remote exception.

Rules select an attempt with ``@n`` (1-based; omitted = every attempt),
so ``shard:*@1=crash`` crashes every shard's first try — the retry then
succeeds — while ``shard:0=crash`` defeats every retry and forces the
serial degradation path.

Spec strings (``REPRO_FAULT_SPEC`` or :meth:`FaultInjector.from_spec`)
are comma-separated ``task[@attempt]=kind[:arg]`` entries, e.g.::

    REPRO_FAULT_SPEC="shard:0@1=crash,shard:*@2=hang:30"

Result envelopes
----------------
Supervised task functions return ``seal(payload)`` — the payload plus a
CRC of its pickled form — and the supervisor re-derives the CRC on
receipt (:func:`unseal`).  A mismatch means the bytes that crossed the
process boundary are not the bytes the worker produced; the task is
treated as failed and retried.  The ``corrupt`` fault flips the payload
*after* sealing, exercising exactly this path.
"""

from __future__ import annotations

import fnmatch
import io
import os
import pickle
import time
import zlib
from dataclasses import dataclass
from typing import Optional

from repro.errors import InvalidParameterError, ReproError, WorkerFailureError

__all__ = [
    "FAULT_SPEC_ENV",
    "FaultInjector",
    "FaultRule",
    "InjectedFaultError",
    "seal",
    "unseal",
]

FAULT_SPEC_ENV = "REPRO_FAULT_SPEC"

_KINDS = ("crash", "hang", "corrupt", "poison")

# Default hang duration: far beyond any sane task timeout, but finite so
# an unsupervised (timeout-less) test run eventually unwedges itself.
_DEFAULT_HANG = 3600.0

# Marker replacing a corrupted envelope payload.  Any value whose pickled
# CRC cannot match the sealed one would do; a distinctive string makes
# failures self-describing in logs.
_CORRUPTED = "\x00repro-corrupted-payload"


class InjectedFaultError(ReproError):
    """Raised by ``poison`` fault rules (chaos testing only)."""


@dataclass(frozen=True)
class FaultRule:
    """One injected fault: which task, which attempt, what happens."""

    task: str
    kind: str
    attempt: Optional[int] = None  # None = every attempt (1-based otherwise)
    arg: float = 0.0  # hang duration in seconds (0 = default)

    def matches(self, task_id: str, attempt: int) -> bool:
        if self.attempt is not None and self.attempt != attempt:
            return False
        return fnmatch.fnmatchcase(task_id, self.task)


@dataclass(frozen=True)
class FaultInjector:
    """A deterministic set of fault rules applied by task id and attempt."""

    rules: tuple[FaultRule, ...] = ()

    @classmethod
    def from_spec(cls, spec: str) -> "FaultInjector":
        """Parse ``task[@attempt]=kind[:arg]`` entries (comma-separated)."""
        rules = []
        for entry in spec.split(","):
            entry = entry.strip()
            if not entry:
                continue
            try:
                target, _, effect = entry.partition("=")
                if not effect:
                    raise InvalidParameterError("missing '=kind'")
                task, at, attempt_text = target.partition("@")
                attempt = int(attempt_text) if at else None
                if attempt is not None and attempt < 1:
                    raise InvalidParameterError("attempt numbers are 1-based")
                kind, colon, arg_text = effect.partition(":")
                kind = kind.strip()
                if kind not in _KINDS:
                    raise InvalidParameterError(
                        f"unknown fault kind {kind!r}; use one of {_KINDS}"
                    )
                arg = float(arg_text) if colon else 0.0
            except ValueError as exc:
                raise InvalidParameterError(
                    f"bad fault spec entry {entry!r}: {exc}"
                ) from None
            rules.append(FaultRule(task.strip(), kind, attempt, arg))
        return cls(rules=tuple(rules))

    @classmethod
    def from_env(cls, environ=None) -> Optional["FaultInjector"]:
        """The ``REPRO_FAULT_SPEC`` hook; ``None`` when unset or empty."""
        spec = (environ if environ is not None else os.environ).get(
            FAULT_SPEC_ENV, ""
        )
        return cls.from_spec(spec) if spec.strip() else None

    def rule_for(self, task_id: str, attempt: int) -> Optional[FaultRule]:
        for rule in self.rules:
            if rule.matches(task_id, attempt):
                return rule
        return None

    def fire(self, task_id: str, attempt: int) -> None:
        """Apply any side-effecting fault for this execution (in-worker).

        ``crash`` never returns; ``hang`` sleeps; ``poison`` raises.
        ``corrupt`` is a no-op here — it acts on the sealed envelope via
        :meth:`corrupts` after the task has produced its real result.
        """
        rule = self.rule_for(task_id, attempt)
        if rule is None:
            return
        if rule.kind == "crash":
            os._exit(13)
        elif rule.kind == "hang":
            time.sleep(rule.arg or _DEFAULT_HANG)
        elif rule.kind == "poison":
            raise InjectedFaultError(
                f"injected poison fault for task {task_id} (attempt {attempt})"
            )

    def corrupts(self, task_id: str, attempt: int) -> bool:
        rule = self.rule_for(task_id, attempt)
        return rule is not None and rule.kind == "corrupt"


# ---------------------------------------------------------------------------
# Result envelopes
# ---------------------------------------------------------------------------

def _crc(payload) -> int:
    # Identity-blind pickling (no memo): the worker computes this CRC on
    # the original payload, the supervisor on the unpickled copy, and
    # object sharing is not preserved across that round-trip (e.g. an
    # attrs-dict key that is the same interned string as a dataclass
    # field name in the worker).  Disabling memoization makes the bytes
    # a pure function of the payload's *values*; payloads are acyclic.
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=4)
    pickler.fast = True
    pickler.dump(payload)
    return zlib.crc32(buffer.getvalue())


def seal(payload) -> tuple:
    """Wrap a task result with an integrity CRC (computed worker-side)."""
    return (payload, _crc(payload))


def corrupt_envelope(envelope: tuple) -> tuple:
    """Simulate in-transit corruption: payload changes, CRC does not."""
    return (_CORRUPTED, envelope[1])


def unseal(envelope: tuple, task_id: str):
    """Verify and unwrap a sealed result; corrupt envelopes raise.

    Raises :class:`~repro.errors.WorkerFailureError` when the payload's
    re-derived CRC does not match the sealed one — the supervisor treats
    it like any other worker failure (retry, then degrade).
    """
    try:
        payload, crc = envelope
        ok = _crc(payload) == crc
    except Exception:
        ok = False
        payload = None
    if not ok:
        raise WorkerFailureError(
            f"task {task_id} returned a corrupt result envelope"
        )
    return payload
