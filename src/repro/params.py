"""Centralized parameter validation shared by every public entry point.

Every way into the library — :class:`repro.session.TreeCollection` query
builders, the legacy one-shot shims (:func:`repro.api.similarity_join`,
:func:`repro.rsjoin.similarity_join_rs`, :func:`repro.search.similarity_search`,
:func:`repro.api.stream_join`), the streaming engine, the CLI — validates
the common knobs here, so the accepted domains and the error messages are
identical everywhere:

- ``tau``: the TED threshold, an integer ``>= 0``;
- ``workers``: the worker process count, an integer ``>= 1``.

The check functions return the validated value so call sites can validate
and bind in one expression.  All failures raise
:class:`~repro.errors.InvalidParameterError` (never a bare ``ValueError``),
keeping CLI exit codes and library ``except`` clauses uniform.
"""

from __future__ import annotations

from repro.errors import InvalidParameterError

__all__ = ["check_tau", "check_workers"]


def check_tau(tau: int) -> int:
    """Validate a TED threshold: an integer ``>= 0``."""
    if isinstance(tau, bool) or not isinstance(tau, int):
        raise InvalidParameterError(
            f"tau must be an integer >= 0, got {tau!r}"
        )
    if tau < 0:
        raise InvalidParameterError(f"tau must be >= 0, got {tau}")
    return tau


def check_workers(workers: int) -> int:
    """Validate a worker process count: an integer ``>= 1``."""
    if (
        isinstance(workers, bool)
        or not isinstance(workers, int)
        or workers < 1
    ):
        raise InvalidParameterError(
            f"workers must be an integer >= 1, got {workers!r}"
        )
    return workers

