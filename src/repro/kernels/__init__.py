"""Optional compiled flat-array kernels behind a selectable backend.

PR 2 laid every hot structure out as parallel 1-based int lists, bytearray
bitmaps and 63-bit packed twig keys — a layout one conversion away from
C speed.  This package supplies that conversion: numpy-vectorized variants
of the two candidate-generation loops every tier (serial join, shard
workers, streaming ingest) funnels through —

- :mod:`repro.kernels.probe` — the probe/bucket walk of
  :func:`repro.core.join._probe_index` (postorder-window intersection and
  owner dedup over whole buckets via ``searchsorted``/boolean masks);
- :mod:`repro.kernels.partition` — the partition span fills of
  :func:`repro.core.partition.extract_partition` (2-D ndarray slice
  assignments instead of per-span bytearray splices).

Verification has no numpy variant: the tau-strip of
:func:`repro.ted.cutoff.zhang_shasha_bounded` leaves rows of at most
``2*tau + 1`` cells, too narrow for per-row ufunc dispatch to pay.

**Backend contract.**  A backend name is one of :data:`BACKENDS`:

- ``"python"`` — the pure-python reference implementations, always
  available; the ground truth every kernel is property-tested against.
- ``"numpy"`` — the vectorized kernels; selecting it without numpy
  installed raises :class:`~repro.errors.InvalidParameterError`.
- ``"auto"`` — resolves to ``"numpy"`` when numpy imports, silently to
  ``"python"`` otherwise.  The repository never depends on numpy; it is
  an optional accelerator (``pip install repro[fast]``).

Whatever the backend, results are **bit-identical**: pairs, distances,
candidate counts and every deterministic ``JoinStats`` counter.  The only
observable differences are timings and ``JoinStats.extra["backend"]`` /
``explain()["filters"]["backend"]``, which report the backend that
actually ran.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import InvalidParameterError

__all__ = [
    "BACKENDS",
    "numpy_available",
    "get_numpy",
    "resolve_backend",
]

BACKENDS = ("auto", "python", "numpy")

# Cached probe result: None = not probed yet, False = import failed,
# otherwise the module itself.  ``_reset_numpy_probe`` is a test hook so
# the numpy-absent fallback can be exercised on a machine that has numpy
# (monkeypatch the import, reset, resolve).
_NUMPY: Optional[object] = None


def numpy_available() -> bool:
    """Whether the numpy backend can run in this interpreter (cached)."""
    return get_numpy() is not None


def get_numpy():
    """The numpy module, or ``None`` when it cannot be imported."""
    global _NUMPY
    if _NUMPY is None:
        try:
            import numpy  # noqa: F401 — optional accelerator

            _NUMPY = numpy
        except Exception:  # pragma: no cover - exercised via monkeypatch
            _NUMPY = False
    return _NUMPY if _NUMPY is not False else None


def _reset_numpy_probe() -> None:
    """Forget the cached import probe (test hook)."""
    global _NUMPY
    _NUMPY = None


def resolve_backend(backend: str) -> str:
    """Resolve a backend name to the concrete backend that will run.

    ``"auto"`` becomes ``"numpy"`` when numpy imports and ``"python"``
    otherwise; explicit names are validated (``"numpy"`` without numpy
    installed is an :class:`InvalidParameterError`, not a silent
    downgrade — a caller who pinned the backend wants to know).
    """
    if backend not in BACKENDS:
        raise InvalidParameterError(
            f"unknown backend {backend!r}; use one of {', '.join(BACKENDS)}"
        )
    if backend == "auto":
        return "numpy" if numpy_available() else "python"
    if backend == "numpy" and not numpy_available():
        raise InvalidParameterError(
            "backend='numpy' requested but numpy is not importable; "
            "install the optional accelerator (pip install repro[fast]) "
            "or use backend='auto' to fall back to pure python"
        )
    return backend
