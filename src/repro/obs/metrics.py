"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

The engine's statistics objects (:class:`~repro.baselines.common.JoinStats`,
:class:`~repro.stream.engine.StreamStats`) are frozen contracts — their
fields and values stay bit-identical whether or not metrics are on.
This module *publishes from* them instead of changing them: after a run,
:func:`publish_join_stats` / :func:`publish_stream_stats` fold the phase
timers, candidate funnel and failure accounting into a
:class:`MetricsRegistry` that :func:`repro.obs.export.render_prometheus`
turns into text exposition.

Metric names follow the Prometheus conventions (``repro_`` prefix,
``_total`` suffix on counters, ``_seconds`` on time histograms):

- ``repro_join_runs_total{method,tau}`` — joins published
- ``repro_join_candidates_total{method,tau}`` / ``repro_join_results_total``
  / ``repro_join_ted_calls_total`` — the candidate funnel
- ``repro_join_phase_seconds{phase}`` — histogram over candidate /
  verify / probe / index phase walls
- ``repro_join_counter_total{counter}`` — every integer counter from
  ``JoinStats.extra`` (probe_hits, match_tests, retries, ...)
- ``repro_stream_snapshots_total``, gauges ``repro_stream_trees`` /
  ``repro_stream_results`` / ``repro_stream_candidates`` /
  ``repro_stream_index_entries`` — the streaming funnel at publish time
- ``repro_stream_quarantined_trees_total`` — malformed arrivals skipped
- ``repro_stream_wall_seconds{phase=ingest|verify}``

A module-level default registry (:func:`get_registry`) serves the CLI
and the streaming service; tests build private registries.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Optional, Sequence

from repro.errors import InvalidParameterError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "publish_join_stats",
    "publish_stream_stats",
    "DEFAULT_BUCKETS",
]

# Latency buckets in seconds: micro-phases up through multi-minute joins.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise InvalidParameterError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


class Histogram:
    """Fixed upper-bound buckets (cumulative on render, per-bucket here)."""

    __slots__ = ("buckets", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise InvalidParameterError(
                "histogram needs at least one bucket bound"
            )
        self.counts = [0] * (len(self.buckets) + 1)  # last = +Inf overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> list[int]:
        """Per-bucket cumulative counts, ending with the +Inf total."""
        out, running = [], 0
        for c in self.counts:
            running += c
            out.append(running)
        return out


class _Family:
    """One metric name: kind, help text, and label-keyed series."""

    __slots__ = ("name", "kind", "help", "series")

    def __init__(self, name, kind, help_text):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.series: dict[tuple, object] = {}


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Thread-safe registry of metric families.

    ``counter(name, **labels)`` / ``gauge(...)`` / ``histogram(...)``
    return the live instrument for that label set, creating it on first
    use; re-registering a name with a different kind raises.
    """

    def __init__(self):
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    def _instrument(self, name, kind, help_text, labels, factory):
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text)
                self._families[name] = family
            elif family.kind != kind:
                raise InvalidParameterError(
                    f"metric {name!r} already registered as {family.kind}, "
                    f"not {kind}"
                )
            elif help_text and not family.help:
                family.help = help_text
            key = _label_key(labels)
            series = family.series.get(key)
            if series is None:
                series = factory()
                family.series[key] = series
            return series

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._instrument(name, "counter", help, labels, Counter)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._instrument(name, "gauge", help, labels, Gauge)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  **labels) -> Histogram:
        return self._instrument(
            name, "histogram", help, labels, lambda: Histogram(buckets)
        )

    def families(self) -> list[_Family]:
        """Families in registration order (render order)."""
        with self._lock:
            return list(self._families.values())

    def snapshot(self) -> dict:
        """``{name: {label_tuple: value-or-histogram-summary}}`` for tests."""
        out = {}
        for family in self.families():
            series = {}
            for key, inst in family.series.items():
                if family.kind == "histogram":
                    series[key] = {"sum": inst.sum, "count": inst.count}
                else:
                    series[key] = inst.value
            out[family.name] = series
        return out

    def reset(self) -> None:
        with self._lock:
            self._families.clear()


_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (CLI, streaming service)."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide default (test hook); returns the old one."""
    global _default_registry
    with _default_lock:
        old, _default_registry = _default_registry, registry
    return old


# -- publishing from the frozen stats contracts ------------------------------

def publish_join_stats(stats, registry: Optional[MetricsRegistry] = None,
                       **extra_labels) -> MetricsRegistry:
    """Fold one ``JoinStats`` into metric families (stats unchanged)."""
    reg = registry if registry is not None else get_registry()
    labels = {"method": stats.method, "tau": stats.tau, **extra_labels}
    reg.counter("repro_join_runs_total",
                "Joins published to this registry", **labels).inc()
    reg.counter("repro_join_trees_total",
                "Trees joined", **labels).inc(stats.tree_count)
    reg.counter("repro_join_candidates_total",
                "Candidate pairs surviving filters", **labels
                ).inc(stats.candidates)
    reg.counter("repro_join_results_total",
                "Result pairs within tau", **labels).inc(stats.results)
    reg.counter("repro_join_ted_calls_total",
                "Banded TED DP runs: candidates no bound rejected and no "
                "certificate decided", **labels
                ).inc(stats.ted_calls)
    reg.counter("repro_join_pairs_considered_total",
                "Pairs considered before filtering", **labels
                ).inc(stats.pairs_considered)
    for phase in ("candidate", "verify", "probe", "index"):
        wall = getattr(stats, f"{phase}_time")
        reg.histogram("repro_join_phase_seconds",
                      "Per-join phase wall clock",
                      phase=phase, **labels).observe(wall)
    for key, value in sorted((stats.extra or {}).items()):
        if isinstance(value, bool) or not isinstance(value, int):
            continue
        reg.counter("repro_join_counter_total",
                    "Integer counters from JoinStats.extra",
                    counter=key, **labels).inc(value)
    return reg


def publish_stream_stats(stats, registry: Optional[MetricsRegistry] = None,
                         **labels) -> MetricsRegistry:
    """Fold one ``StreamStats`` into metric families (stats unchanged)."""
    reg = registry if registry is not None else get_registry()
    reg.counter("repro_stream_snapshots_total",
                "Stream snapshots published", **labels).inc()
    reg.gauge("repro_stream_trees",
              "Trees ingested at publish time", **labels).set(stats.trees)
    reg.gauge("repro_stream_results",
              "Result pairs at publish time", **labels).set(stats.results)
    reg.gauge("repro_stream_candidates",
              "Candidate pairs verified (both probes and the small pool)",
              **labels).set(stats.candidates)
    reg.gauge("repro_stream_index_entries",
              "Live two-layer index entries", **labels
              ).set(stats.index_entries)
    reg.counter("repro_stream_quarantined_trees_total",
                "Malformed arrivals quarantined", **labels
                ).inc(stats.quarantined_trees)
    for phase in ("ingest", "verify"):
        reg.histogram("repro_stream_wall_seconds",
                      "Streaming phase wall clock",
                      phase=phase, **labels
                      ).observe(getattr(stats, f"{phase}_time"))
    return reg
