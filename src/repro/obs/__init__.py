"""Observability: structured tracing, metrics, exporters (PR 8).

The instrumentation spine for every execution tier:

- :mod:`repro.obs.trace` — zero-dependency span tracing on monotonic
  clocks (:class:`Tracer`, :data:`NULL_TRACER`), the shared
  :func:`phase_timer` accumulator, and span-dict relay for worker
  processes.
- :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry` of
  counters / gauges / fixed-bucket histograms that the frozen
  ``JoinStats`` / ``StreamStats`` contracts publish *into* (never
  mutate).
- :mod:`repro.obs.export` — JSONL trace files, Prometheus text
  exposition, and a human-readable span tree.

See the "Observability" section of :mod:`repro.session` for the span
and metric naming contract.
"""

from repro.obs.export import (
    format_span_tree,
    read_jsonl,
    render_prometheus,
    span_roots,
    write_jsonl,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    publish_join_stats,
    publish_stream_stats,
    set_registry,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    new_trace_id,
    phase_timer,
    span_dict,
)

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "new_trace_id",
    "span_dict",
    "phase_timer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "get_registry",
    "set_registry",
    "publish_join_stats",
    "publish_stream_stats",
    "write_jsonl",
    "read_jsonl",
    "render_prometheus",
    "format_span_tree",
    "span_roots",
]
