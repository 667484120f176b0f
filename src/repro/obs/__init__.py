"""Unified observability layer: spans, metrics registry, exporters.

The simulation's :class:`~repro.runtime.trace.Trace` answers *what happened*
as a flat, totally-ordered event log; this package adds the causal and
distributional views the paper's evaluation methodology implies but never
shows:

* :mod:`repro.obs.spans` — span-based tracing (workflow-instance, step,
  recovery-episode, coordination and rule-firing spans) with parent/child
  causality, layered on top of the flat trace;
* :mod:`repro.obs.registry` — a metrics registry of counters, gauges and
  fixed-bucket histograms (p50/p95/p99 for step latency, instance
  makespan, recovery duration, pending-rule-table depth);
* :mod:`repro.obs.export` — JSONL trace dumps, Chrome trace-event JSON
  (loadable in ``chrome://tracing`` / Perfetto) and Prometheus text-format
  metric snapshots;
* :mod:`repro.obs.flight` — a per-node ring of recent transport events,
  snapshotted into the trace on a crash or a step failure even with
  tracing off;
* :mod:`repro.obs.logging` — structured NDJSON event logging with
  instance-id/node/Lamport correlation fields, used by the serve daemon
  and the CLI;
* :mod:`repro.obs.profile` — a CPU-time stack sampler charging each
  sample to the layer of its innermost package frame (kernel,
  transport, rules, store, dispatch, recovery, ...), with a ranked layer
  table, collapsed-stack output and Chrome counter tracks.

Every control system owns one :class:`~repro.obs.spans.Tracer` and one
:class:`~repro.obs.registry.MetricsRegistry`; both follow the system's
``trace`` config switch so large benchmark runs pay (almost) nothing.
The system is also its transport's one observer: each physical message
reaches it twice, as ``sent`` and ``received``, which keep the flight
notes and, with tracing on, the receive counts and message spans.
"""

from repro.obs.export import (
    chrome_trace,
    prometheus_text,
    render_chrome_trace,
    trace_to_jsonl,
)
from repro.obs.flight import FlightRecorder
from repro.obs.logging import StructuredLogger, correlation_fields, open_log_stream
from repro.obs.profile import Profiler, peak_rss_kb
from repro.obs.registry import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
)
from repro.obs.spans import NULL_SPAN, Span, SpanContext, Tracer

__all__ = [
    "NULL_SPAN",
    "CounterMetric",
    "FlightRecorder",
    "GaugeMetric",
    "HistogramMetric",
    "MetricsRegistry",
    "Profiler",
    "Span",
    "SpanContext",
    "StructuredLogger",
    "Tracer",
    "chrome_trace",
    "correlation_fields",
    "open_log_stream",
    "peak_rss_kb",
    "prometheus_text",
    "render_chrome_trace",
    "trace_to_jsonl",
]
