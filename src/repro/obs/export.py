"""Exporters: JSONL traces, Chrome trace-event JSON, Prometheus text.

Three standard formats so runs can be inspected with off-the-shelf
tooling instead of ad-hoc scripts:

* :func:`trace_to_jsonl` — one JSON object per line; flat trace records
  (``{"type": "record", ...}``) merged with spans (``{"type": "span",
  ...}``) in time order, suitable for ``jq``/pandas post-processing.
* :func:`chrome_trace` — the Chrome trace-event format (JSON object with
  a ``traceEvents`` array) loadable in ``chrome://tracing`` and Perfetto.
  Spans become complete (``"ph": "X"``) events, flat trace records become
  instant (``"ph": "i"``) events; nodes map to threads.
* :func:`prometheus_text` — the Prometheus exposition text format
  (``# HELP`` / ``# TYPE`` plus samples, histogram children expanded into
  cumulative ``_bucket{le=...}`` series with ``_sum`` and ``_count``).

Simulated time is unitless; Chrome/Perfetto expect microseconds.  One
simulated time unit is exported as one millisecond (``ts = t * 1000``)
so typical runs land in a readable zoom range.
"""

from __future__ import annotations

import json
import math
from typing import Any

from repro.obs.registry import HistogramMetric, MetricsRegistry
from repro.obs.spans import Tracer
from repro.runtime.trace import Trace

__all__ = [
    "chrome_trace",
    "prometheus_text",
    "render_chrome_trace",
    "trace_to_jsonl",
]

#: Exported microseconds per simulated time unit (1 unit -> 1 ms).
US_PER_TIME_UNIT = 1000.0


def _json_safe(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return str(value)


def _safe_attrs(attrs: dict[str, Any]) -> dict[str, Any]:
    return {k: _json_safe(v) for k, v in attrs.items()}


# -- JSONL ----------------------------------------------------------------


def trace_to_jsonl(
    trace: Trace | None,
    tracer: Tracer | None = None,
    nodes: set[str] | None = None,
    categories: set[str] | None = None,
) -> str:
    """Merge flat records and spans into time-ordered JSON lines.

    ``nodes`` restricts both record and span rows to the named nodes;
    ``categories`` restricts span rows to the named span categories
    (flat records have no category and are unaffected).
    """
    rows: list[tuple[float, int, dict[str, Any]]] = []
    order = 0
    if trace is not None:
        for rec in trace:
            if nodes is not None and rec.node not in nodes:
                continue
            rows.append((rec.time, order, {
                "type": "record",
                "time": rec.time,
                "node": rec.node,
                "kind": rec.kind,
                "detail": _safe_attrs(dict(rec.detail)),
            }))
            order += 1
    if tracer is not None:
        for span in tracer:
            if nodes is not None and span.node not in nodes:
                continue
            if categories is not None and span.category not in categories:
                continue
            rows.append((span.start, order, {
                "type": "span",
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "link_id": span.link_id,
                "name": span.name,
                "category": span.category,
                "node": span.node,
                "start": span.start,
                "end": span.end,
                "duration": span.duration,
                "open": span.end is None,
                "attrs": _safe_attrs(span.attrs),
            }))
            order += 1
    rows.sort(key=lambda r: (r[0], r[1]))
    lines = [json.dumps(row, sort_keys=True) for __, ___, row in rows]
    meta = _drop_metadata(trace, tracer)
    if meta is not None:
        # A truncated trace must say so in-band: one trailing meta line
        # so downstream consumers can detect the loss.
        lines.append(json.dumps({"type": "meta", **meta}, sort_keys=True))
    return "\n".join(lines)


def _drop_metadata(
    trace: Trace | None, tracer: Tracer | None
) -> dict[str, Any] | None:
    """What capacity cost the export, or ``None`` when it is complete.

    A system's tracer shares its trace's capacity and policy, so one pair
    describes both; ``dropped_spans`` appears only when spans were lost.
    """
    records = trace.dropped if trace is not None else 0
    spans = tracer.dropped if tracer is not None else 0
    if not records and not spans:
        return None
    ring = trace if records else tracer
    meta = {
        "dropped_records": records,
        "drop_policy": "oldest" if ring.ring else "newest",
        "capacity": ring.capacity,
    }
    if spans:
        meta["dropped_spans"] = spans
    return meta


# -- Chrome trace-event format --------------------------------------------


def chrome_trace(
    tracer: Tracer | None,
    trace: Trace | None = None,
    process_name: str = "crew-sim",
    open_span_end: float | None = None,
    nodes: set[str] | None = None,
    categories: set[str] | None = None,
) -> dict[str, Any]:
    """Build a Chrome trace-event document (``chrome://tracing``/Perfetto).

    Nodes become threads of a single process; spans become complete
    events with durations, flat trace records become thread-scoped
    instant events.  Still-open spans are skipped by default (callers
    should run ``tracer.finish(now)`` first); pass ``open_span_end`` to
    render them instead as complete events ending at that time, tagged
    ``"open": true`` in their args.

    Cross-node span links become flow events (``ph: "s"``/``"f"``) so
    message causality renders as arrows between threads.  ``nodes`` /
    ``categories`` filter the exported spans and records (flow events are
    only emitted when both ends survive the filter).
    """
    events: list[dict[str, Any]] = []
    tids: dict[str, int] = {}

    def tid_of(node: str) -> int:
        if node not in tids:
            tids[node] = len(tids) + 1
            events.append({
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tids[node],
                "args": {"name": node},
            })
        return tids[node]

    events.append({
        "name": "process_name",
        "ph": "M",
        "pid": 1,
        "tid": 0,
        "args": {"name": process_name},
    })
    exported: dict[int, Any] = {}
    by_id: dict[int, Any] = {}
    if tracer is not None:
        spans = tracer.spans
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            if span.end is None and open_span_end is None:
                continue
            if nodes is not None and span.node not in nodes:
                continue
            if categories is not None and span.category not in categories:
                continue
            end = span.end if span.end is not None else open_span_end
            args = _safe_attrs(span.attrs)
            args["span_id"] = span.span_id
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            if span.link_id is not None:
                args["link_id"] = span.link_id
            if span.end is None:
                args["open"] = True
            events.append({
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.start * US_PER_TIME_UNIT,
                "dur": max((end - span.start) * US_PER_TIME_UNIT, 1.0),
                "pid": 1,
                "tid": tid_of(span.node),
                "args": args,
            })
            exported[span.span_id] = span
        # Flow events: an arrow from the linked (sender-side) span to the
        # linking span.  Flow ids reuse the target span's id (unique).
        for span in exported.values():
            link = by_id.get(span.link_id) if span.link_id is not None else None
            if link is None or link.span_id not in exported:
                continue
            events.append({
                "name": "causal",
                "cat": "flow",
                "ph": "s",
                "id": span.span_id,
                "ts": link.start * US_PER_TIME_UNIT,
                "pid": 1,
                "tid": tid_of(link.node),
            })
            events.append({
                "name": "causal",
                "cat": "flow",
                "ph": "f",
                "bp": "e",
                "id": span.span_id,
                "ts": span.start * US_PER_TIME_UNIT,
                "pid": 1,
                "tid": tid_of(span.node),
            })
    if trace is not None:
        for rec in trace:
            if nodes is not None and rec.node not in nodes:
                continue
            events.append({
                "name": rec.kind,
                "cat": "trace",
                "ph": "i",
                "s": "t",
                "ts": rec.time * US_PER_TIME_UNIT,
                "pid": 1,
                "tid": tid_of(rec.node),
                "args": _safe_attrs(dict(rec.detail)),
            })
    document: dict[str, Any] = {"traceEvents": events, "displayTimeUnit": "ms"}
    meta = _drop_metadata(trace, tracer)
    if meta is not None:
        document["metadata"] = meta
    return document


def render_chrome_trace(
    tracer: Tracer | None,
    trace: Trace | None = None,
    process_name: str = "crew-sim",
    open_span_end: float | None = None,
    nodes: set[str] | None = None,
    categories: set[str] | None = None,
) -> str:
    """:func:`chrome_trace` serialized to a JSON string."""
    return json.dumps(
        chrome_trace(tracer, trace, process_name=process_name,
                     open_span_end=open_span_end, nodes=nodes,
                     categories=categories),
        indent=1,
    )


# -- Prometheus text format ------------------------------------------------


def _fmt_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    """Escape a label value per the Prometheus exposition format:
    backslash, double-quote and newline must be backslash-escaped."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _escape_help(text: str) -> str:
    """HELP text allows everything except raw backslash/newline."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _fmt_labels(labels: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{k}="{_escape_label(v)}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus exposition text format."""
    lines: list[str] = []
    for name, children in registry:
        kind = registry.kind_of(name)
        help_text = registry.help_of(name)
        if help_text:
            lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} {kind}")
        for child in children:
            if isinstance(child, HistogramMetric):
                cumulative = 0
                for bound, count in zip(
                    (*child.bounds, math.inf), child.counts
                ):
                    cumulative += count
                    le = _fmt_labels(child.labels, f'le="{_fmt_value(bound)}"')
                    lines.append(f"{name}_bucket{le} {cumulative}")
                labels = _fmt_labels(child.labels)
                lines.append(f"{name}_sum{labels} {_fmt_value(child.sum)}")
                lines.append(f"{name}_count{labels} {child.count}")
            else:
                labels = _fmt_labels(child.labels)
                lines.append(f"{name}{labels} {_fmt_value(child.value)}")
    return "\n".join(lines) + ("\n" if lines else "")
