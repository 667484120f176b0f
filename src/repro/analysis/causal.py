"""Offline causal-trace reconstruction and anomaly detection.

The exporters in :mod:`repro.obs.export` flatten a run into JSONL; this
module reads that JSONL (or a live ``Trace``/``Tracer`` pair) back into a
:class:`CausalTrace` — per-instance timelines, the cross-node link mesh,
the critical path — without needing the simulation objects.  That is the
whole point: a trace file produced on one machine (or in CI) is a
self-contained, checkable artifact.

Anomaly detection covers the ways a causal chain can be *broken* rather
than merely *wrong* (protocol-order violations live in
:mod:`repro.analysis.invariants`):

* **orphan links / parents** — a span referencing a span id that is not
  in the trace (lost export or a propagation bug) — except an id older
  than the oldest span of a trace whose ``meta`` line says its ring
  evicted spans: that span was recorded and has since left the window;
* **unlinked receives** — a recv message span with no link at all, i.e.
  a packet whose sender-side span was never stamped;
* **lost packets** — a send message span whose ``msg_id`` never shows up
  in any recv span (the transport guarantees delivery, so this means the
  run ended with the packet parked or the recv span was dropped);
* **clock regressions** — Lamport values that fail to increase along a
  node's message sequence or across a send→recv edge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro.errors import CrewError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.spans import Tracer
    from repro.runtime.trace import Trace

__all__ = [
    "Anomaly",
    "CausalTrace",
    "PhaseLatency",
    "RecordRow",
    "SpanRow",
]


@dataclass(frozen=True)
class SpanRow:
    """One span as reconstructed from an exported trace."""

    span_id: int
    parent_id: int | None
    link_id: int | None
    name: str
    category: str
    node: str
    start: float
    end: float | None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def instance(self) -> str | None:
        return self.attrs.get("instance")

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start


@dataclass(frozen=True)
class RecordRow:
    """One flat trace record as reconstructed from an exported trace."""

    time: float
    node: str
    kind: str
    detail: dict[str, Any] = field(default_factory=dict)

    @property
    def instance(self) -> str | None:
        return self.detail.get("instance")


@dataclass(frozen=True)
class Anomaly:
    """One broken-causality finding."""

    kind: str
    message: str
    span_id: int | None = None

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message}"


@dataclass(frozen=True)
class PhaseLatency:
    """Per-category latency contribution within one instance."""

    category: str
    span_count: int
    total: float


class CausalTrace:
    """A reconstructed run: spans, records, and the causal link mesh."""

    def __init__(
        self,
        spans: Iterable[SpanRow],
        records: Iterable[RecordRow],
        evicted_spans: int = 0,
    ):
        self.spans = sorted(spans, key=lambda s: (s.start, s.span_id))
        self.records = sorted(records, key=lambda r: r.time)
        self.by_id: dict[int, SpanRow] = {s.span_id: s for s in self.spans}
        #: How many spans the exporting tracer's ring had evicted (oldest
        #: first, so exactly the ids below the oldest one present).
        self.evicted_spans = evicted_spans

    # -- construction --------------------------------------------------------

    @classmethod
    def from_jsonl(cls, text: str) -> "CausalTrace":
        """Parse the output of :func:`repro.obs.export.trace_to_jsonl`."""
        spans: list[SpanRow] = []
        records: list[RecordRow] = []
        evicted_spans = 0
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CrewError(
                    f"trace line {lineno} is not valid JSON: {exc}"
                ) from None
            kind = row.get("type")
            if kind == "span":
                spans.append(SpanRow(
                    span_id=row["span_id"],
                    parent_id=row.get("parent_id"),
                    link_id=row.get("link_id"),
                    name=row.get("name", ""),
                    category=row.get("category", ""),
                    node=row.get("node", ""),
                    start=row.get("start", 0.0),
                    end=row.get("end"),
                    attrs=dict(row.get("attrs") or {}),
                ))
            elif kind == "record":
                records.append(RecordRow(
                    time=row.get("time", 0.0),
                    node=row.get("node", ""),
                    kind=row.get("kind", ""),
                    detail=dict(row.get("detail") or {}),
                ))
            elif kind == "meta":
                # Trailing provenance line (dropped-record accounting);
                # carries no events.
                if row.get("drop_policy") == "oldest":
                    evicted_spans = row.get("dropped_spans", 0)
            else:
                raise CrewError(
                    f"trace line {lineno} has unknown type {kind!r}"
                )
        return cls(spans, records, evicted_spans)

    @classmethod
    def from_run(
        cls, trace: "Trace | None", tracer: "Tracer | None" = None
    ) -> "CausalTrace":
        """Build directly from live run objects.

        Implemented as export→parse so tests exercise the exact same
        code path the offline analyzer sees.
        """
        from repro.obs.export import trace_to_jsonl

        return cls.from_jsonl(trace_to_jsonl(trace, tracer))

    # -- queries -------------------------------------------------------------

    def instances(self) -> list[str]:
        """Instance ids seen in spans or records, sorted."""
        out: set[str] = set()
        for span in self.spans:
            if span.instance is not None:
                out.add(span.instance)
        for rec in self.records:
            if rec.instance is not None:
                out.add(rec.instance)
        return sorted(out)

    def timeline(self, instance: str) -> list[SpanRow]:
        """All spans attributed to one instance, in start order.

        A workflow span is attributed by name (`<instance>` or a step
        name prefixed with it); everything else by its ``instance`` attr.
        """
        return [
            s for s in self.spans
            if s.instance == instance
            or s.name == instance
            or s.name.startswith(f"{instance}/")
            or s.name.startswith(f"recovery:{instance}#")
        ]

    def message_spans(self) -> list[SpanRow]:
        return [s for s in self.spans if s.category == "message"]

    def records_for(self, instance: str) -> list[RecordRow]:
        return [r for r in self.records if r.instance == instance]

    # -- causal chains -------------------------------------------------------

    def causal_chain(self, span: SpanRow) -> list[SpanRow]:
        """The chain of causal predecessors of ``span``, oldest first.

        Follows ``link_id`` (cross-node) preferentially, then
        ``parent_id`` (same-node nesting).  Cycles are impossible by
        construction (ids increase along real causality) but guarded
        anyway so a corrupt trace cannot hang the analyzer.
        """
        chain = [span]
        seen = {span.span_id}
        current = span
        while True:
            next_id = current.link_id
            if next_id is None:
                next_id = current.parent_id
            if next_id is None or next_id in seen:
                break
            nxt = self.by_id.get(next_id)
            if nxt is None:
                break
            chain.append(nxt)
            seen.add(nxt.span_id)
            current = nxt
        chain.reverse()
        return chain

    def critical_path(self, instance: str) -> list[SpanRow]:
        """Approximate critical path of one instance, oldest first.

        Starts from the latest-ending span of the instance's timeline
        (preferring non-``workflow`` spans — the instance span covers the
        whole run and carries no causal detail) and walks causal
        predecessors: the link target when present, otherwise the latest
        same-node span that ended at or before the current one started,
        otherwise the parent.
        """
        timeline = self.timeline(instance)
        if not timeline:
            return []

        def end_of(s: SpanRow) -> float:
            return s.end if s.end is not None else s.start

        heads = [s for s in timeline if s.category != "workflow"] or timeline
        path = [max(heads, key=lambda s: (end_of(s), s.span_id))]
        seen = {path[0].span_id}
        members = {s.span_id for s in timeline}
        current = path[0]
        while True:
            nxt: SpanRow | None = None
            if current.link_id is not None:
                nxt = self.by_id.get(current.link_id)
            if nxt is None:
                candidates = [
                    s for s in timeline
                    if s.span_id not in seen
                    and s.node == current.node
                    and end_of(s) <= current.start
                ]
                if candidates:
                    nxt = max(candidates, key=end_of)
            if nxt is None and current.parent_id in members:
                nxt = self.by_id.get(current.parent_id)
            if nxt is None or nxt.span_id in seen:
                break
            path.append(nxt)
            seen.add(nxt.span_id)
            current = nxt
        path.reverse()
        return path

    def phase_latency(self, instance: str) -> list[PhaseLatency]:
        """Per-category time totals for an instance, largest first."""
        totals: dict[str, tuple[int, float]] = {}
        for span in self.timeline(instance):
            count, total = totals.get(span.category, (0, 0.0))
            totals[span.category] = (count + 1, total + span.duration)
        return sorted(
            (PhaseLatency(cat, count, total)
             for cat, (count, total) in totals.items()),
            key=lambda p: (-p.total, p.category),
        )

    # -- anomaly detection ---------------------------------------------------

    def anomalies(self) -> list[Anomaly]:
        """Broken-causality findings across the whole trace."""
        out: list[Anomaly] = []
        # Ids below the oldest span present were evicted, not lost.
        oldest = min(self.by_id, default=0) if self.evicted_spans else 0

        def missing(span_id: int | None) -> bool:
            return (span_id is not None and span_id >= oldest
                    and span_id not in self.by_id)

        for span in self.spans:
            if missing(span.link_id):
                out.append(Anomaly(
                    "orphan-link",
                    f"span #{span.span_id} ({span.name} @{span.node}) links "
                    f"to missing span #{span.link_id}",
                    span.span_id,
                ))
            if missing(span.parent_id):
                out.append(Anomaly(
                    "orphan-parent",
                    f"span #{span.span_id} ({span.name} @{span.node}) has "
                    f"missing parent #{span.parent_id}",
                    span.span_id,
                ))
        messages = self.message_spans()
        recv_ids = {
            s.attrs.get("msg_id") for s in messages
            if s.attrs.get("direction") == "recv"
        }
        for span in messages:
            direction = span.attrs.get("direction")
            if direction == "recv" and span.link_id is None:
                out.append(Anomaly(
                    "unlinked-recv",
                    f"recv span #{span.span_id} ({span.name} @{span.node}) "
                    f"carries no send-span link",
                    span.span_id,
                ))
            elif (direction == "send"
                    and span.attrs.get("msg_id") not in recv_ids):
                out.append(Anomaly(
                    "lost-packet",
                    f"message #{span.attrs.get('msg_id')} "
                    f"({span.name} {span.attrs.get('src')}->"
                    f"{span.attrs.get('dst')}) was sent but never received",
                    span.span_id,
                ))
        out.extend(self._clock_anomalies(messages))
        return out

    def _clock_anomalies(self, messages: list[SpanRow]) -> list[Anomaly]:
        out: list[Anomaly] = []
        # Per-node monotonicity: in span-creation order (span ids are
        # allocated in event order) every message span on a node must
        # carry a strictly larger Lamport value than the previous one.
        last_by_node: dict[str, tuple[int, int]] = {}
        for span in sorted(messages, key=lambda s: s.span_id):
            lamport = span.attrs.get("lamport")
            if not isinstance(lamport, int):
                continue
            prev = last_by_node.get(span.node)
            if prev is not None and lamport <= prev[1]:
                out.append(Anomaly(
                    "clock-regression",
                    f"node {span.node}: span #{span.span_id} lamport "
                    f"{lamport} <= previous span #{prev[0]} lamport {prev[1]}",
                    span.span_id,
                ))
            last_by_node[span.node] = (span.span_id, lamport)
        # Cross-edge: a recv's merged clock must exceed the send's.
        for span in messages:
            if span.attrs.get("direction") != "recv" or span.link_id is None:
                continue
            send = self.by_id.get(span.link_id)
            if send is None:
                continue
            s_lamport = send.attrs.get("lamport")
            r_lamport = span.attrs.get("lamport")
            if (isinstance(s_lamport, int) and isinstance(r_lamport, int)
                    and r_lamport <= s_lamport):
                out.append(Anomaly(
                    "clock-regression",
                    f"edge #{send.span_id}->#{span.span_id}: recv lamport "
                    f"{r_lamport} <= send lamport {s_lamport}",
                    span.span_id,
                ))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<CausalTrace spans={len(self.spans)} "
                f"records={len(self.records)}>")
