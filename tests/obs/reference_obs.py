"""The observability plane's engines as they were before they were
rebuilt, kept as the test oracle.

``Tracer`` and ``MetricsRegistry`` exactly as ``repro.obs.{spans,
registry}`` defined them at ``dc23613``: a ``dict(attrs)`` copy and an
``_open_children`` entry per span (instants and message spans included),
bucket validation and a sorted label key per look-up.
``FlightRecorder`` exactly as ``repro.obs.flight`` defined it at
``901dff7``: a 6-key dict per note.  ``DequeTrace`` and ``DequeTracer``
exactly as ``repro.runtime.trace.Trace`` and ``repro.obs.spans.Tracer``
defined them at ``1b9e08f``: a deque of one ``TraceRecord`` (with its
detail dict) per record, and of one ``Span`` or flat row tuple per span.
The class bodies are verbatim (only the last two are renamed); what they
build — ``Span``, ``TraceRecord``, the instruments — is imported from
``src``.  ``tests/obs/test_obs_differential.py`` and
``tests/obs/test_rings_differential.py`` drive each beside the class that
replaced it with the same operations and require the same spans,
records, exposition text and snapshots.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
)
from repro.obs.spans import NULL_SPAN, Span
from repro.runtime.trace import Trace, TraceRecord

__all__ = ["DequeTrace", "DequeTracer", "FlightRecorder", "MetricsRegistry", "Tracer"]


# -- repro/obs/spans.py -----------------------------------------------------

class Tracer:
    """Factory and registry for spans, layered over the flat trace.

    When a :class:`~repro.runtime.trace.Trace` is attached, span boundaries
    are *not* duplicated into it (the engines already record their own
    flat events); instead the exporters in :mod:`repro.obs.export` merge
    both views.  ``tracer.trace`` keeps the association explicit.
    """

    def __init__(self, trace: Trace | None = None, enabled: bool = True):
        self.enabled = enabled
        self.trace = trace
        self.spans: list[Span] = []
        self._next_id = 1
        #: open children per parent span id, for end-time clamping.
        self._open_children: dict[int, list[Span]] = {}

    # -- span lifecycle ------------------------------------------------------

    def start(
        self,
        name: str,
        category: str,
        node: str,
        time: float,
        parent: Span | None = None,
        link: "Span | int | None" = None,
        **attrs: Any,
    ) -> Span:
        """Open a new span (returns :data:`NULL_SPAN` when disabled).

        ``link`` names a causal predecessor on another node (span or span
        id); unlike ``parent`` it does not constrain nesting.
        """
        if not self.enabled:
            return NULL_SPAN
        parent_id = None
        if parent is not None and not parent.is_null:
            parent_id = parent.span_id
        link_id: int | None
        if isinstance(link, Span):
            link_id = None if link.is_null else link.span_id
        else:
            link_id = link
        span = Span(self._next_id, name, category, node, time,
                    parent_id=parent_id, attrs=dict(attrs) if attrs else None,
                    link_id=link_id)
        self._next_id += 1
        self.spans.append(span)
        if parent_id is not None:
            self._open_children.setdefault(parent_id, []).append(span)
        return span

    def end(self, span: Span, time: float, **attrs: Any) -> None:
        """Close ``span`` at ``time``; auto-closes open descendants first.

        The auto-close keeps the invariant that a child span never ends
        after its parent even when in-flight work (steps, compensation
        chains) is cut short by a commit or abort.
        """
        if not self.enabled or span.is_null or span.end is not None:
            return
        for child in self._open_children.pop(span.span_id, ()):
            if child.end is None:
                self.end(child, time, auto_closed=True)
        span.end = time
        if attrs:
            span.attrs.update(attrs)

    def instant(
        self,
        name: str,
        category: str,
        node: str,
        time: float,
        parent: Span | None = None,
        link: "Span | int | None" = None,
        **attrs: Any,
    ) -> Span:
        """A zero-duration span (rendered as an instant event)."""
        span = self.start(name, category, node, time, parent=parent,
                          link=link, **attrs)
        self.end(span, time)
        return span

    def finish(self, time: float) -> int:
        """Close every still-open span at ``time``; returns how many."""
        closed = 0
        for span in self.spans:
            if span.end is None:
                self.end(span, time, auto_closed=True)
                closed += 1
        self._open_children.clear()
        return closed

    # -- queries -------------------------------------------------------------

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def __len__(self) -> int:
        return len(self.spans)

    def by_category(self, category: str) -> list[Span]:
        return [s for s in self.spans if s.category == category]

    def open_spans(self) -> list[Span]:
        return [s for s in self.spans if s.end is None]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def find(self, span_id: int) -> Span | None:
        for span in self.spans:
            if span.span_id == span_id:
                return span
        return None

    def check_nesting(self) -> list[str]:
        """Violations of the parent/child interval invariant (for tests)."""
        by_id = {s.span_id: s for s in self.spans}
        problems = []
        for span in self.spans:
            if span.parent_id is None:
                continue
            parent = by_id.get(span.parent_id)
            if parent is None:
                problems.append(f"span #{span.span_id} has unknown parent")
                continue
            if span.start < parent.start:
                problems.append(
                    f"span #{span.span_id} starts before parent #{parent.span_id}"
                )
            if (span.end is not None and parent.end is not None
                    and span.end > parent.end):
                problems.append(
                    f"span #{span.span_id} ends after parent #{parent.span_id}"
                )
        return problems

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return f"<Tracer {state} spans={len(self.spans)}>"


# -- repro/obs/registry.py --------------------------------------------------

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Get-or-create registry of metric families and their children."""

    def __init__(self) -> None:
        #: family name -> (kind, help text, bucket bounds or None)
        self._families: dict[str, tuple[str, str, tuple[float, ...] | None]] = {}
        #: (family name, label key) -> instrument
        self._children: dict[tuple[str, LabelKey], Any] = {}

    # -- instrument accessors ------------------------------------------------

    def counter(self, name: str, help: str = "", **labels: Any) -> CounterMetric:
        return self._child(name, "counter", help, None, labels)

    def gauge(self, name: str, help: str = "", **labels: Any) -> GaugeMetric:
        return self._child(name, "gauge", help, None, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] | None = None,
        **labels: Any,
    ) -> HistogramMetric:
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if any(later <= earlier for later, earlier in zip(bounds[1:], bounds)):
            raise ValueError(f"histogram buckets must be strictly increasing: {bounds}")
        return self._child(name, "histogram", help, bounds, labels)

    def _child(
        self,
        name: str,
        kind: str,
        help: str,
        bounds: tuple[float, ...] | None,
        labels: Mapping[str, Any],
    ) -> Any:
        family = self._families.get(name)
        if family is None:
            self._families[name] = (kind, help, bounds)
        elif family[0] != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family[0]}, not {kind}"
            )
        elif help and not family[1]:
            self._families[name] = (kind, help, family[2])
        key = (name, _label_key(labels))
        child = self._children.get(key)
        if child is None:
            registered_bounds = self._families[name][2]
            if kind == "histogram":
                child = HistogramMetric(key[1], registered_bounds or DEFAULT_BUCKETS)
            elif kind == "counter":
                child = CounterMetric(key[1])
            else:
                child = GaugeMetric(key[1])
            self._children[key] = child
        return child

    # -- introspection -------------------------------------------------------

    def families(self) -> list[str]:
        return sorted(self._families)

    def kind_of(self, name: str) -> str:
        return self._families[name][0]

    def help_of(self, name: str) -> str:
        return self._families[name][1]

    def children(self, name: str) -> list[Any]:
        """All children of a family, in sorted label order."""
        out = [child for (fam, __), child in self._children.items() if fam == name]
        out.sort(key=lambda c: c.labels)
        return out

    def get(self, name: str, **labels: Any) -> Any | None:
        """Existing child or None (never creates)."""
        return self._children.get((name, _label_key(labels)))

    def __iter__(self) -> Iterator[tuple[str, list[Any]]]:
        for name in self.families():
            yield name, self.children(name)

    def __len__(self) -> int:
        return len(self._children)

    # -- combination ---------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry's observations into this one (in place).

        Counters and histogram contents add; gauges take the other
        registry's latest value.  Used to combine per-node registries into
        one fleet-wide report.
        """
        for name, (kind, help, bounds) in other._families.items():
            for child in other.children(name):
                labels = dict(child.labels)
                if kind == "counter":
                    self.counter(name, help, **labels).inc(child.value)
                elif kind == "gauge":
                    self.gauge(name, help, **labels).set(child.value)
                else:
                    mine = self.histogram(name, help, buckets=child.bounds, **labels)
                    if mine.bounds != child.bounds:
                        raise ValueError(
                            f"cannot merge histogram {name!r}: bucket mismatch"
                        )
                    for i, c in enumerate(child.counts):
                        mine.counts[i] += c
                    mine.sum += child.sum
                    mine.count += child.count
                    mine.min = min(mine.min, child.min)
                    mine.max = max(mine.max, child.max)
        return self


# -- repro/obs/flight.py ----------------------------------------------------

class FlightRecorder:
    """Fixed-capacity ring of a node's recent transport events."""

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self._events: deque[dict] = deque(maxlen=capacity)
        self.recorded = 0

    def note(
        self,
        time: float,
        direction: str,
        interface: str,
        peer: str,
        msg_id: int,
        lamport: int,
    ) -> None:
        """Append one transport event (evicting the oldest when full)."""
        self.recorded += 1
        self._events.append({
            "time": time,
            "dir": direction,
            "interface": interface,
            "peer": peer,
            "msg_id": msg_id,
            "lamport": lamport,
        })

    def snapshot(self) -> list[dict]:
        """The retained window, oldest first (copies, safe to serialize)."""
        return [dict(event) for event in self._events]

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FlightRecorder {len(self._events)}/{self.capacity} "
                f"recorded={self.recorded}>")


# -- repro/runtime/trace.py at 1b9e08f ---------------------------------------

class DequeTrace:
    """An append-only, queryable event trace.

    Tracing can be disabled (``enabled=False``) to remove overhead from
    large benchmark runs; ``record`` then becomes a no-op.

    The records are a ring: once ``capacity`` records are held, each
    append evicts the oldest, so a long-running daemon keeps its most
    recent window and a bounded memory.  ``dropped`` counts the evicted
    records.  Without a ``capacity`` the trace is unbounded.
    """

    def __init__(self, enabled: bool = True, capacity: int | None = None):
        self.enabled = enabled
        self.capacity = capacity
        self.records: deque[TraceRecord] = deque(maxlen=capacity)
        self.dropped = 0
        #: Optional tap called with each appended :class:`TraceRecord`
        #: (the serve front door streams live events through this).
        self.listener: Callable[[TraceRecord], None] | None = None

    def record(self, time: float, node: str, kind: str, **detail: Any) -> None:
        if self.enabled:
            self._append(TraceRecord(time, node, kind, detail))

    def snapshot(self, time: float, node: str, kind: str, **detail: Any) -> None:
        """Record unconditionally, bypassing ``enabled``.

        Post-mortem dumps (flight-recorder snapshots on crash or step
        failure) must land even in benchmark runs with tracing off — a
        flight recorder that vanishes exactly when you need it is
        worthless.  A snapshot into a full ring evicts like any record,
        and the loss is counted: a truncated trace that looks complete is
        worse than a short one.
        """
        self._append(TraceRecord(time, node, kind, detail))

    def _append(self, rec: TraceRecord) -> None:
        records = self.records
        if len(records) == self.capacity:
            self.dropped += 1  # deque(maxlen=...) evicts the oldest
        records.append(rec)
        if self.listener is not None:
            self.listener(rec)

    # -- loss reporting ------------------------------------------------------

    def drop_summary(self, spans_dropped: int = 0) -> str | None:
        """One-line loss report, or ``None`` when nothing was dropped.

        Every consumer that owes its operator honesty about a truncated
        trace (``repro trace``, ``repro serve`` shutdown, the service
        close log) formats the same sentence from here.  ``spans_dropped``
        is the loss of the span tracer layered over this trace, which
        keeps the same capacity.
        """
        if not self.dropped and not spans_dropped:
            return None
        spans = f" and {spans_dropped} span(s)" if spans_dropped else ""
        return (f"trace ring buffer dropped {self.dropped} record(s){spans} "
                f"(oldest first; capacity {self.capacity})")

    # -- queries -------------------------------------------------------------

    def filter(
        self,
        kind: str | None = None,
        node: str | None = None,
        predicate: Callable[[TraceRecord], bool] | None = None,
    ) -> list[TraceRecord]:
        """Records matching all the given criteria, in time order."""
        out = []
        for rec in self.records:
            if kind is not None and rec.kind != kind:
                continue
            if node is not None and rec.node != node:
                continue
            if predicate is not None and not predicate(rec):
                continue
            out.append(rec)
        return out

    def kinds(self) -> list[str]:
        """The distinct record kinds present, sorted."""
        return sorted({rec.kind for rec in self.records})

    def first(self, kind: str) -> TraceRecord | None:
        for rec in self.records:
            if rec.kind == kind:
                return rec
        return None

    def last(self, kind: str) -> TraceRecord | None:
        result = None
        for rec in self.records:
            if rec.kind == kind:
                result = rec
        return result

    def count(self, kind: str) -> int:
        return sum(1 for rec in self.records if rec.kind == kind)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def render(self, limit: int | None = None) -> str:
        """Human-readable multi-line rendering (used by the examples)."""
        if limit is None:
            shown = list(self.records)
        else:
            shown = [rec for __, rec in zip(range(limit), self.records)]
        lines = [rec.describe() for rec in shown]
        if limit is not None and len(self.records) > limit:
            lines.append(f"... ({len(self.records) - limit} more records)")
        if self.dropped:
            lines.append(f"({self.dropped} oldest records "
                         f"dropped at capacity {self.capacity})")
        return "\n".join(lines)


# -- repro/obs/spans.py at 1b9e08f ------------------------------------------

#: Attr keys of a message span, in export order, behind the five span
#: fields ``(span_id, name, node, time, link_id)`` of a message row.
_MESSAGE_ATTRS = ("msg_id", "src", "dst", "mechanism", "lamport", "direction",
                  "instance")
#: Length of a :meth:`Tracer.mark` row ``(span_id, name, category, node,
#: time, parent_id, attrs)``; a message row is 12 long.
_MARK_ROW_LEN = 7


def _message_span(row: tuple) -> Span:
    """The :class:`Span` a :meth:`Tracer.message` row stands for."""
    span_id, name, node, time, link_id = row[:5]
    attrs = dict(zip(_MESSAGE_ATTRS, row[5:]))
    if attrs["instance"] is None:
        del attrs["instance"]
    return Span(span_id, name, "message", node, time, None, attrs, link_id,
                time)


def _mark_span(row: tuple) -> Span:
    """The :class:`Span` a :meth:`Tracer.mark` row stands for."""
    span_id, name, category, node, time, parent_id, attrs = row
    return Span(span_id, name, category, node, time, parent_id, attrs, None,
                time)


def _row_span(row: Span | tuple) -> Span:
    """What one retained row reads as."""
    if row.__class__ is Span:
        return row
    if len(row) == _MARK_ROW_LEN:
        return _mark_span(row)
    return _message_span(row)


class DequeTracer:
    """Factory and registry for spans, beside the flat trace.

    Span boundaries are *not* duplicated into the flat
    :class:`~repro.runtime.trace.Trace`: an engine's protocol event becomes
    the flat record and its spans side by side (the views of
    ``repro.engines.base.EVENT_VIEWS``), and the exporters in
    :mod:`repro.obs.export` merge both.
    """

    def __init__(self, enabled: bool = True, capacity: int | None = None):
        self.enabled = enabled
        self.capacity = capacity
        #: Retained spans in id order: a :class:`Span`, or the flat row
        #: of a message or mark span (see :func:`_row_span`).
        self._rows: deque[Span | tuple] = deque(maxlen=capacity)
        self._next_id = 1
        #: Still-open children per open parent span id, for end-time
        #: clamping.  Spans born closed never enter it.
        self._open_children: dict[int, list[Span]] = {}

    # -- span lifecycle ------------------------------------------------------

    def add(
        self,
        name: str,
        category: str,
        node: str,
        start: float,
        end: float | None,
        parent: Span | None,
        link: "Span | int | None",
        attrs: dict[str, Any],
    ) -> Span:
        """Record one span; ``attrs`` becomes the span's own dict.

        The single construction path behind :meth:`start` (``end=None``)
        and :meth:`instant` (``end=start``: born closed).  The tracer
        must be enabled — the callers above gate on it.
        """
        parent_id = None
        if parent is not None and not parent.is_null:
            parent_id = parent.span_id
        if isinstance(link, Span):
            link = None if link.is_null else link.span_id
        span = Span(self._next_id, name, category, node, start, parent_id,
                    attrs, link, end)
        self._next_id += 1
        if end is None and parent_id is not None and parent.end is None:
            self._open_children.setdefault(parent_id, []).append(span)
        self._rows.append(span)
        return span

    def start(
        self,
        name: str,
        category: str,
        node: str,
        time: float,
        parent: Span | None = None,
        link: "Span | int | None" = None,
        **attrs: Any,
    ) -> Span:
        """Open a new span (returns :data:`NULL_SPAN` when disabled).

        ``link`` names a causal predecessor on another node (span or span
        id); unlike ``parent`` it does not constrain nesting.
        """
        if not self.enabled:
            return NULL_SPAN
        return self.add(name, category, node, time, None, parent, link, attrs)

    def end(self, span: Span, time: float, **attrs: Any) -> None:
        """Close ``span`` at ``time``; auto-closes open descendants first.

        The auto-close keeps the invariant that a child span never ends
        after its parent even when in-flight work (steps, compensation
        chains) is cut short by a commit or abort.
        """
        if not self.enabled or span.is_null or span.end is not None:
            return
        for child in self._open_children.pop(span.span_id, ()):
            if child.end is None:
                self.end(child, time, auto_closed=True)
        span.end = time
        if attrs:
            span.attrs.update(attrs)

    def instant(
        self,
        name: str,
        category: str,
        node: str,
        time: float,
        parent: Span | None = None,
        link: "Span | int | None" = None,
        **attrs: Any,
    ) -> Span:
        """A zero-duration span (rendered as an instant event)."""
        if not self.enabled:
            return NULL_SPAN
        return self.add(name, category, node, time, time, parent, link, attrs)

    def message(
        self,
        name: str,
        node: str,
        time: float,
        link: "Span | int | None",
        msg_id: int,
        src: str,
        dst: str,
        mechanism: str,
        lamport: int,
        direction: str,
        instance: str | None,
    ) -> int:
        """Record one message instant; returns its span id.

        Reads as ``instant(name, "message", node, time, link=link,
        msg_id=..., ..., direction=...[, instance=...])`` would; the
        tracer must be enabled.
        """
        if link is not None and link.__class__ is not int:
            link = None if link.is_null else link.span_id
        span_id = self._next_id
        self._next_id = span_id + 1
        self._rows.append((span_id, name, node, time, link, msg_id, src, dst,
                           mechanism, lamport, direction, instance))
        return span_id

    def mark(
        self,
        name: str,
        category: str,
        node: str,
        time: float,
        parent: Span | None,
        attrs: dict[str, Any],
    ) -> None:
        """Record one instant nobody holds a handle to, as a row.

        Reads as ``instant(name, category, node, time, parent=parent,
        **attrs)`` would, with ``attrs`` kept as the span's own dict; the
        tracer must be enabled.  Rule, coordination and OCR instants come
        this way: their callers never touch the span again.
        """
        parent_id = None
        if parent is not None and not parent.is_null:
            parent_id = parent.span_id
        span_id = self._next_id
        self._next_id = span_id + 1
        self._rows.append((span_id, name, category, node, time, parent_id,
                           attrs))

    def finish(self, time: float) -> int:
        """Close every still-open span at ``time``; returns how many."""
        closed = 0
        for span in self._rows:
            if span.__class__ is Span and span.end is None:
                self.end(span, time, auto_closed=True)
                closed += 1
        self._open_children.clear()
        return closed

    # -- queries -------------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Spans the ring evicted: every id allocated and not retained."""
        return self._next_id - 1 - len(self._rows)

    @property
    def spans(self) -> list[Span]:
        """The retained spans, oldest first (a fresh list per read)."""
        return [_row_span(row) for row in self._rows]

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def __len__(self) -> int:
        return len(self._rows)

    def by_category(self, category: str) -> list[Span]:
        return [s for s in self.spans if s.category == category]

    def open_spans(self) -> list[Span]:
        return [s for s in self.spans if s.end is None]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def find(self, span_id: int) -> Span | None:
        for span in self.spans:
            if span.span_id == span_id:
                return span
        return None

    def check_nesting(self) -> list[str]:
        """Violations of the parent/child interval invariant (for tests)."""
        spans = self.spans
        by_id = {s.span_id: s for s in spans}
        problems = []
        for span in spans:
            if span.parent_id is None:
                continue
            parent = by_id.get(span.parent_id)
            if parent is None:
                if span.parent_id > spans[0].span_id:
                    problems.append(f"span #{span.span_id} has unknown parent")
                continue  # older than the oldest retained span: evicted
            if span.start < parent.start:
                problems.append(
                    f"span #{span.span_id} starts before parent #{parent.span_id}"
                )
            if (span.end is not None and parent.end is not None
                    and span.end > parent.end):
                problems.append(
                    f"span #{span.span_id} ends after parent #{parent.span_id}"
                )
        return problems

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return f"<Tracer {state} spans={len(self._rows)}>"
