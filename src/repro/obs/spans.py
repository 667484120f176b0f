"""Span-based tracing with parent/child causality.

A :class:`Span` is a named interval of simulated time attributed to one
node, with an optional parent span.  The standard categories emitted by
the engines are:

``workflow``
    One span per workflow instance, from WorkflowStart to commit/abort.
``step``
    One span per step dispatch, from the engine sending StepExecute (or a
    distributed agent launching the program) to the result landing.
``recovery``
    A recovery episode: opened at rollback, closed when the rollback
    origin re-completes (or at instance end), plus compensation chains.
``coordination``
    A coordination round: clearance reports, lock traffic, broadcasts.
``rule``
    An (instant) span per ECA rule firing.

Invariant: **a child span never ends after its parent.**  Ending a span
auto-closes any still-open descendants at the parent's end time, so the
span tree is always well nested and Chrome trace viewers render it
without overlap errors.

Cross-node causality uses *links*, not parentage: a span may carry a
``link_id`` naming the span that caused it on another node (the send side
of a network message).  Links are free of the nesting invariant — a
receive span may outlive the long-closed send span that caused it — so
the span *tree* stays per-node while the link mesh spans the deployment.

The tracer is deliberately cheap when disabled: :meth:`Tracer.start`
returns the shared :data:`NULL_SPAN` and every other operation is a no-op,
so hot paths can call it unconditionally.  Enabled, a span costs one
:class:`Span` and the attrs dict its caller built: :meth:`Tracer.add` is
the one construction path, and ``start`` / ``instant`` hand it their
attrs without a copy.  A message span — two per physical message, most of
what a run records — costs less still: :meth:`Tracer.message` keeps it as
one flat tuple of its fields, and it becomes a :class:`Span` only when
somebody reads ``tracer.spans``.  An instant its caller never touches
again (a rule firing, a coordination round, an OCR decision) is a row
too: :meth:`Tracer.mark` keeps its fields and attrs dict in one tuple.

The tracer keeps what fits: under a ``capacity`` it is a ring like the
flat :class:`~repro.runtime.trace.Trace` — the oldest spans are evicted
when full — and ``dropped`` counts the loss.  Span ids are allocated in
creation order and the ring evicts in that order, so a ``parent_id`` /
``link_id`` older than the oldest retained span names an evicted span,
not a broken chain.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterator

__all__ = ["NULL_SPAN", "Span", "SpanContext", "Tracer"]


@dataclass(frozen=True)
class SpanContext:
    """Immutable identity of a span (propagatable across nodes)."""

    span_id: int
    parent_id: int | None = None


class Span:
    """A named, attributed interval of simulation time."""

    __slots__ = ("attrs", "category", "end", "link_id", "name", "node",
                 "span_id", "parent_id", "start")

    is_null = False

    def __init__(
        self,
        span_id: int,
        name: str,
        category: str,
        node: str,
        start: float,
        parent_id: int | None = None,
        attrs: dict[str, Any] | None = None,
        link_id: int | None = None,
        end: float | None = None,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.link_id = link_id
        self.name = name
        self.category = category
        self.node = node
        self.start = start
        self.end = end
        self.attrs: dict[str, Any] = attrs if attrs is not None else {}

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.span_id, self.parent_id)

    @property
    def open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> float:
        """Elapsed simulated time (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def annotate(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.open else f"dur={self.duration:.3f}"
        return (f"<Span #{self.span_id} {self.category}:{self.name} "
                f"@{self.node} t={self.start:.3f} {state}>")


class _NullSpan(Span):
    """Shared sentinel returned by a disabled tracer.  All ops no-op."""

    is_null = True

    def __init__(self) -> None:
        super().__init__(-1, "null", "null", "", 0.0)

    def annotate(self, **attrs: Any) -> "Span":
        return self


NULL_SPAN = _NullSpan()

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


class Tracer:
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
