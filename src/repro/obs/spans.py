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
so hot paths can call it unconditionally.  Enabled, it keeps every span as
one row of a :class:`~repro.runtime.ring.ColumnRing` (the layout is in
:class:`Tracer`): times and ids unboxed, everything else by reference,
with what many rows share — a category, node and attr keys; a message's
name, ends, mechanism and direction — in one tuple per distinct value.
A span still open is the exception: its row holds the :class:`Span`
object its caller closes, and :meth:`Tracer.end` moves it into the
columns.  A message span — two per physical message, most of what a run
records — goes straight into its row from :meth:`Tracer.message`; so
does an instant its caller never touches again (a rule firing, a
coordination round, an OCR decision) through :meth:`Tracer.mark`.  A
closed span becomes a :class:`Span` again only when somebody reads it
(``tracer.spans``, iteration, :meth:`Tracer.find`: a fresh object per
read), and :meth:`Span.annotate` on a closed span rewrites its row.

The tracer keeps what fits: under a ``capacity`` it is a ring like the
flat :class:`~repro.runtime.trace.Trace` — the oldest spans are evicted
when full — and ``dropped`` counts the loss.  Span ids are allocated in
creation order and the ring evicts in that order, so a span's id is its
row's position, and a ``parent_id`` / ``link_id`` older than the oldest
retained span names an evicted span, not a broken chain.  Span ids start
at 1; a parent or link id of 0 reads back as none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, NamedTuple

from repro.runtime.ring import ColumnRing

__all__ = ["NULL_SPAN", "Span", "SpanContext", "Tracer"]


@dataclass(frozen=True)
class SpanContext:
    """Immutable identity of a span (propagatable across nodes)."""

    span_id: int
    parent_id: int | None = None


class Span:
    """A named, attributed interval of simulation time."""

    __slots__ = ("_tracer", "attrs", "category", "end", "link_id", "name",
                 "node", "span_id", "parent_id", "start")

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
        #: The tracer whose row this span is, once it is one.
        self._tracer: Tracer | None = None

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
        if self.end is not None and self._tracer is not None:
            self._tracer._store(self)  # a closed span lives in its row
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

class _Wire(NamedTuple):
    """What the message rows between two nodes share (the rest of a
    message row is its time, link, msg id, Lamport clock and instance)."""

    name: str
    node: str
    src: str
    dst: str
    mechanism: str
    direction: str


class Tracer:
    """Factory and registry for spans, beside the flat trace.

    Span boundaries are *not* duplicated into the flat
    :class:`~repro.runtime.trace.Trace`: an engine's protocol event becomes
    the flat record and its spans side by side (the views of
    ``repro.engines.base.EVENT_VIEWS``), and the exporters in
    :mod:`repro.obs.export` merge both.

    A span is row ``span_id - 1`` of the ring, whose columns mean what the
    row's shape (column 5) says:

    ======  ===================  =========================================
    column  message row          any other span
    ======  ===================  =========================================
    0 'd'   time                 start
    1 'd'   —                    end
    2 'q'   link id              link id
    3 'q'   msg id               parent id
    4 'q'   Lamport clock        where its attr values start (value list)
    5 'O'   a :class:`_Wire`     ``(category, node, attr keys)``, or the
                                 :class:`Span` itself while it is open
    6 'O'   instance (or None)   name
    ======  ===================  =========================================

    An id column holds 0 for "none".  Shapes and wires are shared by
    every row with the same ones.
    """

    def __init__(self, enabled: bool = True, capacity: int | None = None):
        self.enabled = enabled
        self.capacity = capacity
        self._ring = ColumnRing("ddqqqOO", capacity)
        #: ``(category, node, *attr keys)`` -> the shared shape.
        self._shapes: dict[tuple, tuple[str, str, tuple[str, ...]]] = {}
        #: ``_Wire`` fields -> the shared wire.
        self._wires: dict[tuple, _Wire] = {}
        #: Still-open children per open parent span id, for end-time
        #: clamping.  Spans born closed never enter it.
        self._open_children: dict[int, list[Span]] = {}

    # -- rows ----------------------------------------------------------------

    def _fill(self, chunk: list, slot: int, name: str, category: str, node: str,
              start: float, end: float, parent_id: int | None, link_id: int | None,
              attrs: dict[str, Any]) -> None:
        """Write the row of a closed span."""
        key = (category, node, *attrs)
        shape = self._shapes.get(key)
        if shape is None:
            shape = self._shapes[key] = (category, node, key[2:])
        values = chunk[7]
        chunk[0][slot] = start
        chunk[1][slot] = end
        if link_id:
            chunk[2][slot] = link_id
        if parent_id:
            chunk[3][slot] = parent_id
        chunk[4][slot] = len(values)
        chunk[5][slot] = shape
        chunk[6][slot] = name
        values.extend(attrs.values())

    def _store(self, span: Span) -> None:
        """Move a closed span into its row, unless the ring evicted it."""
        at = self._ring.locate(span.span_id - 1)
        if at is not None:
            self._fill(*at, span.name, span.category, span.node, span.start, span.end,
                       span.parent_id, span.link_id, span.attrs)

    def _read(self, chunk: list, slot: int, span_id: int) -> Span:
        """The :class:`Span` a row stands for."""
        shape = chunk[5][slot]
        if shape.__class__ is Span:
            return shape  # still open
        start = end = chunk[0][slot]
        if shape.__class__ is _Wire:
            name, category, node, parent_id = shape.name, "message", shape.node, None
            attrs = {"msg_id": chunk[3][slot], "src": shape.src, "dst": shape.dst,
                     "mechanism": shape.mechanism, "lamport": chunk[4][slot],
                     "direction": shape.direction}
            instance = chunk[6][slot]
            if instance is not None:
                attrs["instance"] = instance
        else:
            category, node, keys = shape
            name, end, parent_id = chunk[6][slot], chunk[1][slot], chunk[3][slot] or None
            at = chunk[4][slot]
            attrs = dict(zip(keys, chunk[7][at:at + len(keys)]))
        span = Span(span_id, name, category, node, start, parent_id, attrs,
                    chunk[2][slot] or None, end)
        span._tracer = self
        return span

    def _spans(self) -> Iterator[Span]:
        for chunk, lo, hi, index in self._ring.segments():
            for slot in range(lo, hi):
                index += 1
                yield self._read(chunk, slot, index)

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
        ring = self._ring
        span = Span(ring.next + 1, name, category, node, start, parent_id,
                    attrs, link, end)
        span._tracer = self
        chunk, slot = ring.claim()
        if end is None:
            chunk[5][slot] = span
            if parent_id is not None and parent.end is None:
                self._open_children.setdefault(parent_id, []).append(span)
        else:
            self._fill(chunk, slot, name, category, node, start, end, parent_id, link,
                       attrs)
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
        if span._tracer is self:
            self._store(span)

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
        key = (name, node, src, dst, mechanism, direction)
        wire = self._wires.get(key)
        if wire is None:
            wire = self._wires[key] = _Wire(*key)
        ring = self._ring
        chunk, slot = ring.claim()
        chunk[0][slot] = time
        if link is not None:
            chunk[2][slot] = link
        chunk[3][slot] = msg_id
        chunk[4][slot] = lamport
        chunk[5][slot] = wire
        chunk[6][slot] = instance
        return ring.next

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
        **attrs)`` would, without the :class:`Span` ``instant`` builds;
        the tracer must be enabled.  Rule, coordination and OCR instants
        come this way: their callers never touch the span again.
        """
        parent_id = None
        if parent is not None and not parent.is_null:
            parent_id = parent.span_id
        self._fill(*self._ring.claim(), name, category, node, time, time, parent_id,
                   None, attrs)

    def finish(self, time: float) -> int:
        """Close every still-open span at ``time``; returns how many."""
        closed = 0
        for chunk, lo, hi, __ in self._ring.segments():
            shapes = chunk[5]
            for slot in range(lo, hi):
                span = shapes[slot]
                if span.__class__ is Span and span.end is None:
                    self.end(span, time, auto_closed=True)
                    closed += 1
        self._open_children.clear()
        return closed

    # -- queries -------------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Spans the ring evicted: every id allocated and not retained."""
        return self._ring.first

    @property
    def spans(self) -> list[Span]:
        """The retained spans, oldest first (a fresh list per read)."""
        return list(self._spans())

    def __iter__(self) -> Iterator[Span]:
        return self._spans()

    def __len__(self) -> int:
        return len(self._ring)

    def by_category(self, category: str) -> list[Span]:
        return [s for s in self.spans if s.category == category]

    def open_spans(self) -> list[Span]:
        return [s for s in self.spans if s.end is None]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def find(self, span_id: int) -> Span | None:
        at = self._ring.locate(span_id - 1)
        return None if at is None else self._read(*at, span_id)

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
        return f"<Tracer {state} spans={len(self)}>"
