"""Structured trace log for simulations.

Workflow enactment is event-soup by nature; when a distributed rollback
interleaves with in-flight packets the only way to understand (or test)
what happened is a totally-ordered trace.  :class:`Trace` records one row
per event — its time, node, kind and detail — and supports filtered
queries, which the integration tests use to assert protocol-level
orderings (e.g. "all HaltThread probes precede the first re-execution
packet").  A row is kept in the columns of a
:class:`~repro.runtime.ring.ColumnRing`; the :class:`TraceRecord` it
stands for is built when somebody reads it.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping, NamedTuple

from repro.runtime.ring import ColumnRing

__all__ = ["Trace", "TraceRecord"]


class TraceRecord(NamedTuple):
    """A single trace entry."""

    time: float
    node: str
    kind: str
    detail: Mapping[str, Any]

    def describe(self) -> str:
        parts = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"[{self.time:9.3f}] {self.node:<14} {self.kind:<22} {parts}"


class Trace:
    """An append-only, queryable event trace.

    Tracing can be disabled (``enabled=False``) to remove overhead from
    large benchmark runs; ``record`` then becomes a no-op.

    The records are a ring: once ``capacity`` records are held, each
    append evicts the oldest, so a long-running daemon keeps its most
    recent window and a bounded memory.  ``dropped`` counts the evicted
    records.  Without a ``capacity`` the trace is unbounded.

    A record is a row of two columns — its time, unboxed, and its shape:
    one ``(node, kind, detail keys)`` tuple shared by every record with
    the same three — and its detail values, by reference and in key
    order, in the ring's value list.  No object is kept per record:
    :attr:`records`, iteration and the queries build the
    :class:`TraceRecord` of each row they return (a fresh ``detail`` dict
    each time), and times read back as floats.
    """

    def __init__(self, enabled: bool = True, capacity: int | None = None):
        self.enabled = enabled
        self.capacity = capacity
        #: time, shape (see the class docstring).
        self._ring = ColumnRing("dO", capacity)
        #: ``(node, kind, *detail keys)`` -> the shared shape.
        self._shapes: dict[tuple, tuple[str, str, tuple[str, ...]]] = {}
        #: Optional tap called with each appended :class:`TraceRecord`
        #: (the serve front door streams live events through this).
        self.listener: Callable[[TraceRecord], None] | None = None

    @property
    def dropped(self) -> int:
        """Records the ring evicted."""
        return self._ring.first

    def record(self, time: float, node: str, kind: str, **detail: Any) -> None:
        if self.enabled:
            self._append(time, node, kind, detail)

    def snapshot(self, time: float, node: str, kind: str, **detail: Any) -> None:
        """Record unconditionally, bypassing ``enabled``.

        Post-mortem dumps (flight-recorder snapshots on crash or step
        failure) must land even in benchmark runs with tracing off — a
        flight recorder that vanishes exactly when you need it is
        worthless.  A snapshot into a full ring evicts like any record,
        and the loss is counted: a truncated trace that looks complete is
        worse than a short one.
        """
        self._append(time, node, kind, detail)

    def _append(self, time: float, node: str, kind: str,
                detail: dict[str, Any]) -> None:
        key = (node, kind, *detail)
        shape = self._shapes.get(key)
        if shape is None:
            shape = self._shapes[key] = (node, kind, key[2:])
        chunk, slot = self._ring.claim()
        chunk[0][slot] = time
        chunk[1][slot] = shape
        chunk[2].extend(detail.values())
        if self.listener is not None:
            self.listener(TraceRecord(time, node, kind, detail))

    def _scan(self, kind: str | None = None,
              node: str | None = None) -> Iterator[TraceRecord]:
        """The records of ``kind`` at ``node`` (any when ``None``), oldest
        first; only those are built."""
        for chunk, lo, hi, __ in self._ring.segments():
            times, shapes, values = chunk
            at = sum(len(shapes[slot][2]) for slot in range(lo))
            for slot in range(lo, hi):
                at_node, at_kind, keys = shapes[slot]
                end = at + len(keys)
                if ((kind is None or at_kind == kind)
                        and (node is None or at_node == node)):
                    yield TraceRecord(times[slot], at_node, at_kind,
                                      dict(zip(keys, values[at:end])))
                at = end

    def _kinds(self) -> Iterator[str]:
        """The retained rows' kinds, oldest first."""
        for chunk, lo, hi, __ in self._ring.segments():
            for shape in chunk[1][lo:hi]:
                yield shape[1]

    @property
    def records(self) -> list[TraceRecord]:
        """The retained records, oldest first (a fresh list per read)."""
        return list(self._scan())

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
        return [rec for rec in self._scan(kind, node)
                if predicate is None or predicate(rec)]

    def kinds(self) -> list[str]:
        """The distinct record kinds present, sorted."""
        return sorted(set(self._kinds()))

    def first(self, kind: str) -> TraceRecord | None:
        return next(self._scan(kind), None)

    def last(self, kind: str) -> TraceRecord | None:
        result = None
        for result in self._scan(kind):
            pass
        return result

    def count(self, kind: str) -> int:
        return sum(1 for each in self._kinds() if each == kind)

    def __iter__(self) -> Iterator[TraceRecord]:
        return self._scan()

    def __len__(self) -> int:
        return len(self._ring)

    def render(self, limit: int | None = None) -> str:
        """Human-readable multi-line rendering (used by the examples)."""
        if limit is None:
            shown = self.records
        else:
            shown = [rec for __, rec in zip(range(limit), self._scan())]
        lines = [rec.describe() for rec in shown]
        if limit is not None and len(self) > limit:
            lines.append(f"... ({len(self) - limit} more records)")
        if self.dropped:
            lines.append(f"({self.dropped} oldest records "
                         f"dropped at capacity {self.capacity})")
        return "\n".join(lines)
