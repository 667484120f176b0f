"""Structured trace log for simulations.

Workflow enactment is event-soup by nature; when a distributed rollback
interleaves with in-flight packets the only way to understand (or test)
what happened is a totally-ordered trace.  :class:`Trace` records
``(time, node, kind, detail)`` tuples and supports filtered queries, which
the integration tests use to assert protocol-level orderings (e.g. "all
HaltThread probes precede the first re-execution packet").
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterator, Mapping, NamedTuple

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

    When ``capacity`` is set, the default policy drops the *newest*
    records once full (the historical behaviour, cheapest and safest for
    post-mortem analysis of a run's beginning).  ``ring=True`` switches
    to a ring buffer that evicts the *oldest* records instead, keeping
    the most recent window — the right mode for long-running soak tests
    where only the tail matters.  Either way ``dropped`` counts how many
    records were lost.
    """

    def __init__(
        self,
        enabled: bool = True,
        capacity: int | None = None,
        ring: bool = False,
    ):
        self.enabled = enabled
        self.capacity = capacity
        self.ring = ring
        if ring and capacity is not None:
            self.records: deque[TraceRecord] | list[TraceRecord] = deque(
                maxlen=capacity
            )
        else:
            self.records = []
        self.dropped = 0
        #: Optional tap called with each appended :class:`TraceRecord`
        #: (the serve front door streams live events through this).
        self.listener: Callable[[TraceRecord], None] | None = None

    def record(self, time: float, node: str, kind: str, **detail: Any) -> None:
        if not self.enabled:
            return
        if self.capacity is not None and len(self.records) >= self.capacity:
            self.dropped += 1
            if not self.ring:
                return
            # deque(maxlen=...) evicts the oldest record on append.
        rec = TraceRecord(time, node, kind, detail)
        self.records.append(rec)
        if self.listener is not None:
            self.listener(rec)

    def snapshot(self, time: float, node: str, kind: str, **detail: Any) -> None:
        """Record unconditionally, bypassing ``enabled`` and ``capacity``.

        Post-mortem dumps (flight-recorder snapshots on crash or step
        failure) must land even in benchmark runs with tracing off — a
        flight recorder that vanishes exactly when you need it is
        worthless.  Snapshots are rare, so the capacity policy is not
        consulted — but a ring-mode deque at capacity still evicts its
        oldest record on append, and that loss must be *counted*: a
        truncated trace that looks complete is worse than a short one.
        """
        if (self.ring and self.capacity is not None
                and len(self.records) >= self.capacity):
            self.dropped += 1
        rec = TraceRecord(time, node, kind, detail)
        self.records.append(rec)
        if self.listener is not None:
            self.listener(rec)

    # -- loss reporting ------------------------------------------------------

    @property
    def drop_policy(self) -> str:
        """Which end the capacity policy sacrifices: oldest or newest."""
        return "oldest" if self.ring else "newest"

    def drop_summary(self, spans_dropped: int = 0) -> str | None:
        """One-line loss report, or ``None`` when nothing was dropped.

        Every consumer that owes its operator honesty about a truncated
        trace (``repro trace``, ``repro serve`` shutdown, the service
        close log) formats the same sentence from here.  ``spans_dropped``
        is the loss of the span tracer layered over this trace, which
        obeys the same capacity and policy.
        """
        if not self.dropped and not spans_dropped:
            return None
        spans = f" and {spans_dropped} span(s)" if spans_dropped else ""
        return (f"trace ring buffer dropped {self.dropped} record(s){spans} "
                f"({self.drop_policy} first; capacity {self.capacity})")

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
            lines.append(f"({self.dropped} {self.drop_policy} records "
                         f"dropped at capacity {self.capacity})")
        return "\n".join(lines)
