"""The observability plane's engines as they were before they were
rebuilt, kept as the test oracle.

``Tracer`` and ``MetricsRegistry`` exactly as ``repro.obs.{spans,
registry}`` defined them at ``dc23613``: a ``dict(attrs)`` copy and an
``_open_children`` entry per span (instants and message spans included),
bucket validation and a sorted label key per look-up.
``FlightRecorder`` exactly as ``repro.obs.flight`` defined it at
``901dff7``: a 6-key dict per note.  The class bodies are verbatim; what
they build — ``Span``, the instruments — did not change and is
imported from ``src``.  ``tests/obs/test_obs_differential.py`` drives
each beside the class that replaced it with the same operations and
requires the same spans, exposition text and snapshots.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, Iterator, Mapping

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
)
from repro.obs.spans import NULL_SPAN, Span
from repro.runtime.trace import Trace

__all__ = ["FlightRecorder", "MetricsRegistry", "Tracer"]


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
