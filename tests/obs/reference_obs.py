"""The observability plane's engines as they were before they were
rebuilt, kept as the test oracle.

``Tracer``, ``Profiler`` and ``MetricsRegistry`` exactly as
``repro.obs.{spans,profile,registry}`` defined them at ``dc23613``: a
``dict(attrs)`` copy and an ``_open_children`` entry per span (instants
and message spans included), a ``FrameStat`` and a collapsed-path update
per pop, bucket validation and a sorted label key per look-up.
``FlightRecorder`` exactly as ``repro.obs.flight`` defined it at
``901dff7``: a 6-key dict per note.  The class bodies are verbatim; what
they build — ``Span``, ``FrameStat``, the instruments — did not change
and is imported from ``src``.  ``tests/obs/test_obs_differential.py``
drives each beside the class that replaced it with the same operations
and requires the same spans, frames, exposition text and snapshots.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Iterable, Iterator, Mapping

from repro.obs.export import US_PER_TIME_UNIT
from repro.obs.profile import EVENT_FRAMES, FrameStat
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
)
from repro.obs.spans import NULL_SPAN, Span
from repro.runtime.trace import Trace

__all__ = ["FlightRecorder", "MetricsRegistry", "Profiler", "Tracer"]


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


# -- repro/obs/profile.py ---------------------------------------------------

class Profiler:
    """Low-overhead push/pop frame profiler for the simulation stack.

    Hook sites hold a duck-typed ``profile`` attribute (``None`` by
    default); when a profiler is :meth:`install`-ed they call
    :meth:`push`/:meth:`pop` (or :meth:`begin_event`/:meth:`end_event`
    for kernel events) around their hot sections.  Self time is
    cumulative time minus time spent in child frames, so nested hooks
    (a WAL append inside a kernel event) attribute correctly.
    """

    def __init__(self, sample_interval: int = 256):
        if sample_interval < 1:
            raise ValueError("sample_interval must be >= 1")
        self._stats: dict[str, FrameStat] = {}
        #: Live stack entries: ``[stat, start_ns, child_ns, path]``.
        self._stack: list[list[Any]] = []
        self._path_cache: dict[tuple[str, str], str] = {}
        self._collapsed: dict[str, int] = {}
        #: Action -> frame-name cache keyed by code object (shared across
        #: closure instances, so the cache stays bounded).
        self._names: dict[Any, str] = {}
        self._sample_interval = sample_interval
        self._born_ns = time.perf_counter_ns()
        self.events = 0
        self.messages = 0
        self.max_queue_depth = 0
        #: ``(wall_ns, sim_time, events, messages, queue_depth)`` every
        #: ``sample_interval`` events — the Chrome counter-track source.
        self.samples: list[tuple[int, float, int, int, int]] = []

    # -- frame stack -------------------------------------------------------

    def push(self, name: str, sim_units: float = 0.0) -> None:
        """Enter a named frame (must be balanced by :meth:`pop`)."""
        stat = self._stats.get(name)
        if stat is None:
            stat = self._stats[name] = FrameStat(name)
        stat.calls += 1
        stat.sim_units += sim_units
        if self._stack:
            key = (self._stack[-1][3], name)
            path = self._path_cache.get(key)
            if path is None:
                path = self._path_cache[key] = key[0] + ";" + name
        else:
            path = name
        self._stack.append([stat, time.perf_counter_ns(), 0, path])

    def pop(self) -> None:
        """Leave the innermost frame, attributing self/cumulative time."""
        stat, start_ns, child_ns, path = self._stack.pop()
        elapsed = time.perf_counter_ns() - start_ns
        own = elapsed - child_ns
        stat.cum_ns += elapsed
        stat.self_ns += own
        self._collapsed[path] = self._collapsed.get(path, 0) + own
        if self._stack:
            self._stack[-1][2] += elapsed

    def depth(self) -> int:
        """Current live frame depth (0 when balanced — test hook)."""
        return len(self._stack)

    # -- kernel hooks ------------------------------------------------------

    def begin_event(self, action: Any, now: float, sim_dt: float,
                    queue_depth: int) -> None:
        """Kernel hook: one scheduled event is about to fire.

        ``sim_dt`` is the simulation-clock advance this event caused, so
        simulated time lands on the frame that consumed it.  The frame
        name derives from the action's ``__qualname__`` via
        :data:`EVENT_FRAMES`.
        """
        self.events += 1
        if queue_depth > self.max_queue_depth:
            self.max_queue_depth = queue_depth
        if self.events % self._sample_interval == 0:
            self.samples.append((
                time.perf_counter_ns() - self._born_ns, now,
                self.events, self.messages, queue_depth,
            ))
        func = getattr(action, "__func__", action)
        key = getattr(func, "__code__", None)
        if key is None:
            key = getattr(func, "__qualname__", None) or type(func).__name__
        name = self._names.get(key)
        if name is None:
            qual = getattr(func, "__qualname__", None) or repr(func)
            name = EVENT_FRAMES.get(qual)
            if name is None:
                name = "event:" + qual.replace(".<locals>", "")
            self._names[key] = name
        self.push(name, sim_dt)

    def end_event(self) -> None:
        """Kernel hook: the event that :meth:`begin_event` opened is done."""
        self.pop()

    # -- installation ------------------------------------------------------

    def install(self, system: Any) -> "Profiler":
        """Attach to a built control system via its duck-typed hooks.

        Sets ``profile`` on the simulator, the network and every node's
        durable-store WALs.  Components built *after* installation
        (per-instance rule engines, engines rebuilt by crash recovery)
        pick the profiler up from ``network.profile`` at construction.
        Returns ``self`` so installs chain across a sweep.
        """
        system.profiler = self
        system.simulator.profile = self
        network = system.network
        network.profile = self
        for name in network.node_names():
            node = network.node(name)
            for obj in list(vars(node).values()):
                wal = getattr(obj, "wal", None)
                if wal is not None and hasattr(wal, "appends"):
                    wal.profile = self
        return self

    # -- reporting ---------------------------------------------------------

    def top_frames(self, limit: int | None = None) -> list[FrameStat]:
        """Frames ranked by self wall time, hottest first."""
        ranked = sorted(self._stats.values(),
                        key=lambda s: s.self_ns, reverse=True)
        return ranked if limit is None else ranked[:limit]

    def total_wall_ns(self) -> int:
        """Total attributed wall time (sum of all frames' self time)."""
        return sum(s.self_ns for s in self._stats.values())

    def render_top(self, limit: int = 15) -> str:
        """Ranked top-frames table (plain text)."""
        total_self = sum(s.self_ns for s in self._stats.values()) or 1
        header = (f"{'frame':<28} {'calls':>9} {'self ms':>10} "
                  f"{'cum ms':>10} {'self %':>7} {'sim units':>11}")
        lines = [header, "-" * len(header)]
        for stat in self.top_frames(limit):
            lines.append(
                f"{stat.name:<28} {stat.calls:>9} {stat.self_ms:>10.2f} "
                f"{stat.cum_ms:>10.2f} {100 * stat.self_ns / total_self:>6.1f}% "
                f"{stat.sim_units:>11.1f}"
            )
        remaining = len(self._stats) - limit
        if remaining > 0:
            lines.append(f"... ({remaining} more frames)")
        return "\n".join(lines)

    def collapsed(self) -> str:
        """Collapsed call stacks, flamegraph-compatible.

        One ``path;to;frame <count>`` line per distinct stack, count in
        microseconds of self time — feed directly to ``flamegraph.pl``
        or speedscope.
        """
        lines = [f"{path} {max(ns // 1000, 1)}"
                 for path, ns in sorted(self._collapsed.items())
                 if ns > 0]
        return "\n".join(lines)

    def chrome_counter_events(self) -> list[dict[str, Any]]:
        """Chrome trace-event counter tracks (``"ph": "C"``).

        Timestamps use *wall* time so tracks stay monotone when one
        profiler spans several sequential runs (a full sweep), unlike the
        per-run simulated clock.
        """
        events: list[dict[str, Any]] = []
        prev: tuple[int, float, int, int, int] | None = None
        for sample in self.samples:
            wall_ns, sim_time, n_events, n_messages, depth = sample
            ts = wall_ns / 1000.0
            events.append({"name": "queue_depth", "ph": "C", "pid": 1,
                           "ts": ts, "args": {"pending": depth}})
            events.append({"name": "messages", "ph": "C", "pid": 1,
                           "ts": ts, "args": {"sent": n_messages}})
            events.append({"name": "sim_time", "ph": "C", "pid": 1,
                           "ts": ts,
                           "args": {"t": round(sim_time * US_PER_TIME_UNIT)}})
            if prev is not None and wall_ns > prev[0]:
                rate = (n_events - prev[2]) / ((wall_ns - prev[0]) / 1e9)
                events.append({"name": "events_per_sec", "ph": "C", "pid": 1,
                               "ts": ts, "args": {"rate": round(rate, 1)}})
            prev = sample
        return events

    def chrome_counter_trace(self) -> dict[str, Any]:
        """A standalone Chrome trace document of the counter tracks."""
        meta = {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                "args": {"name": "crew-profile"}}
        return {"traceEvents": [meta, *self.chrome_counter_events()],
                "displayTimeUnit": "ms"}

    def summary(self) -> dict[str, Any]:
        """JSON-safe aggregate view (frames ranked, counters, samples)."""
        return {
            "events": self.events,
            "messages": self.messages,
            "max_queue_depth": self.max_queue_depth,
            "messages_per_event": round(self.messages / self.events, 4)
            if self.events else 0.0,
            "frames": [s.as_dict() for s in self.top_frames()],
            "samples": len(self.samples),
        }

    def publish(self, registry: MetricsRegistry) -> None:
        """Flow the aggregated profile into a metrics registry.

        Per-frame counters carry a ``frame`` label so the Prometheus
        exposition renders one series per subsystem.
        """
        for stat in self.top_frames():
            registry.counter(
                "crew_profile_frame_calls_total",
                "Profiler frame entries.", frame=stat.name,
            ).inc(stat.calls)
            registry.counter(
                "crew_profile_frame_self_seconds_total",
                "Self wall time attributed to a profiler frame.",
                frame=stat.name,
            ).inc(stat.self_ns / 1e9)
            registry.counter(
                "crew_profile_frame_cum_seconds_total",
                "Cumulative wall time attributed to a profiler frame.",
                frame=stat.name,
            ).inc(stat.cum_ns / 1e9)
            registry.counter(
                "crew_profile_frame_sim_units_total",
                "Simulated time attributed to a profiler frame.",
                frame=stat.name,
            ).inc(stat.sim_units)
        registry.counter(
            "crew_profile_events_total", "Kernel events profiled.",
        ).inc(self.events)
        registry.counter(
            "crew_profile_messages_total", "Transport sends profiled.",
        ).inc(self.messages)
        registry.gauge(
            "crew_profile_max_queue_depth",
            "Deepest kernel event queue observed while profiling.",
        ).set(self.max_queue_depth)
        if self.events:
            registry.gauge(
                "crew_profile_messages_per_event",
                "Mean transport sends per kernel event (messages-per-tick).",
            ).set(self.messages / self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Profiler frames={len(self._stats)} events={self.events} "
                f"depth={len(self._stack)}>")


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
