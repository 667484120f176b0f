"""In-engine instrumentation profiler attributing cost to subsystem frames.

``cProfile`` answers "which Python function is hot" but not "which
*subsystem* is hot" — a six-config sweep spends its time across the DES
kernel, the transport, the rule engine, the WAL and the recovery
protocols, and the function-level view shreds those into hundreds of
rows.  :class:`Profiler` instead maintains an explicit frame stack of
*named subsystem frames* (``kernel.event``, ``transport.send``,
``rules.pump``, ``wal.append``, ``dispatch.wi``, ``recovery.ocr``, ...)
pushed and popped at the same duck-typed observation points the metrics
registry and fault injector already use, so ``sim``/``rules``/``storage``
stay free of ``obs`` imports and the disabled mode costs one ``is None``
branch per hook (guarded by ``benchmarks/bench_obs_overhead.py``).

Each frame accumulates call count, cumulative and self wall time
(``perf_counter_ns``), and *simulated* time — kernel event frames are
credited with the simulation-clock advance they caused, so the profile
answers both "where does wall time go" and "where does simulated time
go".  The frames live in a call tree: ``push`` steps to the child of the
current frame with that name and ``pop`` adds the elapsed time to it, so
the per-name table (:class:`FrameStat`) and the collapsed call paths
(flamegraph format) are both folded from the tree when they are read,
not maintained per call.  The profiler also keeps a window of periodic
samples for Chrome counter tracks and transport/queue-depth counters,
and can publish everything into a
:class:`~repro.obs.registry.MetricsRegistry` for the Prometheus exporter.

One profiler may be installed across several systems in sequence (a full
sweep); frames simply accumulate.
"""

from __future__ import annotations

import functools
from collections import deque
from time import perf_counter_ns
from typing import Any, Callable, Iterator

from repro.obs.export import US_PER_TIME_UNIT
from repro.obs.registry import MetricsRegistry

try:  # pragma: no cover - absent only off-POSIX
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None

__all__ = ["EVENT_FRAMES", "FrameStat", "Profiler", "peak_rss_kb", "profiled"]

#: Counter-track samples kept (the newest); one is taken every
#: ``sample_interval`` kernel events.
SAMPLE_WINDOW = 16_384


def profiled(frame_name: str) -> Callable:
    """Decorator running a node method inside a named profiler frame.

    For engine-layer methods on objects with a ``network`` attribute:
    when ``network.profile`` is a :class:`Profiler` the call is bracketed
    by ``push(frame_name)``/``pop``; when it is ``None`` (the default)
    the only cost is one attribute read and an extra call — acceptable
    off the transport/kernel hot paths the <5% gate covers.
    """
    def wrap(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def inner(self: Any, *args: Any, **kwargs: Any) -> Any:
            profile = self.network.profile
            if profile is None:
                return fn(self, *args, **kwargs)
            profile.push(frame_name)
            try:
                return fn(self, *args, **kwargs)
            finally:
                profile.pop()
        return inner
    return wrap


def peak_rss_kb() -> int | None:
    """Peak resident-set size of this process in KiB (``None`` off-POSIX).

    ``ru_maxrss`` is a high-water mark: per-task readings taken in
    sequence are monotone, so a task's value means "peak RSS of the
    worker *by the end of* this task".
    """
    if _resource is None:
        return None
    return int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)


#: Scheduled-action ``__qualname__``s mapped to canonical subsystem frame
#: names.  Anything not listed profiles as ``event:<qualname>`` — new
#: event types degrade to legible names instead of vanishing.
EVENT_FRAMES = {
    "Network._arrive": "transport.arrive",
    "Node.schedule_causal.<locals>.run": "kernel.deferred",
    "ControlSystem.schedule_frontend.<locals>.attempt": "frontend.submit",
    "AgentNavigationMixin._complete_program": "program.complete",
    "ApplicationAgentNode._complete_step": "program.complete",
    "ApplicationAgentNode._complete_compensation": "program.compensate",
    "AgentFailureMixin._watchdog": "recovery.watchdog",
    # Wall-clock runtime: a step's service time is over and its work runs
    # (``_begin``), or it runs after an injected stall or a retry backoff.
    "TaskExecutor._begin": "executor.step",
    "TaskExecutor._attempt": "executor.attempt",
}


class FrameStat:
    """Aggregate cost of one named subsystem frame (one profile row)."""

    __slots__ = ("name", "calls", "cum_ns", "self_ns", "sim_units")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.cum_ns = 0
        self.self_ns = 0
        self.sim_units = 0.0

    @property
    def self_ms(self) -> float:
        return self.self_ns / 1e6

    @property
    def cum_ms(self) -> float:
        return self.cum_ns / 1e6

    def as_dict(self) -> dict[str, Any]:
        return {
            "frame": self.name,
            "calls": self.calls,
            "self_ms": round(self.self_ms, 3),
            "cum_ms": round(self.cum_ms, 3),
            "sim_units": round(self.sim_units, 3),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FrameStat {self.name} calls={self.calls} "
                f"self={self.self_ms:.1f}ms>")


class _Frame:
    """One call-tree node: a frame name under one particular caller path.

    A node is live at most once at a time (the live stack is one root-to-
    node path), so the running activation's ``start_ns`` / ``child_ns``
    sit on the node itself.
    """

    __slots__ = ("name", "parent", "children", "calls", "cum_ns", "self_ns",
                 "sim_units", "start_ns", "child_ns")

    def __init__(self, name: str, parent: "_Frame | None"):
        self.name = name
        self.parent = parent
        self.children: dict[str, _Frame] = {}
        self.calls = 0
        self.cum_ns = 0
        self.self_ns = 0
        self.sim_units = 0.0
        self.start_ns = 0
        self.child_ns = 0


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
        #: Call-tree root (never a frame itself) and the innermost live
        #: frame — the root again whenever the stack is balanced.
        self._root = _Frame("", None)
        self._top = self._root
        #: Frame names in first-push order (the rank of equal self times).
        self._order: list[str] = []
        #: Action -> frame-name cache keyed by code object (shared across
        #: closure instances, so the cache stays bounded).
        self._names: dict[Any, str] = {}
        self._sample_interval = sample_interval
        self._born_ns = perf_counter_ns()
        self.events = 0
        self.messages = 0
        self.max_queue_depth = 0
        #: ``(wall_ns, sim_time, events, messages, queue_depth)`` every
        #: ``sample_interval`` events, newest :data:`SAMPLE_WINDOW` kept —
        #: the Chrome counter-track source.
        self.samples: deque[tuple[int, float, int, int, int]] = deque(
            maxlen=SAMPLE_WINDOW)

    # -- frame stack -------------------------------------------------------

    def push(self, name: str, sim_units: float = 0.0) -> None:
        """Enter a named frame (must be balanced by :meth:`pop`)."""
        top = self._top
        frame = top.children.get(name)
        if frame is None:
            frame = top.children[name] = _Frame(name, top)
            if name not in self._order:
                self._order.append(name)
        frame.calls += 1
        frame.sim_units += sim_units
        frame.child_ns = 0
        self._top = frame
        frame.start_ns = perf_counter_ns()

    def pop(self) -> None:
        """Leave the innermost frame, attributing self/cumulative time."""
        frame = self._top
        elapsed = perf_counter_ns() - frame.start_ns
        parent = frame.parent
        if parent is None:
            raise IndexError("pop from an empty frame stack")
        frame.cum_ns += elapsed
        frame.self_ns += elapsed - frame.child_ns
        parent.child_ns += elapsed
        self._top = parent

    def depth(self) -> int:
        """Current live frame depth (0 when balanced — test hook)."""
        depth = 0
        frame = self._top
        while frame.parent is not None:
            depth += 1
            frame = frame.parent
        return depth

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
                perf_counter_ns() - self._born_ns, now,
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

    #: Kernel hook: the event that :meth:`begin_event` opened is done.
    end_event = pop

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

    def _walk(self) -> Iterator[tuple[str, _Frame]]:
        """Every call-tree node with its ``;``-joined path from the root."""
        pending = list(self._root.children.items())
        while pending:
            path, frame = pending.pop()
            yield path, frame
            pending.extend((f"{path};{name}", child)
                           for name, child in frame.children.items())

    def _fold(self) -> dict[str, FrameStat]:
        """The per-name frame table: each name summed over its tree nodes."""
        stats = {name: FrameStat(name) for name in self._order}
        for __, frame in self._walk():
            stat = stats[frame.name]
            stat.calls += frame.calls
            stat.cum_ns += frame.cum_ns
            stat.self_ns += frame.self_ns
            stat.sim_units += frame.sim_units
        return stats

    def top_frames(self, limit: int | None = None) -> list[FrameStat]:
        """Frames ranked by self wall time, hottest first."""
        ranked = sorted(self._fold().values(),
                        key=lambda s: s.self_ns, reverse=True)
        return ranked if limit is None else ranked[:limit]

    def total_wall_ns(self) -> int:
        """Total attributed wall time (sum of all frames' self time)."""
        return sum(frame.self_ns for __, frame in self._walk())

    def render_top(self, limit: int = 15) -> str:
        """Ranked top-frames table (plain text)."""
        total_self = self.total_wall_ns() or 1
        header = (f"{'frame':<28} {'calls':>9} {'self ms':>10} "
                  f"{'cum ms':>10} {'self %':>7} {'sim units':>11}")
        lines = [header, "-" * len(header)]
        for stat in self.top_frames(limit):
            lines.append(
                f"{stat.name:<28} {stat.calls:>9} {stat.self_ms:>10.2f} "
                f"{stat.cum_ms:>10.2f} {100 * stat.self_ns / total_self:>6.1f}% "
                f"{stat.sim_units:>11.1f}"
            )
        remaining = len(self._order) - limit
        if remaining > 0:
            lines.append(f"... ({remaining} more frames)")
        return "\n".join(lines)

    def collapsed(self) -> str:
        """Collapsed call stacks, flamegraph-compatible.

        One ``path;to;frame <count>`` line per distinct stack, count in
        microseconds of self time — feed directly to ``flamegraph.pl``
        or speedscope.
        """
        lines = [f"{path} {max(frame.self_ns // 1000, 1)}"
                 for path, frame in sorted(self._walk(), key=lambda row: row[0])
                 if frame.self_ns > 0]
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
        return (f"<Profiler frames={len(self._order)} events={self.events} "
                f"depth={self.depth()}>")
