"""A CPU-time stack sampler whose rows are the layers of the design.

``cProfile`` answers "which Python function is hot" but not "which layer
is hot".  :class:`Profiler` answers the second by sampling.  While one
runs, ``signal.setitimer(ITIMER_PROF)`` raises ``SIGPROF`` after every
:data:`SAMPLE_PERIOD` of process CPU time, and the handler charges the
sample to the innermost frame whose code lives under ``src/repro/``.  One
table, :data:`LAYERS`, maps that frame's file to a DESIGN §4 layer, so
a profile is a ranked table over the layers the design already names,
with no catch-all row and no hook in the code it measures.  The one row
that is not a set of files is ``loop``: a sample that meets the asyncio
loop's dispatch frame (:data:`LOOP_ENTRIES`) before any package frame is
the loop's own work — polling the selector, reading sockets, resolving
futures — and not the work of the package frame that runs the loop
(``cli:cmd_serve`` in the daemon).  Each sample
also keeps its stack of ``module:function`` names (flamegraph input), and
each tick reads the counter track — clock time, events fired, messages
sent, queue depth — off the counters of the system the profiler watches.

Signals reach the main thread only, so the stacks are the main thread's;
the CPU time charged to a layer is the whole process's between two
ticks, garbage collection included.  ``ITIMER_PROF`` is process-wide:
the started profilers share one handler and one timer, each sample goes
to every one of them, and the timer is disarmed when the last one stops.
The timer holds its profilers weakly: one dropped unstopped (with the
service that owned it) is collected, and the first sample that finds no
profiler left disarms the timer as a stop would.
"""

from __future__ import annotations

import os
import signal
import weakref
from collections import Counter, deque
from time import perf_counter_ns, process_time_ns
from types import CodeType, FrameType
from typing import Any

from repro.obs.export import US_PER_TIME_UNIT
from repro.obs.registry import MetricsRegistry

try:  # pragma: no cover - absent only off-POSIX
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None

__all__ = ["LAYERS", "LOOP_ENTRIES", "SAMPLE_PERIOD", "Profiler", "function_name", "layer_of",
           "peak_rss_kb"]

#: CPU seconds asked for between two samples.  The kernel raises
#: ``SIGPROF`` on its own tick: on a 250 Hz Linux kernel, 1 ms asked gives
#: one sample per 4 ms or so (``repro profile`` prints the rate it got).
SAMPLE_PERIOD = 0.001

#: Counter-track ticks kept (the newest); one is taken per sample.
SAMPLE_WINDOW = 16_384

#: The package directory: a file under it belongs to a layer.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + os.sep

#: DESIGN §4 layer -> the files under ``src/repro/`` it holds.  An entry
#: ending in ``/`` is a whole package, any other entry one file; every
#: module is in exactly one entry (``tests/obs/test_profile.py``).
LAYERS: dict[str, tuple[str, ...]] = {
    "kernel": ("sim/", "runtime/eventqueue.py", "runtime/realtime.py", "errors.py"),
    "transport": ("runtime/__init__.py", "runtime/transport.py", "runtime/node.py",
                  "runtime/messages.py", "runtime/latency.py", "runtime/faults.py",
                  "runtime/retry.py"),
    "executor": ("runtime/executor.py", "runtime/rng.py", "core/programs.py"),
    "rules": ("rules/",),
    "store": ("storage/",),
    "dispatch": ("engines/parallel.py", "engines/centralized/__init__.py",
                 "engines/centralized/engine.py", "engines/centralized/agents.py",
                 "engines/distributed/__init__.py", "engines/distributed/navigation.py",
                 "engines/distributed/roles.py", "engines/distributed/commit.py",
                 "engines/runtime/__init__.py", "engines/runtime/instance.py",
                 "engines/runtime/inflight.py"),
    "packets": ("core/__init__.py", "core/packets.py", "core/interfaces.py"),
    "recovery": ("core/ocr.py", "core/recovery.py", "engines/centralized/recovery.py",
                 "engines/distributed/failure.py", "engines/distributed/halting.py",
                 "engines/runtime/compensation.py", "engines/runtime/invalidation.py"),
    "coordination": ("core/coordination.py", "engines/coord.py",
                     "engines/centralized/coordination.py",
                     "engines/distributed/coordination.py"),
    "facade": ("engines/__init__.py", "engines/base.py", "engines/frontend.py",
               "engines/centralized/system.py", "engines/distributed/system.py"),
    "obs": ("obs/", "runtime/metrics.py", "runtime/trace.py"),
    "model": ("model/", "laws/"),
    "workload": ("analysis/", "workloads/"),
    "service": ("service/", "cli.py", "__init__.py", "__main__.py"),
    "loop": (),
}

#: The asyncio loop's dispatch frames, in :data:`LOOP_MODULE`: a sample
#: that meets one before any package frame goes to the ``loop`` row, and
#: the frame closes its stack.
LOOP_ENTRIES = frozenset({"_run_once", "run_forever"})
LOOP_MODULE = "asyncio.base_events"
_LOOP_FILE = os.sep + LOOP_MODULE.replace(".", os.sep) + ".py"


def layer_of(path: str) -> str | None:
    """The layer of a source file; ``None`` outside ``src/repro/``."""
    if not path.startswith(ROOT):
        return None
    rel = path[len(ROOT):].replace(os.sep, "/")
    for layer, entries in LAYERS.items():
        for entry in entries:
            if rel == entry or (entry[-1] == "/" and rel.startswith(entry)):
                return layer
    return None


def function_name(code: CodeType) -> str:
    """``module:qualname`` of a code object under ``src/repro/`` or of a
    loop entry frame (the bare function name before Python 3.11, whose
    code objects have no qualname)."""
    if code.co_filename.startswith(ROOT):
        module = "repro/" + code.co_filename[len(ROOT):].replace(os.sep, "/")
        module = module.removesuffix(".py").removesuffix("/__init__").replace("/", ".")
    else:
        module = LOOP_MODULE
    return f"{module}:{getattr(code, 'co_qualname', code.co_name)}"


def peak_rss_kb() -> int | None:
    """Peak resident-set size of this process in KiB (``None`` off-POSIX).

    ``ru_maxrss`` is a high-water mark: per-task readings taken in
    sequence are monotone, so a task's value means "peak RSS of the
    worker *by the end of* this task".
    """
    if _resource is None:
        return None
    return int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)


#: File -> layer (``None``: outside the package), filled as samples land.
_LAYER_OF: dict[str, str | None] = {}
#: The started profilers: every sample goes to each of them.
_LIVE: weakref.WeakSet["Profiler"] = weakref.WeakSet()
#: The ``SIGPROF`` disposition the first start replaced.
_previous_handler: Any = signal.SIG_DFL


def _on_sigprof(signum: int, frame: FrameType | None) -> None:
    """The ``SIGPROF`` handler: walk the interrupted stack once and hand
    its layer and package frames to every started profiler.  A loop entry
    frame met before the innermost package frame makes the sample the
    ``loop``'s, and is kept as the innermost frame of its stack."""
    stack = []
    layer = None
    loop_entry = None
    while frame is not None:
        code = frame.f_code
        path = code.co_filename
        try:
            where = _LAYER_OF[path]
        except KeyError:
            where = _LAYER_OF[path] = layer_of(path)
        if where is not None:
            if layer is None:
                layer = where
                if loop_entry is not None:
                    layer = "loop"
                    stack.append(loop_entry)
            stack.append(code)
        elif (layer is None and loop_entry is None and code.co_name in LOOP_ENTRIES
              and path.endswith(_LOOP_FILE)):
            loop_entry = code
        frame = frame.f_back
    stack.reverse()
    key = tuple(stack)
    cpu_ns = process_time_ns()
    profilers = list(_LIVE)
    for profiler in profilers:
        profiler._take(layer, key, cpu_ns)
    if not profilers:
        _disarm()  # every started profiler was dropped unstopped


def _disarm() -> None:
    """Stop the timer and put the ``SIGPROF`` handler the first start
    replaced back."""
    signal.setitimer(signal.ITIMER_PROF, 0)
    signal.signal(signal.SIGPROF, _previous_handler)


class Profiler:
    """Sampled CPU time per layer, with stacks and a counter track.

    :meth:`start` arms the sampler and :meth:`stop` disarms it (also as a
    context manager); :meth:`install` names the system whose clock and
    network the counter track reads.  One profiler may be started and
    stopped around several runs in sequence (a full sweep); samples
    accumulate.
    """

    def __init__(self) -> None:
        #: Samples and CPU ns per layer; ``None`` counts the samples
        #: taken with no frame under ``src/repro/`` (never a row).
        self.samples: Counter[str | None] = Counter()
        self.cpu_ns: Counter[str | None] = Counter()
        #: Root-first tuples of package code objects -> samples.
        self.stacks: Counter[tuple[CodeType, ...]] = Counter()
        #: ``(wall_ns, clock_now, events, messages, pending)`` per sample,
        #: the newest :data:`SAMPLE_WINDOW` kept — the Chrome counter track.
        self.ticks: deque[tuple[int, float, int, int, int]] = deque(maxlen=SAMPLE_WINDOW)
        self._born_ns = perf_counter_ns()
        self._cpu_ns = 0
        self._clock: Any = None
        self._network: Any = None

    # -- lifecycle ---------------------------------------------------------

    def install(self, system: Any) -> "Profiler":
        """Read the counter track off ``system``'s clock and network from
        now on.  Returns ``self`` so installs chain across a sweep."""
        self._clock = system.simulator
        self._network = system.network
        return self

    def start(self) -> "Profiler":
        """Take samples from now on.  Call from the main thread."""
        global _previous_handler
        if self in _LIVE:
            return self
        if not _LIVE:
            previous = signal.signal(signal.SIGPROF, _on_sigprof)
            if previous is not _on_sigprof:  # not still armed for a dropped one
                _previous_handler = signal.SIG_DFL if previous is None else previous
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD, SAMPLE_PERIOD)
        self._cpu_ns = process_time_ns()
        _LIVE.add(self)
        return self

    def stop(self) -> None:
        """Take no more samples; the last started profiler to stop
        disarms the timer and puts the previous handler back."""
        if self not in _LIVE:
            return
        _LIVE.remove(self)
        if not _LIVE:
            _disarm()

    def __enter__(self) -> "Profiler":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def _take(self, layer: str | None, stack: tuple[CodeType, ...], cpu_ns: int) -> None:
        """One sample: the CPU time since the last one goes to ``layer``."""
        self.samples[layer] += 1
        self.cpu_ns[layer] += cpu_ns - self._cpu_ns
        self._cpu_ns = cpu_ns
        if stack:
            self.stacks[stack] += 1
        clock = self._clock
        if clock is not None:
            self.ticks.append((
                perf_counter_ns() - self._born_ns, clock.now, clock.events_processed,
                self._network.metrics.total_messages(), clock.pending,
            ))

    # -- reporting ---------------------------------------------------------

    def total_samples(self) -> int:
        """Samples charged to a layer (those outside the package excluded)."""
        return sum(self.samples.values()) - self.samples[None]

    def layers(self) -> list[dict[str, Any]]:
        """One row per sampled layer, most samples first (ties in
        :data:`LAYERS` order)."""
        total = self.total_samples() or 1
        sampled = [layer for layer in LAYERS if self.samples[layer]]
        sampled.sort(key=lambda layer: self.samples[layer], reverse=True)
        return [{"layer": layer, "samples": self.samples[layer],
                 "cpu_ms": round(self.cpu_ns[layer] / 1e6, 3),
                 "share": round(self.samples[layer] / total, 4)}
                for layer in sampled]

    def render_top(self, limit: int | None = None) -> str:
        """The ranked layer table (plain text, the first ``limit`` rows)
        under one line saying how many samples it rests on and the period
        the kernel gave."""
        count = sum(self.samples.values())
        spent_ms = sum(self.cpu_ns.values()) / 1e6
        lines = [
            f"# {count} samples over {spent_ms:.0f} ms of CPU: one per "
            f"{spent_ms / count if count else 0.0:.2f} ms "
            f"({1000 * SAMPLE_PERIOD:g} ms asked); {self.samples[None]} "
            f"outside src/repro",
            f"{'layer':<14} {'samples':>8} {'cpu ms':>10} {'share':>7}",
        ]
        for row in self.layers()[:limit]:
            lines.append(f"{row['layer']:<14} {row['samples']:>8} "
                         f"{row['cpu_ms']:>10.1f} {100 * row['share']:>6.1f}%")
        return "\n".join(lines)

    def collapsed(self) -> str:
        """Collapsed stacks, flamegraph-compatible: one
        ``module:function;...;module:function <samples>`` line per stack,
        root first — feed to ``flamegraph.pl`` or speedscope."""
        stacks = dict(self.stacks)
        names = {code: function_name(code) for stack in stacks for code in stack}
        return "\n".join(sorted(
            f"{';'.join(names[code] for code in stack)} {count}"
            for stack, count in stacks.items()))

    def chrome_counter_events(self) -> list[dict[str, Any]]:
        """Chrome trace-event counter tracks (``"ph": "C"``).

        Timestamps use *wall* time so tracks stay monotone when one
        profiler spans several sequential runs (a full sweep), unlike the
        per-run clock.
        """
        events: list[dict[str, Any]] = []
        prev: tuple[int, float, int, int, int] | None = None
        for tick in list(self.ticks):
            wall_ns, now, n_events, n_messages, pending = tick
            ts = wall_ns / 1000.0
            events.append({"name": "queue_depth", "ph": "C", "pid": 1,
                           "ts": ts, "args": {"pending": pending}})
            events.append({"name": "messages", "ph": "C", "pid": 1,
                           "ts": ts, "args": {"sent": n_messages}})
            events.append({"name": "sim_time", "ph": "C", "pid": 1,
                           "ts": ts, "args": {"t": round(now * US_PER_TIME_UNIT)}})
            if prev is not None and wall_ns > prev[0] and n_events >= prev[2]:
                rate = (n_events - prev[2]) / ((wall_ns - prev[0]) / 1e9)
                events.append({"name": "events_per_sec", "ph": "C", "pid": 1,
                               "ts": ts, "args": {"rate": round(rate, 1)}})
            prev = tick
        return events

    def chrome_counter_trace(self) -> dict[str, Any]:
        """A standalone Chrome trace document of the counter tracks."""
        meta = {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                "args": {"name": "crew-profile"}}
        return {"traceEvents": [meta, *self.chrome_counter_events()],
                "displayTimeUnit": "ms"}

    def summary(self) -> dict[str, Any]:
        """JSON-safe aggregate view (layers ranked, sample counts)."""
        return {
            "samples": self.total_samples(),
            "outside": self.samples[None],
            "cpu_ms": round(sum(self.cpu_ns.values()) / 1e6, 3),
            "period_ms": 1000 * SAMPLE_PERIOD,
            "layers": self.layers(),
            "ticks": len(self.ticks),
        }

    def publish(self, registry: MetricsRegistry) -> None:
        """Per-layer ``crew_profile_*`` series into a metrics registry.

        The values are *assigned*: they are totals since the profiler was
        built, so a scrape that publishes again counts nothing twice.
        """
        for layer in LAYERS:
            if not self.samples[layer]:
                continue
            registry.counter(
                "crew_profile_samples_total",
                "CPU-time samples whose innermost package frame is in the layer.",
                layer=layer,
            ).value = float(self.samples[layer])
            registry.counter(
                "crew_profile_cpu_seconds_total",
                "Process CPU time charged to the layer by the sampler.",
                layer=layer,
            ).value = self.cpu_ns[layer] / 1e9

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Profiler samples={self.total_samples()} "
                f"live={self in _LIVE}>")
