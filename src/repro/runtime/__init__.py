"""Pluggable runtime layer: one engine stack, many execution substrates.

The CREW engines are written against three protocol seams —
:class:`~repro.runtime.protocols.Clock`,
:class:`~repro.runtime.protocols.Transport` and
:class:`~repro.runtime.protocols.Executor` (bundled by
:class:`~repro.runtime.protocols.Runtime`) — plus the runtime-neutral
building blocks that live here: the :class:`~repro.runtime.messages.
Message` record, :class:`~repro.runtime.latency.LatencyModel` strategies,
the clock-agnostic :class:`~repro.runtime.transport.Network` transport,
the :class:`~repro.runtime.node.Node` base class, per-mechanism
:class:`~repro.runtime.metrics.MetricsCollector` accounting, seeded
:class:`~repro.runtime.rng.SimRandom` streams, the structured
:class:`~repro.runtime.trace.Trace` log, the
:class:`~repro.runtime.retry.RetryPolicy` backoff, and the one step
executor and runtime class of every backend
(:mod:`repro.runtime.executor`).

Backends resolve by name through :func:`~repro.runtime.factory.
build_runtime`: ``"sim"`` is the deterministic discrete-event kernel
(:mod:`repro.sim`), ``"asyncio"`` the wall-clock backend
(:mod:`repro.runtime.realtime`) behind ``repro serve``; each is a
:class:`~repro.runtime.executor.ClockRuntime` over its clock.  The AST
import-layering contract keeps the seam honest: ``repro.engines.*`` may
import this package but never ``repro.sim``.
"""

from repro.runtime.executor import ClockRuntime, TaskExecutor
from repro.runtime.factory import (
    available_runtimes,
    build_runtime,
    register_runtime,
)
from repro.runtime.latency import FixedLatency, LatencyModel, UniformLatency
from repro.runtime.messages import Message
from repro.runtime.metrics import Mechanism, MetricsCollector, MetricsSnapshot
from repro.runtime.node import Node
from repro.runtime.protocols import (
    Cancellable,
    Clock,
    Executor,
    Runtime,
    Transport,
)
from repro.runtime.retry import RetryPolicy
from repro.runtime.rng import SimRandom
from repro.runtime.trace import Trace, TraceRecord
from repro.runtime.transport import Network

__all__ = [
    "Cancellable",
    "Clock",
    "ClockRuntime",
    "Executor",
    "FixedLatency",
    "LatencyModel",
    "Mechanism",
    "Message",
    "MetricsCollector",
    "MetricsSnapshot",
    "Network",
    "Node",
    "RetryPolicy",
    "Runtime",
    "SimRandom",
    "TaskExecutor",
    "Trace",
    "TraceRecord",
    "Transport",
    "UniformLatency",
    "available_runtimes",
    "build_runtime",
    "register_runtime",
]
