"""Runtime layer: one engine stack over two clocks.

The runtime-neutral building blocks every backend shares live here: the
:class:`~repro.runtime.eventqueue.EventQueue` both clocks fire, the
:class:`~repro.runtime.messages.Message` record,
:class:`~repro.runtime.latency.LatencyModel` strategies, the
clock-agnostic :class:`~repro.runtime.transport.Network` transport, the
:class:`~repro.runtime.node.Node` base class, per-mechanism
:class:`~repro.runtime.metrics.MetricsCollector` accounting, seeded
:class:`~repro.runtime.rng.SimRandom` streams, the structured
:class:`~repro.runtime.trace.Trace` log, the
:class:`~repro.runtime.retry.RetryPolicy` backoff, and the one step
executor and runtime class of every backend
(:mod:`repro.runtime.executor`).

There are two backends, each a :class:`~repro.runtime.executor.
ClockRuntime` over its clock: :class:`repro.sim.kernel.SimRuntime`, the
deterministic discrete-event kernel every control system defaults to,
and :class:`repro.runtime.realtime.RealtimeRuntime`, the wall clock
behind ``repro serve``.  This package never imports :mod:`repro.sim`.
"""

from repro.runtime.executor import ClockRuntime, TaskExecutor
from repro.runtime.latency import FixedLatency, LatencyModel, UniformLatency
from repro.runtime.messages import Message
from repro.runtime.metrics import Mechanism, MetricsCollector, MetricsSnapshot
from repro.runtime.node import Node
from repro.runtime.retry import RetryPolicy
from repro.runtime.rng import SimRandom
from repro.runtime.trace import Trace, TraceRecord
from repro.runtime.transport import Network

__all__ = [
    "ClockRuntime",
    "FixedLatency",
    "LatencyModel",
    "Mechanism",
    "Message",
    "MetricsCollector",
    "MetricsSnapshot",
    "Network",
    "Node",
    "RetryPolicy",
    "SimRandom",
    "TaskExecutor",
    "Trace",
    "TraceRecord",
    "UniformLatency",
]
