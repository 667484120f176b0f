"""Reliable in-process message transport between nodes — clock-agnostic.

The paper assumes "messages are reliably delivered between agents using
tools/techniques as discussed in [AAE+95]" (persistent message queues, as
in Exotica/FMQM).  The transport therefore never drops a message: if the
destination node is down, the message is parked in a persistent queue and
delivered when the node recovers.

:class:`Network` delivers over either
:class:`~repro.runtime.eventqueue.EventQueue` clock: under the
discrete-event :class:`repro.sim.kernel.Simulator` a delivery is a
virtual-time event, under :class:`repro.runtime.realtime.RealtimeClock`
an entry in the same event queue read against the wall clock — the
protocol logic, per-mechanism accounting and fault hooks are identical
either way.

Every message carries the :class:`~repro.runtime.metrics.Mechanism` that
caused it, so the benchmark harness can regenerate the per-mechanism
message rows of Tables 4-6 directly from the transport layer.

What observability sees of a message goes through one duck-typed
attribute, :attr:`Network.observer` — the owning control system, which
keeps the flight notes, receive counts and message spans.  ``send``
reports each message to it before building it; the receiving node
reports the delivery.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Mapping

from repro.errors import SimulationError
from repro.runtime.eventqueue import EventQueue
from repro.runtime.latency import FixedLatency, LatencyModel, UniformLatency
from repro.runtime.messages import Message
from repro.runtime.metrics import Mechanism, MetricsCollector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.node import Node

__all__ = ["LatencyModel", "Message", "Network", "UniformLatency", "FixedLatency"]


class Network:
    """Reliable, latency-modelled transport with per-mechanism accounting.

    Nodes register themselves under a unique name.  ``send`` counts the
    message, applies the latency model, and schedules delivery.  Messages
    to a node that is down are queued durably and flushed (in send order)
    when the node comes back up.
    """

    def __init__(
        self,
        simulator: EventQueue,
        metrics: MetricsCollector | None = None,
        latency: LatencyModel | None = None,
    ):
        #: The clock deliveries are scheduled on.  Named ``simulator`` for
        #: historical reasons; the realtime runtime passes its wall clock.
        self.simulator = simulator
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.latency = latency if latency is not None else FixedLatency(1.0)
        #: Who watches this transport: the owning control system, set
        #: before nodes are constructed (``None`` on a bare network).
        #: Per physical message it hears two calls, ``sent(src_node, dst,
        #: msg_id, interface, mechanism, lamport, payload)`` from
        #: :meth:`send` — returning the send span's id or ``None`` — and
        #: ``received(node, message)`` from ``Node.receive``; each node
        #: also emits its protocol events to ``observer.emit``.
        self.observer = None
        #: The step executor (:class:`repro.runtime.executor.
        #: TaskExecutor`), set by the owning :class:`~repro.runtime.
        #: executor.ClockRuntime` before nodes are constructed.  Nodes
        #: route deferred service-time work (``schedule_causal``) through
        #: it, so a node needs a transport that belongs to a runtime.
        self.executor = None
        #: Optional fault injector (see :mod:`repro.runtime.faults`), installed
        #: by ``ClockRuntime.install_faults``.  When set, every send routes
        #: through its fault pipeline and every delivery through its
        #: duplicate-suppression guard; when ``None`` (the default) the
        #: transport keeps its reliable persistent-queue semantics with a
        #: single ``is None`` branch on the hot path.
        self.faults = None
        self._nodes: dict[str, "Node"] = {}
        self._parked: dict[str, list[Message]] = {}
        self._msg_ids = itertools.count(1)
        self.delivered = 0

    # -- membership ---------------------------------------------------------

    def register(self, node: "Node") -> None:
        if node.name in self._nodes:
            raise SimulationError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        self._parked.setdefault(node.name, [])

    def node(self, name: str) -> "Node":
        try:
            return self._nodes[name]
        except KeyError:
            raise SimulationError(f"unknown node {name!r}") from None

    def node_names(self) -> list[str]:
        return sorted(self._nodes)

    def is_up(self, name: str) -> bool:
        """Whether a node is currently able to process messages."""
        return self.node(name).is_up

    # -- transport ----------------------------------------------------------

    def send(
        self,
        src: str,
        dst: str,
        interface: str,
        payload: Mapping[str, Any],
        mechanism: Mechanism,
        src_node: "Node | None" = None,
    ) -> Message:
        """Send one physical message; returns the in-flight message object.

        Local self-sends (``src == dst``) are *not* physical messages under
        the paper's accounting — use a direct call for those.  The network
        rejects them to keep the counters honest.

        ``src_node`` lets :meth:`Node.send` pass itself and skip the name
        lookup on the hot path; callers using plain names can omit it.
        """
        if src == dst:
            raise SimulationError(
                f"self-send {src!r}->{dst!r} would corrupt message "
                "accounting; use a local call instead"
            )
        if dst not in self._nodes:
            raise SimulationError(f"send to unknown node {dst!r}")
        if src_node is None:
            src_node = self._nodes.get(src)
        lamport = 0
        if src_node is not None:
            lamport = src_node.lamport_clock + 1
            src_node.lamport_clock = lamport
        msg_id = next(self._msg_ids)
        send_span = None
        if self.observer is not None and src_node is not None:
            send_span = self.observer.sent(src_node, dst, msg_id, interface,
                                           mechanism, lamport, payload)
        message = Message(msg_id, src, dst, interface, mechanism,
                          dict(payload), self.simulator.now, lamport,
                          send_span)
        self.metrics.record_message(mechanism, interface)
        delay = self.latency.delay(src, dst)
        if self.faults is None:
            self.simulator.schedule(delay, self._arrive, message)
        else:
            self.faults.dispatch(message, delay)
        return message

    def _arrive(self, message: Message) -> None:
        node = self._nodes[message.dst]
        if not node.is_up:
            # Durable queue semantics: park until the node recovers.
            self._parked[message.dst].append(message)
            return
        if self.faults is not None and self.faults.suppress(message):
            return
        self.delivered += 1
        node.receive(message)

    def flush_parked(self, name: str) -> int:
        """Deliver messages parked while ``name`` was down; returns the
        number actually delivered (injected duplicates are suppressed)."""
        node = self._nodes[name]
        if not node.is_up:
            raise SimulationError(f"cannot flush parked messages to down node {name!r}")
        parked = self._parked[name]
        self._parked[name] = []
        # Redeliver in original *send* order: arrival order diverges from
        # send order as soon as per-message latency varies (fault-injected
        # delays, retransmissions, uniform latency), and msg_id is the
        # global send sequence.
        parked.sort(key=lambda message: message.msg_id)
        delivered = 0
        for message in parked:
            if self.faults is not None and self.faults.suppress(message):
                continue
            self.delivered += 1
            node.receive(message)
            delivered += 1
        return delivered

    def parked_count(self, name: str) -> int:
        return len(self._parked.get(name, []))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Network nodes={len(self._nodes)} delivered={self.delivered}>"
