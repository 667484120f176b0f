"""Processing nodes (engines and agents live on these) — runtime-agnostic.

A :class:`Node` is a named endpoint on a
:class:`~repro.runtime.transport.Network` with:

* a message handler (`handle_message`) dispatching by verb through the
  `handlers` table a subclass fills at construction,
* per-mechanism *load* accounting in units of ``l`` — the "navigation and
  other load per step" parameter of the paper's Table 3,
* a per-node Lamport clock (ticked on send, merged on receive) stamped
  into every outgoing message for causal reconstruction,
* crash/recovery support: a crashed node loses volatile state (subclass
  hook) but keeps its durable stores; the network parks messages addressed
  to it until recovery, matching the persistent-queue assumption.

Nodes never name a concrete clock: ``simulator`` is either
:class:`~repro.runtime.eventqueue.EventQueue` clock, so the same
engine/agent classes run under discrete-event simulation or the
wall-clock asyncio runtime unchanged.  Deferred service-time work
(``schedule_causal``) goes through the
:class:`~repro.runtime.executor.TaskExecutor` the owning
:class:`~repro.runtime.executor.ClockRuntime` sets on the transport.

A node describes each protocol event once, with :meth:`Node.emit`
(``kind`` plus keyword detail).  The event goes to the network's
``observer`` — the owning control system, whose one table turns it into
the flat trace record, spans, marks, histograms and flight-recorder
dumps.  A node never builds any of those itself.

Physical messages take the same observer with one call per end: the
network calls ``observer.sent`` before it builds a message, and
:meth:`Node.receive` calls ``observer.received`` after the Lamport merge;
the observer keeps the flight notes, receive counts and message spans.
Observability stays duck-typed (``runtime`` cannot import ``obs``), and
with no observer — a bare network — the per-message overhead is the
Lamport bookkeeping plus a single ``is None`` branch each side (guarded
by the ``benchmarks/bench_obs_overhead.py`` <5% regression gate).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Mapping

from repro.errors import SimulationError
from repro.runtime.eventqueue import EventQueue
from repro.runtime.messages import Message
from repro.runtime.metrics import Mechanism
from repro.runtime.transport import Network

__all__ = ["Node"]


class Node:
    """Base class for every simulated processing node."""

    def __init__(self, name: str, simulator: EventQueue, network: Network):
        self.name = name
        self.simulator = simulator
        self.network = network
        #: The step executor of the runtime that owns the transport.
        self.executor = network.executor
        self.is_up = True
        #: interface verb -> handler, filled once by the subclass's
        #: ``__init__`` (bound methods, so a subclass's override is the
        #: one dispatched to).
        self.handlers: dict[str, Callable[[Message], None]] = {}
        self.crash_count = 0
        #: Lamport clock — ticked by the network on send, merged on
        #: receive.  Always maintained (two int ops per message) so traces
        #: captured later can still be causally ordered.
        self.lamport_clock = 0
        #: The span currently "active" on this node (whatever the
        #: observer's ``received`` returned — its recv span's id), used as
        #: the causal link source for outgoing messages.  Managed by
        #: ``receive`` / ``schedule_causal``; ``None`` whenever message
        #: spans are off.
        self.current_span = None
        #: This node's ``crew_node_load_units_total`` counter, which the
        #: observer's ``node.attach`` view sets when tracing is on, so
        #: ``charge`` is one ``is None`` check plus an increment.
        self._load_counter = None
        self.observer = network.observer
        if self.observer is not None:
            # One call per event straight into the owning system.
            self.emit = partial(self.observer.emit, self)
            self.emit("node.attach")
        network.register(self)

    # -- messaging -----------------------------------------------------------

    def send(
        self,
        dst: str,
        interface: str,
        payload: Mapping[str, Any],
        mechanism: Mechanism,
    ) -> None:
        """Send one physical message to another node."""
        self.network.send(self.name, dst, interface, payload, mechanism, self)

    def receive(self, message: Message) -> None:
        """Network entry point; dispatches to :meth:`handle_message`."""
        if not self.is_up:
            raise SimulationError(f"message delivered to down node {self.name!r}")
        # Lamport merge must happen before the observer hears of the
        # message, so its recv span carries the post-merge clock value.
        clock = self.lamport_clock
        if message.lamport > clock:
            clock = message.lamport
        self.lamport_clock = clock + 1
        if self.observer is None:
            self.handle_message(message)
            return
        recv_span = self.observer.received(self, message)
        if recv_span is None:
            self.handle_message(message)
            return
        previous = self.current_span
        self.current_span = recv_span
        try:
            self.handle_message(message)
        finally:
            self.current_span = previous

    def handle_message(self, message: Message) -> None:
        """Dispatch by interface verb through :attr:`handlers`."""
        handler = self.handlers.get(message.interface)
        if handler is None:
            raise SimulationError(
                f"node {self.name} cannot handle {message.interface!r}"
            )
        handler(message)

    def schedule_causal(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``fn`` preserving the currently-active causal span.

        Work a node defers across simulated time (program completion,
        timer-driven retries) still belongs to the message that triggered
        it; this captures ``current_span`` and restores it around the
        callback so sends from inside ``fn`` link correctly.  Degenerates
        to a plain ``executor.submit`` when no span is active.

        With a fault injector installed, the callback is additionally
        guarded by this node's crash epoch: deferred work is volatile
        state, so a crash between scheduling and firing discards it (the
        node's recovery path re-derives it from durable stores) instead of
        letting a "down" node send messages.
        """
        span = self.current_span
        faults = self.network.faults
        if span is None and faults is None:
            self.executor.submit(delay, fn, *args)
            return
        epoch = self.crash_count

        def run(*inner: Any) -> None:
            if faults is not None and (self.crash_count != epoch or not self.is_up):
                faults.on_dead_continuation(self.name)
                return
            previous = self.current_span
            self.current_span = span
            try:
                fn(*inner)
            finally:
                self.current_span = previous

        self.executor.submit(delay, run, *args)

    # -- protocol events -------------------------------------------------------

    def emit(self, kind: str, **detail: Any) -> None:
        """Describe one protocol event at this node, now.

        Bound at construction to ``network.observer.emit(self, kind,
        **detail)``; on a network no control system owns, nothing listens.
        """

    # -- load accounting -------------------------------------------------------

    def charge(self, units: float, mechanism: Mechanism) -> None:
        """Charge navigation load (multiples of ``l``) to this node."""
        self.network.metrics.record_load(self.name, mechanism, units)
        if self._load_counter is not None:
            self._load_counter.inc(units)

    # -- failure injection -----------------------------------------------------

    def crash(self) -> None:
        """Take the node down, losing volatile state."""
        if not self.is_up:
            raise SimulationError(f"node {self.name!r} is already down")
        self.is_up = False
        self.crash_count += 1
        self.emit("node.crash")
        self.on_crash()

    def recover(self) -> None:
        """Bring the node back up, replay durable state, drain parked messages."""
        if self.is_up:
            raise SimulationError(f"node {self.name!r} is already up")
        self.is_up = True
        self.on_recover()
        self.network.flush_parked(self.name)

    def on_crash(self) -> None:
        """Subclass hook: discard volatile state.  Default does nothing."""

    def on_recover(self) -> None:
        """Subclass hook: rebuild volatile state from durable stores."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.is_up else "down"
        return f"<{type(self).__name__} {self.name} {state}>"
