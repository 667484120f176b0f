"""Processing nodes (engines and agents live on these) — runtime-agnostic.

A :class:`Node` is a named endpoint on a
:class:`~repro.runtime.protocols.Transport` with:

* a message handler (`handle_message`) dispatching by verb through the
  `handlers` table a subclass fills at construction,
* per-mechanism *load* accounting in units of ``l`` — the "navigation and
  other load per step" parameter of the paper's Table 3,
* a per-node Lamport clock (ticked on send, merged on receive) stamped
  into every outgoing message for causal reconstruction,
* crash/recovery support: a crashed node loses volatile state (subclass
  hook) but keeps its durable stores; the network parks messages addressed
  to it until recovery, matching the persistent-queue assumption.

Nodes never name a concrete substrate: ``simulator`` is any
:class:`~repro.runtime.protocols.Clock` and ``network`` any transport, so
the same engine/agent classes run under discrete-event simulation or the
wall-clock asyncio runtime unchanged.  Deferred service-time work
(``schedule_causal``) routes through the transport's injected
:class:`~repro.runtime.protocols.Executor` when one is present, falling
back to a plain clock callback (the simulated path, byte-identical to the
pre-runtime-layer behaviour).

Observability stays duck-typed (``runtime`` cannot import ``obs``): the
owning control system injects ``causal`` / ``flight_factory`` /
``flight_sink`` attributes on the network before nodes are constructed,
and nodes cache them at init — the same pattern as the metrics
``registry``.  With nothing injected, the per-message overhead is the
Lamport bookkeeping plus a single boolean branch (guarded by the
``benchmarks/bench_obs_overhead.py`` <5% regression gate).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.errors import SimulationError
from repro.runtime.messages import Message
from repro.runtime.metrics import Mechanism
from repro.runtime.protocols import Clock
from repro.runtime.transport import Network

__all__ = ["Node"]


class Node:
    """Base class for every simulated processing node."""

    def __init__(self, name: str, simulator: Clock, network: Network):
        self.name = name
        self.simulator = simulator
        self.network = network
        #: Step executor injected by the owning runtime (may be ``None``:
        #: deferred work then schedules directly on the clock).
        self.executor = getattr(network, "executor", None)
        self.is_up = True
        #: interface verb -> handler, filled once by the subclass's
        #: ``__init__`` (bound methods, so a subclass's override is the
        #: one dispatched to).
        self.handlers: dict[str, Callable[[Message], None]] = {}
        self.messages_received = 0
        self.crash_count = 0
        #: Lamport clock — ticked by the network on send, merged on
        #: receive.  Always maintained (two int ops per message) so traces
        #: captured later can still be causally ordered.
        self.lamport_clock = 0
        #: The span currently "active" on this node (whatever the causal
        #: tracer's ``on_receive`` returned — its recv span's id), used as
        #: the causal link source for outgoing messages.  Managed by
        #: ``receive`` / ``schedule_causal``; ``None`` whenever causal
        #: tracing is off.
        self.current_span = None
        self.causal = getattr(network, "causal", None)
        flight_factory = getattr(network, "flight_factory", None)
        self.flight = flight_factory(name) if flight_factory is not None else None
        self._flight_sink = getattr(network, "flight_sink", None)
        # Observability: the owning control system injects a
        # MetricsRegistry on the network when tracing is enabled; nodes
        # cache their per-node instruments so the hot path is one `is
        # None` check plus an attribute increment.
        self.registry = getattr(network, "registry", None)
        if self.registry is not None:
            self._msg_counter = self.registry.counter(
                "crew_node_messages_received_total",
                "Physical messages delivered to a node.",
                node=name,
            )
            self._load_counter = self.registry.counter(
                "crew_node_load_units_total",
                "Navigation load charged to a node, in units of l.",
                node=name,
            )
        else:
            self._msg_counter = None
            self._load_counter = None
        # Hot-path gate: with no observability injected, ``receive`` takes
        # a single boolean branch past all per-message instrumentation.
        self._observed = (
            self._msg_counter is not None
            or self.flight is not None
            or self.causal is not None
        )
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
        message = self.network.send(self.name, dst, interface, payload,
                                    mechanism, self)
        if self.flight is not None:
            self.flight.note(self.simulator.now, "send", interface, dst,
                             message.msg_id, message.lamport)

    def receive(self, message: Message) -> None:
        """Network entry point; dispatches to :meth:`handle_message`."""
        if not self.is_up:
            raise SimulationError(f"message delivered to down node {self.name!r}")
        self.messages_received += 1
        # Lamport merge must happen before the recv span is created so the
        # span carries the post-merge clock value.
        clock = self.lamport_clock
        if message.lamport > clock:
            clock = message.lamport
        self.lamport_clock = clock + 1
        if not self._observed:
            self.handle_message(message)
            return
        if self._msg_counter is not None:
            self._msg_counter.inc()
        if self.flight is not None:
            self.flight.note(self.simulator.now, "recv", message.interface,
                             message.src, message.msg_id, self.lamport_clock)
        if self.causal is None:
            self.handle_message(message)
            return
        recv_span = self.causal.on_receive(self, message)
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
        to a plain ``schedule`` when no span is active.

        With a fault injector installed, the callback is additionally
        guarded by this node's crash epoch: deferred work is volatile
        state, so a crash between scheduling and firing discards it (the
        node's recovery path re-derives it from durable stores) instead of
        letting a "down" node send messages.
        """
        span = self.current_span
        faults = self.network.faults
        if span is None and faults is None:
            if self.executor is None:
                self.simulator.schedule(delay, fn, *args)
            else:
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

        if self.executor is None:
            self.simulator.schedule(delay, run, *args)
        else:
            self.executor.submit(delay, run, *args)

    # -- flight recorder -------------------------------------------------------

    def dump_flight(self, reason: str, **detail: Any) -> None:
        """Snapshot the flight-recorder ring into the trace (post-mortem)."""
        if self.flight is None or self._flight_sink is None:
            return
        self._flight_sink(self.simulator.now, self.name, reason,
                          self.flight.snapshot(), **detail)

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
        if self.registry is not None:
            self.registry.counter(
                "crew_node_crashes_total", "Node crash events.", node=self.name
            ).inc()
        self.dump_flight("crash")
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
