"""Cross-node causal propagation for the span tracer.

The simulation's transport (:mod:`repro.runtime.transport`) cannot import the
observability layer, so causal tracing is injected duck-typed: the owning
control system sets ``network.causal`` to a :class:`MessageTracer` before
any node is constructed, and the network/node hot paths call ``on_send``
/ ``on_receive`` through that attribute.

Each physical message produces two instant spans in the ``message``
category:

* a **send span** on the sender, linked (via ``link_id``) to the span
  that was active on the sender when the message left, and
* a **recv span** on the receiver, linked to the send span (whose id
  travelled inside the message as ``Message.send_span``).

Both carry the message id and the Lamport clock observed at their end of
the edge, so an offline analyzer can rebuild the full cross-node causal
chain — and detect broken ones — from the exported trace alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.obs.spans import Tracer
from repro.runtime.metrics import Mechanism

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.messages import Message
    from repro.runtime.node import Node

__all__ = ["MessageTracer"]


class MessageTracer:
    """Stamps every network message with linked send/recv spans."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        #: interface -> its ("send:<interface>", "recv:<interface>") span
        #: names, so the spans of one interface share two strings.
        self._names: dict[str, tuple[str, str]] = {}

    def _span_names(self, interface: str) -> tuple[str, str]:
        names = self._names.get(interface)
        if names is None:
            names = self._names[interface] = (f"send:{interface}",
                                              f"recv:{interface}")
        return names

    def on_send(
        self,
        src_node: "Node",
        dst: str,
        msg_id: int,
        interface: str,
        mechanism: Mechanism,
        lamport: int,
        payload: Mapping[str, Any],
        now: float,
    ) -> int | None:
        """Record the sender-side message span; returns its id (or None)."""
        tracer = self.tracer
        if not tracer.enabled:
            return None
        src = src_node.name
        return tracer.message(
            self._span_names(interface)[0], src, now, src_node.current_span,
            msg_id, src, dst, mechanism.value, lamport, "send",
            payload.get("instance_id"),
        )

    def on_receive(self, node: "Node", message: "Message") -> int | None:
        """Record the receiver-side message span, linked to the send span.

        Returns its id — what the node keeps as ``current_span`` while it
        handles the message, the link of whatever it sends meanwhile.
        Called *after* the node merged its Lamport clock, so the recorded
        ``lamport`` is the post-merge value (always > the send side's).
        """
        tracer = self.tracer
        if not tracer.enabled:
            return None
        dst = node.name
        return tracer.message(
            self._span_names(message.interface)[1], dst, node.simulator.now,
            message.send_span, message.msg_id, message.src, dst,
            message.mechanism.value, node.lamport_clock, "recv",
            message.payload.get("instance_id"),
        )
