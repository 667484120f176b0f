"""Cross-node causal propagation: Lamport clocks and message-span links.

Message spans come from the network's observer — the owning control
system — so the span tests put their nodes on the network of a traced
:class:`~repro.engines.base.ControlSystem` that owns no nodes of its own.
"""

import pytest

from repro.engines import SystemConfig
from repro.engines.base import ControlSystem
from repro.obs.spans import Tracer
from repro.runtime.metrics import Mechanism
from repro.runtime.node import Node
from repro.runtime.transport import Network
from repro.sim.kernel import SimRuntime, Simulator
from repro.workloads import figure3_workflow
from tests.conftest import ALL_ARCHITECTURES, make_system


class EchoNode(Node):
    """Replies once to every ``ping`` it receives."""

    def handle_message(self, message):
        if message.interface == "ping":
            self.send(message.src, "pong", {"n": message.payload["n"]},
                      Mechanism.NORMAL)


class SilentNode(Node):
    def handle_message(self, message):
        pass


def make_pair(observed=True):
    """Two echo nodes on a traced system's network, or on a bare one."""
    if observed:
        system = ControlSystem()
        simulator, network, tracer = system.simulator, system.network, system.tracer
    else:
        simulator = Simulator()
        network = Network(simulator)
        tracer = Tracer(enabled=False)
    a = EchoNode("a", simulator, network)
    b = EchoNode("b", simulator, network)
    return simulator, network, tracer, a, b


def test_lamport_clocks_tick_and_merge():
    simulator, network, __, a, b = make_pair(observed=False)
    network.send("a", "b", "ping", {"n": 1}, Mechanism.NORMAL)
    simulator.run()
    # a: send tick (1), then merge on b's pong (max(1, b_send) + 1).
    assert a.lamport_clock > 1
    assert b.lamport_clock >= 2  # merge of a's clock then its own send tick


def test_lamport_merge_takes_max():
    simulator, network, __, a, b = make_pair(observed=False)
    a.lamport_clock = 40
    network.send("a", "b", "ping", {"n": 1}, Mechanism.NORMAL)
    simulator.run()
    assert b.lamport_clock >= 42  # merged past a's clock, not from 0


def test_send_and_recv_spans_are_linked():
    simulator, __, tracer, a, b = make_pair()
    a.send("b", "ping", {"n": 1}, Mechanism.NORMAL)
    simulator.run()
    messages = tracer.by_category("message")
    sends = [s for s in messages if s.attrs["direction"] == "send"]
    recvs = [s for s in messages if s.attrs["direction"] == "recv"]
    assert len(sends) == 2 and len(recvs) == 2  # ping + pong
    by_id = {s.span_id: s for s in messages}
    for recv in recvs:
        assert recv.link_id is not None
        send = by_id[recv.link_id]
        assert send.attrs["msg_id"] == recv.attrs["msg_id"]
        assert send.attrs["lamport"] < recv.attrs["lamport"]


def test_reply_send_links_to_recv_span():
    """The pong's send span links to the ping's recv span (continuity)."""
    simulator, __, tracer, a, b = make_pair()
    a.send("b", "ping", {"n": 1}, Mechanism.NORMAL)
    simulator.run()
    messages = tracer.by_category("message")
    by_id = {s.span_id: s for s in messages}
    pong_send = next(s for s in messages
                     if s.name == "send:pong" and s.node == "b")
    assert pong_send.link_id is not None
    ping_recv = by_id[pong_send.link_id]
    assert ping_recv.name == "recv:ping" and ping_recv.node == "b"


def test_schedule_causal_preserves_span_across_delay():
    system = ControlSystem()
    simulator, network, tracer = system.simulator, system.network, system.tracer

    class DeferredEcho(Node):
        def handle_message(self, message):
            if message.interface == "ping":
                self.schedule_causal(5.0, self._reply, message.src)

        def _reply(self, dst):
            self.send(dst, "pong", {}, Mechanism.NORMAL)

    a = SilentNode("a", simulator, network)
    DeferredEcho("b", simulator, network)
    a.send("b", "ping", {"n": 1}, Mechanism.NORMAL)
    simulator.run()
    messages = tracer.by_category("message")
    pong_send = next(s for s in messages if s.name == "send:pong")
    by_id = {s.span_id: s for s in messages}
    assert pong_send.link_id is not None
    assert by_id[pong_send.link_id].name == "recv:ping"


def test_schedule_causal_without_span_is_plain_schedule():
    runtime = SimRuntime()
    simulator, network = runtime.clock, runtime.transport
    node = SilentNode("a", simulator, network)
    hits = []
    node.schedule_causal(1.0, hits.append, "x")
    simulator.run()
    assert hits == ["x"]


def test_disabled_tracer_stamps_nothing():
    simulator, network, tracer, a, b = make_pair(observed=False)
    message = network.send("a", "b", "ping", {"n": 1}, Mechanism.NORMAL)
    assert message.send_span is None
    assert message.lamport == 1
    simulator.run()
    assert len(tracer) == 0
    assert a.current_span is None and b.current_span is None


def test_instance_id_payloads_annotate_message_spans():
    simulator, __, tracer, a, b = make_pair()
    a.send("b", "ping", {"n": 1, "instance_id": "wf-9"},
           Mechanism.NORMAL)
    simulator.run()
    ping_spans = [s for s in tracer.by_category("message")
                  if s.name.endswith(":ping")]
    assert ping_spans
    assert all(s.attrs["instance"] == "wf-9" for s in ping_spans)


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_engines_emit_linked_message_spans(architecture):
    """Every recv span in a real failure-handling run resolves its link."""
    system = make_system(architecture, config=SystemConfig(seed=11))
    figure3_workflow().install(system)
    ids = [system.start_workflow("Figure3", {"load": 5}, delay=i * 0.5)
           for i in range(2)]
    system.run()
    assert all(system.outcome(i).committed for i in ids)
    messages = system.tracer.by_category("message")
    assert messages, "engines must emit message spans"
    by_id = {s.span_id: s for s in system.tracer.spans}
    recvs = [s for s in messages if s.attrs["direction"] == "recv"]
    assert recvs
    for recv in recvs:
        assert recv.link_id is not None, f"unlinked recv {recv!r}"
        assert recv.link_id in by_id, f"orphan link on {recv!r}"


def test_untraced_system_notes_flights_and_links_nothing():
    """With tracing off the observer keeps each end's flight note only:
    ``sent`` returns no span id, so no message carries one and no node
    ever swaps a span into ``current_span``."""
    system = ControlSystem(SystemConfig(trace=False))
    a = EchoNode("a", system.simulator, system.network)
    b = EchoNode("b", system.simulator, system.network)
    a.send("b", "ping", {"n": 1}, Mechanism.NORMAL)
    spans = []
    b.handle_message = lambda message: spans.append(b.current_span)
    system.simulator.run()
    assert spans == [None]
    assert len(system.tracer) == 0 and len(system.trace) == 0
    assert [(e["dir"], e["interface"], e["peer"], e["lamport"])
            for e in system._flights["a"].snapshot()] == [("send", "ping", "b", 1)]
    assert [(e["dir"], e["interface"], e["peer"], e["lamport"])
            for e in system._flights["b"].snapshot()] == [("recv", "ping", "a", 2)]


def test_receive_counts_exist_from_node_construction():
    """``crew_node_messages_received_total`` has a child per node from the
    moment it is built, so a node that never receives exports ``0``."""
    from repro.obs.export import prometheus_text

    system = ControlSystem()
    a = EchoNode("a", system.simulator, system.network)
    EchoNode("b", system.simulator, system.network)
    SilentNode("c", system.simulator, system.network)
    a.send("b", "ping", {"n": 1}, Mechanism.NORMAL)
    system.simulator.run()
    text = prometheus_text(system.registry)
    for node, count in (("a", 1), ("b", 1), ("c", 0)):
        assert f'crew_node_messages_received_total{{node="{node}"}} {count}\n' in text
