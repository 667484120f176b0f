"""Unit tests for simulated nodes (crash/recovery, load accounting)."""

import pytest

from repro.errors import SimulationError
from repro.runtime.latency import FixedLatency
from repro.runtime.metrics import Mechanism, MetricsCollector
from repro.runtime.node import Node
from repro.runtime.transport import Network
from repro.sim.kernel import Simulator


class Stub(Node):
    def __init__(self, name, sim, net):
        super().__init__(name, sim, net)
        self.crashed_hook = 0
        self.recovered_hook = 0

    def handle_message(self, message):
        pass

    def on_crash(self):
        self.crashed_hook += 1

    def on_recover(self):
        self.recovered_hook += 1


def make():
    sim = Simulator()
    metrics = MetricsCollector()
    net = Network(sim, metrics, FixedLatency(1.0))
    return sim, metrics, net


def test_charge_records_load_per_mechanism():
    sim, metrics, net = make()
    node = Stub("n", sim, net)
    node.charge(2.0, Mechanism.NORMAL)
    node.charge(1.5, Mechanism.FAILURE)
    node.charge(0.5, Mechanism.NORMAL)
    assert metrics.node_load("n", Mechanism.NORMAL) == 2.5
    assert metrics.node_load("n", Mechanism.FAILURE) == 1.5
    assert metrics.node_load("n") == 4.0


def test_crash_and_recover_hooks_fire():
    sim, __, net = make()
    node = Stub("n", sim, net)
    node.crash()
    assert not node.is_up
    assert node.crashed_hook == 1
    node.recover()
    assert node.is_up
    assert node.recovered_hook == 1


def test_double_crash_rejected():
    sim, __, net = make()
    node = Stub("n", sim, net)
    node.crash()
    with pytest.raises(SimulationError):
        node.crash()


def test_recover_when_up_rejected():
    sim, __, net = make()
    node = Stub("n", sim, net)
    with pytest.raises(SimulationError):
        node.recover()


def test_crash_count_accumulates():
    sim, __, net = make()
    node = Stub("n", sim, net)
    for __i in range(3):
        node.crash()
        node.recover()
    assert node.crash_count == 3


def test_recover_drains_parked_messages_through_handler():
    sim, __, net = make()
    received = []

    class Catcher(Node):
        def handle_message(self, message):
            received.append(message.payload["n"])

    a = Stub("a", sim, net)
    b = Catcher("b", sim, net)
    b.crash()
    a.send("b", "Ping", {"n": 7}, Mechanism.NORMAL)
    sim.run()
    assert received == []
    b.recover()
    assert received == [7]
