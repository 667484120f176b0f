"""Unit tests for the deterministic fault-injection layer."""

import pytest

from repro.errors import SimulationError
from repro.runtime.faults import (
    Crash,
    FaultInjector,
    FaultPlan,
    Outage,
    Stall,
    random_plan,
)
from repro.runtime.latency import FixedLatency
from repro.runtime.metrics import Mechanism
from repro.runtime.node import Node
from repro.runtime.rng import SimRandom
from repro.sim.kernel import SimRuntime


class Recorder(Node):
    def __init__(self, name, sim, net):
        super().__init__(name, sim, net)
        self.received = []

    def handle_message(self, message):
        self.received.append((self.simulator.now, message))


class FixedBackoff:
    """Duck-typed retry policy: constant backoff, optional attempt budget."""

    def __init__(self, delay=0.5, max_attempts=None):
        self.delay = delay
        self.max_attempts = max_attempts

    def backoff(self, attempt, rng):
        if self.max_attempts is not None and attempt >= self.max_attempts:
            return None
        return self.delay


def make_faulty(plan, seed=1, latency=1.0, retry=None):
    runtime = SimRuntime(latency=FixedLatency(latency))
    sim, net = runtime.clock, runtime.transport
    injector = FaultInjector(plan, SimRandom(seed), retry=retry)
    injector.install(net)
    a = Recorder("a", sim, net)
    b = Recorder("b", sim, net)
    return sim, net, injector, a, b


# -- FaultPlan serialization -------------------------------------------------


def test_plan_spec_round_trips():
    plans = [
        FaultPlan(),
        FaultPlan(drop_p=0.05, dup_p=0.03, delay_p=0.1, reorder_p=0.07),
        FaultPlan(drop_p=1.0, drop_limit=2, interfaces=("Ping", "Probe")),
        FaultPlan(delay_p=0.5, delay_factor=8.0, reorder_p=0.2,
                  reorder_window=5.0),
        FaultPlan(crashes=(Crash("agent-003", 40.0, 25.0),),
                  stalls=(Stall("engine", 10.5, 3.25),),
                  outages=(Outage("a", "*", 10.0, 30.0),)),
    ]
    for plan in plans:
        assert FaultPlan.parse(plan.to_spec()) == plan


def test_empty_plan_spec_is_none():
    assert FaultPlan().to_spec() == "none"
    assert FaultPlan.parse("none") == FaultPlan()
    assert FaultPlan.parse("") == FaultPlan()
    assert FaultPlan().is_noop


def test_plan_parse_rejects_bad_specs():
    for spec in ("bogus", "drop", "frob=1", "crash=engine",
                 "outage=a@3+4"):
        with pytest.raises(SimulationError):
            FaultPlan.parse(spec)


def test_plan_validation():
    with pytest.raises(SimulationError):
        FaultPlan(drop_p=1.5)
    with pytest.raises(SimulationError):
        FaultPlan(delay_factor=0.5)
    with pytest.raises(SimulationError):
        FaultPlan(crashes=(Crash("a", 1.0, 0.0),))
    with pytest.raises(SimulationError):
        FaultPlan(outages=(Outage("a", "b", 5.0, 5.0),))


def test_plan_targets_interface_filter():
    plan = FaultPlan(drop_p=1.0, interfaces=("Probe",))
    assert plan.targets("Probe")
    assert not plan.targets("Ping")
    assert FaultPlan(drop_p=1.0).targets("anything")


def test_plan_without_and_dimensions():
    plan = FaultPlan(drop_p=0.1, dup_p=0.05,
                     crashes=(Crash("a", 5.0, 2.0), Crash("b", 9.0, 1.0)),
                     stalls=(Stall("b", 3.0, 1.0),))
    # Events come before probabilities (most impactful first).
    assert plan.dimensions() == [
        "crashes[0]", "crashes[1]", "stalls[0]", "drop_p", "dup_p",
    ]
    assert plan.without("crashes[0]").crashes == (Crash("b", 9.0, 1.0),)
    assert plan.without("crashes").crashes == ()
    assert plan.without("drop_p").drop_p == 0.0
    with pytest.raises(SimulationError):
        plan.without("frobnicate")


def test_outage_wildcard_matching():
    outage = Outage("agent-001", "*", 10.0, 30.0)
    assert outage.matches("agent-001", "engine")
    assert outage.matches("engine", "agent-001")  # bidirectional
    assert not outage.matches("engine", "agent-002")


# -- the fault pipeline ------------------------------------------------------


def test_drop_then_retransmit_delivers():
    plan = FaultPlan(drop_p=1.0, drop_limit=1)
    sim, __, injector, a, b = make_faulty(plan, retry=FixedBackoff(0.5))
    a.send("b", "Ping", {"n": 1}, Mechanism.NORMAL)
    sim.run()
    # First attempt dropped, retransmitted after 0.5, then delivered.
    assert injector.stats.dropped == 1
    assert injector.stats.retransmits == 1
    assert injector.stats.lost == 0
    assert [(t, m.payload["n"]) for t, m in b.received] == [(1.5, 1)]


def test_drop_without_retry_is_lost():
    plan = FaultPlan(drop_p=1.0)
    sim, __, injector, a, b = make_faulty(plan, retry=None)
    a.send("b", "Ping", {}, Mechanism.NORMAL)
    sim.run()
    assert b.received == []
    assert injector.stats.lost == 1
    assert [m.interface for m in injector.lost] == ["Ping"]


def test_retry_budget_exhaustion_loses_message():
    plan = FaultPlan(drop_p=1.0)
    sim, __, injector, a, b = make_faulty(
        plan, retry=FixedBackoff(0.5, max_attempts=3))
    a.send("b", "Ping", {}, Mechanism.NORMAL)
    sim.run()
    # Attempts 1 and 2 retransmit; attempt 3 exhausts the budget.
    assert injector.stats.dropped == 3
    assert injector.stats.retransmits == 2
    assert injector.stats.lost == 1
    assert b.received == []


def test_drop_limit_caps_total_drops():
    plan = FaultPlan(drop_p=1.0, drop_limit=1)
    sim, __, injector, a, b = make_faulty(plan, retry=None)
    a.send("b", "Ping", {"n": 1}, Mechanism.NORMAL)
    a.send("b", "Ping", {"n": 2}, Mechanism.NORMAL)
    sim.run()
    assert injector.stats.dropped == 1
    assert [m.payload["n"] for __, m in b.received] == [2]


def test_duplicate_suppressed_on_delivery():
    plan = FaultPlan(dup_p=1.0)
    sim, __, injector, a, b = make_faulty(plan)
    a.send("b", "Ping", {}, Mechanism.NORMAL)
    sim.run()
    # Two copies scheduled, exactly one delivered.
    assert injector.stats.duplicated == 1
    assert injector.stats.suppressed == 1
    assert len(b.received) == 1


def test_delay_spike_multiplies_latency():
    plan = FaultPlan(delay_p=1.0, delay_factor=4.0)
    sim, __, injector, a, b = make_faulty(plan, latency=1.0)
    a.send("b", "Ping", {}, Mechanism.NORMAL)
    sim.run()
    assert injector.stats.delayed == 1
    assert [t for t, __ in b.received] == [4.0]


def test_reorder_jitter_breaks_fifo():
    plan = FaultPlan(reorder_p=1.0, reorder_window=10.0)
    sim, __, injector, a, b = make_faulty(plan, seed=3)
    for n in range(6):
        a.send("b", "Ping", {"n": n}, Mechanism.NORMAL)
    sim.run()
    assert injector.stats.reordered == 6
    assert len(b.received) == 6
    order = [m.payload["n"] for __, m in b.received]
    assert order != sorted(order)  # seed 3 actually reorders


def test_interface_filter_scopes_probabilistic_faults():
    plan = FaultPlan(drop_p=1.0, interfaces=("Lossy",))
    sim, __, injector, a, b = make_faulty(plan, retry=None)
    a.send("b", "Lossy", {}, Mechanism.NORMAL)
    a.send("b", "Clean", {}, Mechanism.NORMAL)
    sim.run()
    assert injector.stats.lost == 1
    assert [m.interface for __, m in b.received] == ["Clean"]


def test_outage_holds_messages_until_heal():
    plan = FaultPlan(outages=(Outage("a", "b", 0.0, 10.0),))
    sim, __, injector, a, b = make_faulty(plan, latency=1.0)
    a.send("b", "Ping", {}, Mechanism.NORMAL)
    sim.run()
    assert injector.stats.held == 1
    assert [t for t, __ in b.received] == [11.0]  # heal at 10 + latency


def test_stall_defers_deliveries_to_window_end():
    plan = FaultPlan(stalls=(Stall("b", 0.5, 2.0),))
    sim, __, injector, a, b = make_faulty(plan, latency=1.0)
    a.send("b", "Ping", {}, Mechanism.NORMAL)  # would arrive at 1.0
    sim.run()
    assert injector.stats.stalled == 1
    assert [t for t, __ in b.received] == [2.5]


def test_armed_crash_parks_and_recovery_flushes():
    plan = FaultPlan(crashes=(Crash("b", 2.0, 3.0),))
    sim, net, injector, a, b = make_faulty(plan, latency=1.0)
    injector.arm(sim)
    a.send("b", "Ping", {"n": 1}, Mechanism.NORMAL)  # arrives at 1, before crash
    sim.schedule_at(2.5, a.send, "b", "Ping", {"n": 2}, Mechanism.NORMAL)
    sim.run()
    assert injector.stats.crashes == 1
    assert injector.stats.recoveries == 1
    # Second message parked while down, flushed at recovery time 5.0.
    assert [(t, m.payload["n"]) for t, m in b.received] == [(1.0, 1), (5.0, 2)]


def test_armed_crash_skips_already_down_node():
    plan = FaultPlan(crashes=(Crash("b", 2.0, 3.0), Crash("b", 3.0, 1.0)))
    sim, __, injector, a, b = make_faulty(plan)
    injector.arm(sim)
    sim.run()
    # The overlapping second crash is a no-op; so is its early recovery.
    assert injector.stats.crashes == 1
    assert injector.stats.recoveries == 1
    assert b.is_up


def test_crash_discards_deferred_continuations():
    plan = FaultPlan(crashes=(Crash("b", 1.0, 1.0),))
    sim, __, injector, a, b = make_faulty(plan)
    injector.arm(sim)
    fired = []
    b.schedule_causal(2.5, fired.append, "volatile")  # fires after recovery
    b.schedule_causal(0.5, fired.append, "early")     # fires before the crash
    sim.run()
    # The post-recovery callback belongs to the old crash epoch: discarded.
    assert fired == ["early"]
    assert injector.stats.dead_continuations == 1


def test_install_twice_rejected():
    sim, net, injector, __, ___ = make_faulty(FaultPlan())
    with pytest.raises(SimulationError):
        FaultInjector(FaultPlan(), SimRandom(2)).install(net)


def test_on_fault_hook_sees_decisions():
    plan = FaultPlan(drop_p=1.0)
    sim, __, injector, a, b = make_faulty(plan, retry=None)
    events = []
    injector.on_fault = lambda time, kind, **detail: events.append(kind)
    a.send("b", "Ping", {}, Mechanism.NORMAL)
    sim.run()
    assert events == ["lost"]


def test_fault_runs_are_bit_reproducible():
    def run_once():
        plan = FaultPlan(drop_p=0.3, dup_p=0.2, delay_p=0.3, reorder_p=0.3)
        sim, __, injector, a, b = make_faulty(
            plan, seed=11, retry=FixedBackoff(0.25, max_attempts=4))
        for n in range(20):
            a.send("b", "Ping", {"n": n}, Mechanism.NORMAL)
        sim.run()
        return ([(t, m.payload["n"]) for t, m in b.received],
                injector.stats.as_dict())

    assert run_once() == run_once()


# -- random_plan -------------------------------------------------------------


def test_random_plan_is_reproducible():
    nodes = ["engine", "agent-001", "agent-002"]
    plan = random_plan(42, crash_nodes=nodes, stall_nodes=nodes)
    assert plan == random_plan(42, crash_nodes=nodes, stall_nodes=nodes)
    assert plan != random_plan(43, crash_nodes=nodes, stall_nodes=nodes)
    assert len(plan.crashes) == 1 and plan.crashes[0].node in nodes
    assert len(plan.stalls) == 1 and plan.stalls[0].node in nodes
    # The plan replays through its own spec string.
    assert FaultPlan.parse(plan.to_spec()) == plan


def test_random_plan_profile_overrides():
    plan = random_plan(7, crash_nodes=["engine"], stall_nodes=["engine"],
                       profile={"drop_p": 0.5, "crashes": 2, "stalls": 0,
                                "outages": 1})
    assert plan.drop_p == 0.5
    assert len(plan.crashes) == 2
    assert plan.stalls == ()
    assert len(plan.outages) == 1 and plan.outages[0].b == "*"
