"""Tests for distributed-control extensions: load-based successor selection
and the workflow-status probe chain (paper Section 4.1)."""

from repro.core.programs import NoopProgram
from repro.engines import DistributedControlSystem, SystemConfig
from repro.model import SchemaBuilder
from tests.conftest import linear_schema, register_programs, run_until_outcome


def make(seed=5, selection="hash", **cfg):
    return DistributedControlSystem(
        SystemConfig(seed=seed, successor_selection=selection, **cfg),
        num_agents=4, agents_per_step=2,
    )


# ------------------------------------------------------- load-based selection


def test_load_mode_probes_eligible_successors():
    system = make(selection="load")
    schema = linear_schema(steps=4)
    system.register_schema(schema)
    register_programs(system, schema)
    instance = system.start_workflow("Linear", {"x": 1})
    system.run()
    assert system.outcome(instance).committed
    # Each of the 3 inter-step hops probed the a=2 eligible successors.
    assert system.metrics.interface_messages("StateInformation") > 0


def test_hash_mode_sends_no_probes():
    system = make(selection="hash")
    schema = linear_schema(steps=4)
    system.register_schema(schema)
    register_programs(system, schema)
    instance = system.start_workflow("Linear", {"x": 1})
    system.run()
    assert system.outcome(instance).committed
    assert system.metrics.interface_messages("StateInformation") == 0


def test_load_mode_prefers_idle_agent():
    system = make(selection="load")
    # A long-running blocker occupies one agent.
    blocker = SchemaBuilder("Blocker", inputs=["x"])
    blocker.step("L", program="Blocker.L", inputs=["WF.x"], cost=2000.0)
    system.register_schema(blocker.build())
    system.register_program("Blocker.L", NoopProgram(()))
    schema = linear_schema(steps=3)
    system.register_schema(schema)
    register_programs(system, schema)
    system.start_workflow("Blocker", {"x": 1})
    instance = system.start_workflow("Linear", {"x": 1}, delay=5.0)
    system.run(until=150.0)
    assert system.outcome(instance).committed
    busy_agent = system.assignment.eligible("Blocker", "L")[0]
    # The dispatcher routed around the busy agent wherever a choice existed.
    linear_steps_on_busy = [
        r for r in system.trace.filter(kind="step.dispatch")
        if r.detail["instance"] == instance and r.node == busy_agent
    ]
    assert len(linear_steps_on_busy) <= 1


def test_load_mode_outcomes_match_hash_mode():
    outcomes = {}
    for selection in ("hash", "load"):
        system = make(selection=selection)
        schema = linear_schema(steps=5)
        system.register_schema(schema)
        register_programs(system, schema)
        instance = system.start_workflow("Linear", {"x": 3})
        system.run()
        outcomes[selection] = (
            system.outcome(instance).status.value,
            sorted(system.outcome(instance).outputs),
        )
    assert outcomes["hash"] == outcomes["load"]


# ------------------------------------------------------- status probe chain


def probe_setup():
    system = make()
    builder = SchemaBuilder("W", inputs=["x"])
    builder.step("A", program="W.A", inputs=["WF.x"], outputs=["o"])
    builder.step("B", program="W.B", inputs=["A.o"], outputs=["o"], cost=200.0)
    builder.step("C", program="W.C", inputs=["B.o"], outputs=["o"])
    builder.sequence("A", "B", "C")
    schema = builder.build()
    system.register_schema(schema)
    register_programs(system, schema)
    return system


def test_probe_locates_running_step():
    system = probe_setup()
    instance = system.start_workflow("W", {"x": 1})
    system.probe_workflow(instance, delay=6.0)  # B (slow) is executing
    system.run(until=15.0)
    reports = system.probe_reports(instance)
    assert reports
    running = {step for report in reports for step in report["running"]}
    assert running == {"B"}
    system.run()
    assert system.outcome(instance).committed


def test_probe_on_finished_workflow_reports_nothing():
    system = probe_setup()
    instance = system.start_workflow("W", {"x": 1})
    system.run()
    assert system.outcome(instance).committed
    system.probe_workflow(instance)
    system.run()
    running = {step for report in system.probe_reports(instance)
               for step in report["running"]}
    assert running == set()


def test_probe_chain_traverses_agents():
    """The probe reaches the current step's agent through the packet path,
    even when that agent is several hops from the coordination agent."""
    system = probe_setup()
    instance = system.start_workflow("W", {"x": 1})
    system.probe_workflow(instance, delay=6.0)
    system.run(until=15.0)
    probes_sent = system.metrics.interface_messages("WorkflowStatusProbe")
    assert probes_sent >= 1  # chained beyond the coordination agent
    reports = system.probe_reports(instance)
    coordination_agent = system.coordination_agent_for("W").name
    assert any(report["agent"] != coordination_agent for report in reports)


def test_duplicate_probes_are_deduplicated():
    system = probe_setup()
    instance = system.start_workflow("W", {"x": 1})
    agent = system.coordination_agent_for("W")
    system.simulator.schedule(6.0, agent.workflow_status_probe, instance)
    system.simulator.schedule(6.0, agent.workflow_status_probe, instance)
    system.run(until=15.0)
    reports = system.probe_reports(instance)
    # Two probes, each deduplicated per agent: at most one report per
    # (probe, agent) pair.
    keys = [(r["probe_id"], r["agent"]) for r in reports]
    assert len(keys) == len(set(keys))
    system.run()


# ------------------------------------------------- Figure 7 R.O. piggyback


def test_established_orders_piggyback_on_packets():
    """The Figure 7 packet carries "R.O. Leading/Lagging" info: once the
    authority establishes an order, the lagging instance's packets name
    the (spec, leading, lagging) triple."""
    from repro.model import RelativeOrderSpec

    system = make(seed=5)
    schema = linear_schema(steps=4)
    system.register_schema(schema)
    register_programs(system, schema)
    system.add_coordination(RelativeOrderSpec(
        name="fifo", schema_a="Linear", schema_b="Linear",
        steps_a=("S2", "S3"), steps_b=("S2", "S3"), conflict_key="WF.x",
    ))
    leader = system.start_workflow("Linear", {"x": "k"})
    lagger = system.start_workflow("Linear", {"x": "k"}, delay=0.3)
    run_until_outcome(system, leader, lagger)  # read before the purge
    assert system.outcome(leader).committed
    assert system.outcome(lagger).committed
    piggybacked = set()
    for agent in system.agents:
        runtime = agent.runtimes.get(lagger)
        if runtime is not None:
            piggybacked |= runtime.ro_info
    assert ("fifo", leader, lagger) in piggybacked
