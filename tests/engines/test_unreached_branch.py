"""A rollback invalidates what it reaches, not the whole instance.

The grid schema is ``S -> (A -> A2 || B -> B2 -> ... -> Bn) -> E`` with an
AND-join at ``E``, ``rollback_point(A2, A)``, and ``A2`` failing its first
attempt.  The rollback to ``A`` halts the ``A`` branch only: a result or
packet of the ``B`` branch still in flight is current, and ``E`` must fire
once both branches are done.  Dropping it as stale wedges the instance
without a word: the clock drains and the instance stays running.  Central
engines did so for n >= 2 and distributed agents for n >= 4.
"""

import pytest

from repro.analysis.causal import CausalTrace
from repro.analysis.invariants import check_invariants
from repro.core.packets import WorkflowPacket
from repro.core.programs import FailEveryNth, FunctionProgram
from repro.engines.runtime import open_invalidation_round
from repro.model import SchemaBuilder
from repro.model.coordination_spec import MutualExclusionSpec
from tests.conftest import ALL_ARCHITECTURES, make_system

LENGTHS = (1, 2, 3, 4, 5)


def branch(n):
    return ["B"] + [f"B{i}" for i in range(2, n + 1)]


def grid_schema(n):
    """Every step's output is also a workflow output: the outcome is the
    instance's final data table."""
    builder = SchemaBuilder("Grid", inputs=["x"])
    builder.step("S", program="Grid.S", inputs=["WF.x"], outputs=["o"])
    builder.step("A", program="Grid.A", inputs=["S.o"], outputs=["o"])
    builder.step("A2", program="Grid.A2", inputs=["A.o"], outputs=["o"])
    previous = "S"
    for step in branch(n):
        builder.step(step, program=f"Grid.{step}", inputs=[f"{previous}.o"], outputs=["o"])
        if previous != "S":
            builder.arc(previous, step)
        previous = step
    builder.step("E", program="Grid.E", join="and",
                 inputs=["A2.o", f"{previous}.o"], outputs=["o"])
    builder.parallel("S", ["A", "B"])
    builder.arc("A", "A2")
    builder.join("E", ["A2", previous], kind="and")
    builder.rollback_point("A2", "A")
    for step in ("S", "A", "A2", *branch(n), "E"):
        builder.output(step, f"{step}.o")
    return builder.build()


def trace_of(step):
    """``step(inputs...)``: the data table then spells the data flow."""
    return FunctionProgram(lambda inputs, ctx: {
        "o": f"{step}({','.join(str(inputs[ref]) for ref in sorted(inputs))})"})


def run_grid(architecture, n):
    system = make_system(architecture, seed=1)
    schema = grid_schema(n)
    system.register_schema(schema)
    for step in schema.steps.values():
        program = trace_of(step.name)
        if step.name == "A2":
            program = FailEveryNth(program, {1})
        system.register_program(step.program, program)
    instance = system.start_workflow("Grid", {"x": 1})
    system.run()
    return system, instance


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_an_unreached_branch_survives_the_rollback(architecture, n):
    system, instance = run_grid(architecture, n)
    assert instance in system.outcomes, f"{architecture} n={n}: wedged"
    assert system.outcome(instance).committed
    assert [r.detail["origin"] for r in system.trace.filter(kind="rollback")] == ["A"]
    violations = check_invariants(
        CausalTrace.from_run(system.trace, system.tracer),
        ["dispatch-once", "halt-before-reexecute"])
    assert not violations, violations


@pytest.mark.parametrize("n", LENGTHS)
def test_every_architecture_ends_with_the_same_data_table(n):
    tables = {architecture: run_grid(architecture, n) for architecture in ALL_ARCHITECTURES}
    tables = {architecture: system.outcome(instance).outputs
              for architecture, (system, instance) in tables.items()}
    assert len({tuple(sorted(table.items())) for table in tables.values()}) == 1, tables
    b_branch = "S(1)"
    for step in branch(n):
        b_branch = f"{step}({b_branch})"
    assert tables["centralized"]["E"] == f"E(A2(A(S(1))),{b_branch})"


def older_packet_at_a2(local, target):
    """An agent of ``A2`` that heard of the rollback to ``A`` receives a
    packet sent before it, carrying ``S``'s completion (news here) and
    ``A``'s (invalidated), for ``target``, naming itself (``local``) or
    another agent as the executor; returns the agent, its runtime and
    the executor named."""
    system = make_system("distributed", seed=1)
    system.register_schema(grid_schema(2))
    system.add_coordination(MutualExclusionSpec(
        name="mx", schema_a="Grid", schema_b="Grid",
        region_a=(target, target), region_b=(target, target)))
    agent = system.agent(system.assignment.eligible("Grid", "A2")[0])
    runtime = agent._runtime("Grid", "Grid-1", {"x": 1})
    open_invalidation_round(runtime, ["A.D", "A2.D", "E.D"])
    runtime.fragment.recovery_epoch = 1
    assigned = agent.name if local else next(
        a.name for a in system.agents if a.name != agent.name)
    agent._ingest_packet(WorkflowPacket(
        schema_name="Grid", instance_id="Grid-1", action="execute",
        target_step=target, events={"S.D": [1.0, 0], "A.D": [2.0, 0]},
        recovery_epoch=0, assigned_agent=assigned,
    ))
    return runtime, assigned


@pytest.mark.parametrize("local", [True, False])
def test_a_halted_hop_neither_assigns_nor_locks_its_target(local):
    """The rollback reached the packet's target: its news still counts,
    but the hop is the halted thread's, so it names no executor, arms no
    watchdog and asks for no lock."""
    runtime, __ = older_packet_at_a2(local, "A2")
    assert runtime.engine.events.is_valid("S.D")
    assert not runtime.engine.events.is_valid("A.D")
    assert "A2" not in runtime.assigned
    assert "A2" not in runtime.watchdogs
    assert "mx" not in runtime.mx_state


@pytest.mark.parametrize("local", [True, False])
def test_a_hop_the_rollback_did_not_reach_keeps_its_executor(local):
    runtime, assigned = older_packet_at_a2(local, "B2")
    assert runtime.assigned["B2"] == assigned
    if local:
        assert runtime.mx_state["mx"] == "requested"
    else:
        assert "B2" in runtime.watchdogs
