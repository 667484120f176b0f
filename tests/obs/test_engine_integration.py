"""End-to-end observability: spans and metrics emitted by real runs.

Runs the canonical Figure-3 scenario (which exercises failure handling
and recovery) under each architecture and asserts the span tree and the
metrics registry reflect what happened.
"""

import pytest

from repro.core.programs import FailEveryNth, NoopProgram
from repro.engines import SystemConfig
from repro.model import SchemaBuilder
from repro.runtime.faults import FaultPlan
from repro.workloads import figure3_workflow
from tests.conftest import ALL_ARCHITECTURES, make_system, register_programs


def run_figure3(architecture, instances=3, trace=True):
    system = make_system(
        architecture, config=SystemConfig(seed=11, trace=trace)
    )
    figure3_workflow().install(system)
    ids = [system.start_workflow("Figure3", {"load": 5}, delay=i * 0.5)
           for i in range(instances)]
    system.run()
    return system, ids


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_span_categories_present(architecture):
    system, ids = run_figure3(architecture)
    assert len(system.tracer.by_category("workflow")) == len(ids)
    assert system.tracer.by_category("step")
    assert system.tracer.by_category("rule")
    assert system.tracer.by_category("recovery")  # Figure 3 always rolls back


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_span_tree_is_well_nested(architecture):
    system, __ = run_figure3(architecture)
    system.tracer.finish(system.simulator.now)
    assert system.tracer.check_nesting() == []
    assert system.tracer.open_spans() == []


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_steps_parent_under_their_workflow(architecture):
    system, __ = run_figure3(architecture, instances=1)
    (wf,) = system.tracer.by_category("workflow")
    by_id = {s.span_id: s for s in system.tracer.spans}

    def root_of(span):
        while span.parent_id is not None:
            span = by_id[span.parent_id]
        return span

    steps = system.tracer.by_category("step")
    assert steps
    assert all(root_of(s).span_id == wf.span_id for s in steps)


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_step_latency_histogram_is_populated(architecture):
    system, __ = run_figure3(architecture)
    hist = system.registry.get("crew_step_latency", architecture=architecture)
    assert hist is not None
    assert hist.count > 0
    assert hist.p95 > 0.0


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_instance_counters_match_outcomes(architecture):
    system, ids = run_figure3(architecture)
    started = system.registry.get(
        "crew_instances_started_total", architecture=architecture
    )
    assert started.value == len(ids)
    finished = system.registry.children("crew_instances_finished_total")
    assert sum(c.value for c in finished) == len(ids)


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_recovery_spans_resolve(architecture):
    system, __ = run_figure3(architecture)
    system.tracer.finish(system.simulator.now)
    episodes = system.tracer.by_category("recovery")
    durations = [s for s in episodes if s.name.startswith("recovery:")]
    assert durations
    assert all("resolved" in s.attrs or s.attrs.get("auto_closed")
               for s in durations)
    recoveries = system.registry.get(
        "crew_recovery_duration", architecture=architecture
    )
    assert recoveries is not None and recoveries.count > 0


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_tracing_disabled_emits_nothing(architecture):
    system, ids = run_figure3(architecture, trace=False)
    assert len(system.tracer) == 0
    assert len(system.registry) == 0
    # The flight recorder deliberately survives the trace switch: its
    # post-mortem snapshots (figure3 injects a step failure) are the only
    # records allowed through.
    assert all(rec.kind == "flight.snapshot" for rec in system.trace)
    # the run itself is unaffected
    assert all(system.outcome(i).status.value == "committed" for i in ids)


def test_outcomes_identical_with_and_without_tracing():
    """Observability must not perturb the simulation."""
    for architecture in ALL_ARCHITECTURES:
        outcomes = []
        for trace in (True, False):
            system, ids = run_figure3(architecture, trace=trace)
            outcomes.append([
                (system.outcome(i).status.value,
                 tuple(sorted(system.outcome(i).outputs.items())))
                for i in ids
            ])
        assert outcomes[0] == outcomes[1], architecture


def branch_race_schema():
    """O forks a quick F1, which fails once and rolls back to O, and a
    long H1 on another agent, still running when the rollback halts it."""
    builder = SchemaBuilder("W", inputs=["x"])
    builder.step("O", program="W.O", inputs=["WF.x"], outputs=["o"])
    builder.step("F1", program="W.F1", inputs=["O.o"], outputs=["o"], cost=1.0)
    builder.step("H1", program="W.H1", inputs=["O.o"], outputs=["o"], cost=150.0)
    builder.step("J", program="W.J", join="and", inputs=["F1.o", "H1.o"], outputs=["o"])
    builder.parallel("O", ["F1", "H1"])
    builder.join("J", ["F1", "H1"], kind="and")
    builder.rollback_point("F1", "O")
    return builder.build()


def h1_spans(system, fail_f1=False, plan=None):
    schema = branch_race_schema()
    system.register_schema(schema)
    register_programs(system, schema, behaviors={
        "F1": FailEveryNth(NoopProgram(("o",)), {1} if fail_f1 else set()),
    })
    if plan is not None:
        system.inject_faults(FaultPlan.parse(plan))
    instance = system.start_workflow("W", {"x": 1})
    system.run()
    assert system.outcome(instance).committed
    return [(s.node, s.start, s.end, s.attrs.get("status"), s.attrs.get("auto_closed"))
            for s in system.tracer.by_category("step") if s.name.endswith("/H1")]


def test_a_distributed_relaunch_cancels_the_halted_execution():
    system = make_system("distributed", seed=31)
    first, second = h1_spans(system, fail_f1=True)
    assert first[3] == "cancelled" and first[2] == second[1]  # at the relaunch
    assert second[3] == "done"


def test_a_crashed_agent_leaves_its_step_to_the_workflow_span():
    """The crash loses H1's execution: its span stays open until the
    workflow ends, and the relaunch after recovery opens a new one."""
    config = SystemConfig(seed=31, step_status_timeout=5.0, step_status_poll_interval=2.0)
    system = make_system("distributed", config=config)
    first, second = h1_spans(system, plan="crash=agent-002@3+2")
    assert first[0] == second[0] == "agent-002"
    assert first[3] is None and first[4] is True and first[2] > second[2]
    assert second[3] == "done"


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_an_abort_drops_the_instances_open_step_spans(architecture):
    """Aborted while both branches run: a distributed agent's halted
    execution never reports, and the outcome drops what is still open."""
    system = make_system(architecture, seed=1)
    schema = branch_race_schema()
    system.register_schema(schema)
    register_programs(system, schema)
    instance = system.start_workflow("W", {"x": 1})
    system.abort_workflow(instance, delay=8.0)
    system.simulator.run()  # the clock alone, so only the outcome drains
    assert system.outcome(instance).status.name == "ABORTED"
    assert system._step_spans == {}
