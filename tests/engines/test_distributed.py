"""Integration tests for distributed workflow control."""

from repro.core.programs import FailEveryNth, FunctionProgram, NoopProgram
from repro.engines import DistributedControlSystem, SystemConfig
from repro.engines.distributed import elect_executor
from repro.model import AlwaysReexecute, SchemaBuilder
from repro.runtime.metrics import Mechanism
from repro.storage.tables import InstanceStatus
from tests.conftest import (
    branching_schema,
    linear_schema,
    parallel_schema,
    register_programs,
)


def make(seed=2, num_agents=6, agents_per_step=2, **config_kwargs):
    return DistributedControlSystem(
        SystemConfig(seed=seed, **config_kwargs),
        num_agents=num_agents,
        agents_per_step=agents_per_step,
    )


def test_governed_steps_are_counted_per_schema_and_recounted_on_a_new_spec():
    from repro.model.coordination_spec import RelativeOrderSpec

    system = make()
    schema = linear_schema(steps=4)
    system.register_schema(schema)
    register_programs(system, schema)
    compiled = system.compiled("Linear")
    assert system.governed_steps(compiled) == 0
    first = system.start_workflow("Linear", {"x": 1})
    system.run()
    system.add_coordination(RelativeOrderSpec(
        name="fifo", schema_a="Linear", schema_b="Linear",
        steps_a=("S2", "S3"), steps_b=("S2", "S3"), conflict_key="WF.x",
    ))
    assert system.governed_steps(compiled) == 2
    second = system.start_workflow("Linear", {"x": 1})
    system.run()
    assert system.outcome(first).committed and system.outcome(second).committed
    governed = {agent.runtimes[second].governed
                for agent in system.agents if second in agent.runtimes}
    assert governed == {2}
    # every agent of an instance hosts what the directory says, per schema
    for agent in system.agents:
        assert agent.hosted_steps(compiled) is agent.hosted_steps(compiled)


def test_linear_workflow_commits_and_navigates_by_packets():
    system = make()
    schema = linear_schema(steps=4)
    system.register_schema(schema)
    register_programs(system, schema)
    instance = system.start_workflow("Linear", {"x": 1})
    system.run()
    assert system.outcome(instance).committed
    # Every step executed exactly once.
    executes = [r.detail["step"] for r in system.trace.filter(kind="step.execute")]
    assert sorted(executes) == ["S1", "S2", "S3", "S4"]


def test_normal_message_count_bounded_by_sa_plus_f():
    """Paper Table 6: s·a + f messages per instance (self-sends are local,
    so the measured count is at most the formula)."""
    system = make(num_agents=12, agents_per_step=2)
    schema = linear_schema(steps=6)
    system.register_schema(schema)
    register_programs(system, schema)
    system.start_workflow("Linear", {"x": 1})
    system.run()
    measured = system.metrics.total_messages(Mechanism.NORMAL)
    assert measured <= 6 * 2 + 1
    assert measured >= 6  # at least one hop per step


def test_election_is_deterministic_and_stable():
    eligible = ("a", "b", "c")
    pick1 = elect_executor(eligible, "W", "i1", "S1")
    pick2 = elect_executor(eligible, "W", "i1", "S1")
    assert pick1 == pick2
    # Down agents are skipped deterministically.
    alt = elect_executor(eligible, "W", "i1", "S1", is_up=lambda a: a != pick1)
    assert alt != pick1


def test_coordination_agent_is_start_step_agent():
    system = make()
    schema = linear_schema()
    system.register_schema(schema)
    register_programs(system, schema)
    coordination_agent = system.coordination_agent_for("Linear")
    assert coordination_agent.name == system.assignment.eligible("Linear", "S1")[0]


def test_parallel_branches_join_across_agents():
    system = make()
    schema = parallel_schema()
    system.register_schema(schema)
    register_programs(system, schema)
    instance = system.start_workflow("Fanout", {"x": 1})
    system.run()
    assert system.outcome(instance).committed


def test_terminal_agents_report_step_completed():
    system = make(num_agents=8)
    schema = parallel_schema()
    system.register_schema(schema)
    register_programs(system, schema)
    system.start_workflow("Fanout", {"x": 1})
    system.run()
    assert system.trace.count("terminal.reported") == 1


def test_figure3_distributed_rollback_and_branch_change():
    system = make()
    schema = branching_schema()
    system.register_schema(schema)
    register_programs(system, schema, behaviors={
        "S2": FunctionProgram(
            lambda i, c: {"route": "top" if c.attempt == 1 else "bottom"}
        ),
        "S4": FailEveryNth(NoopProgram(("y",)), {1}),
    })
    object.__setattr__(schema, "cr_policies",
                       {**schema.cr_policies, "S2": AlwaysReexecute()})
    instance = system.start_workflow("Branchy", {"load": 1})
    system.run()
    assert system.outcome(instance).committed
    assert system.trace.count("rollback") >= 1
    done_steps = [r.detail["step"] for r in system.trace.filter(kind="step.done")]
    assert "S5" in done_steps  # the other branch ran on re-execution


def test_halt_thread_probes_quiesce_parallel_branch():
    """A failure on one branch halts the other (the paper's race handling)."""
    system = make(num_agents=8)
    builder = SchemaBuilder("W", inputs=["x"])
    builder.step("O", program="W.O", inputs=["WF.x"], outputs=["o"])
    builder.step("A1", program="W.A1", inputs=["O.o"], outputs=["o"])
    builder.step("B1", program="W.B1", inputs=["O.o"], outputs=["o"], cost=30.0)
    builder.step("B2", program="W.B2", inputs=["B1.o"], outputs=["o"], cost=30.0)
    builder.step("J", program="W.J", join="and", inputs=["A1.o", "B2.o"],
                 outputs=["o"])
    builder.parallel("O", ["A1", "B1"])
    builder.arc("B1", "B2")
    builder.join("J", ["A1", "B2"], kind="and")
    builder.rollback_point("A1", "O")
    schema = builder.build()
    system.register_schema(schema)
    register_programs(system, schema, behaviors={
        "A1": FailEveryNth(NoopProgram(("o",)), {1}),
    })
    instance = system.start_workflow("W", {"x": 1})
    system.run()
    assert system.outcome(instance).committed
    assert system.trace.count("halt.thread") >= 1
    assert system.metrics.total_messages(Mechanism.FAILURE) > 0


def test_compensate_set_chain_reverse_order():
    system = make()
    builder = SchemaBuilder("W", inputs=["x"])
    builder.step("A", program="W.A", inputs=["WF.x"], outputs=["o"],
                 cr_policy=AlwaysReexecute())
    builder.step("B", program="W.B", inputs=["A.o"], outputs=["o"])
    builder.step("C", program="W.C", inputs=["B.o"], outputs=["o"])
    builder.sequence("A", "B", "C")
    builder.compensation_set("A", "B")
    builder.rollback_point("C", "A")
    schema = builder.build()
    system.register_schema(schema)
    register_programs(system, schema, behaviors={
        "C": FailEveryNth(NoopProgram(("o",)), {1}),
    })
    instance = system.start_workflow("W", {"x": 1})
    system.run()
    assert system.outcome(instance).committed
    compensations = [
        (r.time, r.detail["step"])
        for r in system.trace.filter(kind="step.compensated")
    ]
    steps = [s for __, s in sorted(compensations)]
    assert steps == ["B", "A"]  # reverse execution order via the chain


def test_ocr_reuse_in_distributed_recovery():
    system = make()
    builder = SchemaBuilder("W", inputs=["x"])
    builder.step("A", program="W.A", inputs=["WF.x"], outputs=["o"])
    builder.step("B", program="W.B", inputs=["A.o"], outputs=["o"])
    builder.step("C", program="W.C", inputs=["B.o"], outputs=["o"])
    builder.sequence("A", "B", "C")
    builder.rollback_point("C", "A")
    schema = builder.build()
    system.register_schema(schema)
    register_programs(system, schema, behaviors={
        "C": FailEveryNth(NoopProgram(("o",)), {1}),
    })
    instance = system.start_workflow("W", {"x": 1})
    system.run()
    assert system.outcome(instance).committed
    reused = [r.detail["step"] for r in system.trace.filter(kind="step.reuse")]
    assert set(reused) == {"A", "B"}


def test_unhandled_failure_aborts_via_coordination_agent():
    system = make()
    schema = linear_schema(steps=3)
    system.register_schema(schema)
    register_programs(system, schema, behaviors={
        "S3": FailEveryNth(NoopProgram(("out",)), {1, 2, 3}),
    })
    instance = system.start_workflow("Linear", {"x": 1})
    system.run()
    assert system.outcome(instance).status is InstanceStatus.ABORTED
    compensated = [r.detail["step"] for r in system.trace.filter(kind="step.compensated")]
    assert compensated == ["S2", "S1"]


def test_user_abort_sends_compensate_to_all_eligible():
    system = make(num_agents=6, agents_per_step=2)
    builder = SchemaBuilder("W", inputs=["x"])
    builder.step("A", program="W.A", inputs=["WF.x"], outputs=["o"])
    builder.step("B", program="W.B", inputs=["A.o"], outputs=["o"], cost=200.0)
    builder.sequence("A", "B")
    builder.abort_compensation("A")
    schema = builder.build()
    system.register_schema(schema)
    register_programs(system, schema)
    instance = system.start_workflow("W", {"x": 1})
    system.abort_workflow(instance, delay=5.0)
    system.run()
    assert system.outcome(instance).status is InstanceStatus.ABORTED
    # The coordination agent addressed both eligible agents of A.
    assert system.metrics.interface_messages("StepCompensate") >= 1
    compensated = [r.detail["step"] for r in system.trace.filter(kind="step.compensated")]
    assert compensated == ["A"]


def test_change_inputs_rolls_back_origin_step():
    system = make()
    builder = SchemaBuilder("W", inputs=["x", "tune"])
    builder.step("A", program="W.A", inputs=["WF.x"], outputs=["o"])
    builder.step("B", program="W.B", inputs=["A.o", "WF.tune"], outputs=["o"])
    builder.step("C", program="W.C", inputs=["B.o"], outputs=["o"], cost=300.0)
    builder.sequence("A", "B", "C")
    builder.output("r", "C.o")
    schema = builder.build()
    system.register_schema(schema)
    register_programs(system, schema, behaviors={
        "B": FunctionProgram(lambda i, c: {"o": i["WF.tune"]}),
        "C": FunctionProgram(lambda i, c: {"o": i["B.o"]}),
    })
    instance = system.start_workflow("W", {"x": 1, "tune": 0})
    system.change_inputs(instance, {"tune": 7}, delay=10.0)
    system.run()
    outcome = system.outcome(instance)
    assert outcome.committed
    assert outcome.outputs["r"] == 7
    assert system.metrics.total_messages(Mechanism.INPUT_CHANGE) >= 1


def test_loops_work_across_agents():
    system = make()
    builder = SchemaBuilder("W", inputs=["x"])
    builder.step("A", program="W.A", inputs=["WF.x"], outputs=["n"])
    builder.step("B", program="W.B", inputs=["A.n"], outputs=["n"])
    builder.sequence("A", "B")
    builder.loop("B", "A", while_condition="B.n < 3")
    builder.output("n", "B.n")
    schema = builder.build()
    system.register_schema(schema)
    counter = {"n": 0}

    def count(i, c):
        counter["n"] += 1
        return {"n": counter["n"]}

    register_programs(system, schema, behaviors={
        "B": FunctionProgram(count),
    })
    instance = system.start_workflow("W", {"x": 1})
    system.run()
    outcome = system.outcome(instance)
    assert outcome.committed
    assert outcome.outputs["n"] == 3


def test_nested_workflow_distributed():
    system = make()
    child = SchemaBuilder("Child", inputs=["a"])
    child.step("C1", program="Child.C1", inputs=["WF.a"], outputs=["o"])
    child.output("co", "C1.o")
    system.register_schema(child.build())
    parent = SchemaBuilder("Parent", inputs=["x"])
    parent.step("P1", program="Parent.P1", inputs=["WF.x"], outputs=["o"])
    parent.step("Sub", subworkflow="Child", inputs=["P1.o"], outputs=["co"])
    parent.step("P2", program="Parent.P2", inputs=["Sub.co"], outputs=["o"])
    parent.sequence("P1", "Sub", "P2")
    parent.output("r", "P2.o")
    system.register_schema(parent.build())
    for name in ("Child.C1", "Parent.P1", "Parent.P2"):
        system.register_program(name, NoopProgram(("o",)))
    instance = system.start_workflow("Parent", {"x": 1})
    system.run()
    assert system.outcome(instance).committed
    nested = [i for i in system.outcomes if i.startswith(instance + ".Sub")]
    assert len(nested) == 1 and system.outcomes[nested[0]].committed


def test_crashed_successor_excluded_from_election():
    system = make(num_agents=4, agents_per_step=2)
    schema = linear_schema(steps=3)
    system.register_schema(schema)
    register_programs(system, schema)
    instance = system.start_workflow("Linear", {"x": 1})
    executor = elect_executor(
        system.assignment.eligible("Linear", "S2"), "Linear", instance, "S2"
    )
    system.agent(executor).crash()
    system.run()
    assert system.outcome(instance).committed
    # Executed by the other eligible agent.
    s2_agents = [r.node for r in system.trace.filter(kind="step.execute")
                 if r.detail["step"] == "S2"]
    assert executor not in s2_agents


def test_update_step_waits_for_crashed_agent_recovery():
    system = make(num_agents=4, agents_per_step=2,
                  step_status_timeout=5.0, step_status_poll_interval=3.0)
    schema = linear_schema(steps=3)
    system.register_schema(schema)
    register_programs(system, schema)
    instance = system.start_workflow("Linear", {"x": 1})
    executor = elect_executor(
        system.assignment.eligible("Linear", "S2"), "Linear", instance, "S2"
    )
    # Crash just after the packet is delivered to the executor.
    system.simulator.schedule(1.15, system.agent(executor).crash)
    system.simulator.schedule(40.0, system.agent(executor).recover)
    system.run()
    assert system.outcome(instance).committed
    done = [r for r in system.trace.filter(kind="step.done")
            if r.detail["step"] == "S2"]
    assert done and done[0].time >= 40.0  # only after the recovery


def test_query_step_taken_over_by_peer():
    system = make(num_agents=4, agents_per_step=2,
                  step_status_timeout=5.0, step_status_poll_interval=3.0)
    builder = SchemaBuilder("W", inputs=["x"])
    builder.step("S1", program="W.S1", inputs=["WF.x"], outputs=["out"])
    builder.step("S2", program="W.S2", step_type="query",
                 inputs=["S1.out"], outputs=["out"])
    builder.step("S3", program="W.S3", inputs=["S2.out"], outputs=["out"])
    builder.sequence("S1", "S2", "S3")
    schema = builder.build()
    system.register_schema(schema)
    register_programs(system, schema)
    instance = system.start_workflow("W", {"x": 1})
    executor = elect_executor(
        system.assignment.eligible("W", "S2"), "W", instance, "S2"
    )
    system.simulator.schedule(1.15, system.agent(executor).crash)
    system.run(until=200.0)
    assert system.outcome(instance).committed
    assert system.trace.count("step.takeover") == 1
    done = [r for r in system.trace.filter(kind="step.done")
            if r.detail["step"] == "S2"]
    assert done[0].time < 40.0  # long before any recovery


def test_agent_recovery_resends_packets_idempotently():
    """A recovered agent re-navigates completed steps; receivers dedupe."""
    system = make(num_agents=4, agents_per_step=1)
    schema = linear_schema(steps=3)
    system.register_schema(schema)
    register_programs(system, schema)
    instance = system.start_workflow("Linear", {"x": 1})
    s1_agent = system.assignment.eligible("Linear", "S1")[0]
    system.simulator.schedule(5.0, system.agent(s1_agent).crash)
    system.simulator.schedule(10.0, system.agent(s1_agent).recover)
    system.run()
    assert system.outcome(instance).committed
    # No step executed more than once despite the resends.
    from collections import Counter

    executes = Counter(
        r.detail["step"] for r in system.trace.filter(kind="step.execute")
    )
    assert all(count == 1 for count in executes.values())


def test_purge_broadcast_clears_fragments():
    system = make(num_agents=4, agents_per_step=1, purge_interval=5.0)
    schema = linear_schema(steps=3)
    system.register_schema(schema)
    register_programs(system, schema)
    instance = system.start_workflow("Linear", {"x": 1})
    system.run()
    assert system.outcome(instance).committed
    assert system.trace.count("purge.broadcast") == 1
    for agent in system.agents:
        assert not agent.agdb.has_fragment(instance) or agent.agdb.was_purged(instance)


def test_step_status_poll_reports_and_repairs():
    system = make(num_agents=4, agents_per_step=1)
    schema = linear_schema(steps=3)
    system.register_schema(schema)
    register_programs(system, schema)
    instance = system.start_workflow("Linear", {"x": 1})
    system.run()
    # Poll S2's agents from the S3 agent after the fact.
    s3_agent = system.agent(system.assignment.eligible("Linear", "S3")[0])
    s3_agent.poll_step_status("Linear", instance, "S2")
    system.run()
    replies = system.trace.filter(kind="step.status_reply")
    assert replies and replies[0].detail["status"] in ("done", "unknown", "not_executed")


def test_stale_packet_from_older_epoch_ignored():
    system = make()
    schema = linear_schema(steps=2)
    system.register_schema(schema)
    register_programs(system, schema)
    instance = system.start_workflow("Linear", {"x": 1})
    system.run()
    from repro.core.packets import WorkflowPacket

    agent = system.agent(system.assignment.eligible("Linear", "S2")[0])
    runtime = agent.runtimes.get(instance)
    if runtime is not None:
        runtime.fragment.recovery_epoch = 5
        packet = WorkflowPacket(
            schema_name="Linear", instance_id=instance, action="execute",
            target_step="S2", recovery_epoch=1,
        )
        agent._ingest_packet(packet)
        assert system.trace.count("packet.stale") == 1


def test_workflow_status_via_coordination_agent():
    system = make()
    schema = linear_schema()
    system.register_schema(schema)
    register_programs(system, schema)
    instance = system.start_workflow("Linear", {"x": 1})
    system.run(until=0.5)
    assert system.workflow_status(instance) is InstanceStatus.RUNNING
    system.run()
    assert system.workflow_status(instance) is InstanceStatus.COMMITTED
