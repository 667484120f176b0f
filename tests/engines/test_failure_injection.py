"""Adversarial failure-injection tests: races the paper's protocols must survive."""

from repro.core.programs import FailEveryNth, FunctionProgram, NoopProgram
from repro.engines import SystemConfig
from repro.engines.distributed import elect_executor
from repro.model import AlwaysReexecute, SchemaBuilder
from repro.storage.tables import InstanceStatus
from tests.conftest import linear_schema, make_system, register_programs


def test_rollback_races_inflight_parallel_branch():
    """A rollback fires while the sibling branch's packets are in flight;
    the halt probes + invalidation rounds must keep state consistent."""
    system = make_system("distributed", seed=31, num_agents=8, agents_per_step=2)
    builder = SchemaBuilder("W", inputs=["x"])
    builder.step("O", program="W.O", inputs=["WF.x"], outputs=["o"])
    # Fast failing branch vs slow healthy branch.
    builder.step("F1", program="W.F1", inputs=["O.o"], outputs=["o"], cost=1.0)
    builder.step("H1", program="W.H1", inputs=["O.o"], outputs=["o"], cost=15.0)
    builder.step("H2", program="W.H2", inputs=["H1.o"], outputs=["o"], cost=15.0)
    builder.step("J", program="W.J", join="and", inputs=["F1.o", "H2.o"],
                 outputs=["o"])
    builder.parallel("O", ["F1", "H1"])
    builder.arc("H1", "H2")
    builder.join("J", ["F1", "H2"], kind="and")
    builder.rollback_point("F1", "O")
    schema = builder.build()
    system.register_schema(schema)
    register_programs(system, schema, behaviors={
        "F1": FailEveryNth(NoopProgram(("o",)), {1}),
    })
    instance = system.start_workflow("W", {"x": 1})
    system.run()
    assert system.outcome(instance).committed
    # J executed exactly once despite the racing recovery.
    j_runs = [r for r in system.trace.filter(kind="step.dispatch")
              if r.detail["step"] == "J"]
    assert len(j_runs) == 1


def test_double_failure_two_recovery_rounds():
    """The failing step fails twice: two rollbacks, two recovery epochs."""
    system = make_system("distributed", seed=32)
    builder = SchemaBuilder("W", inputs=["x"])
    builder.step("A", program="W.A", inputs=["WF.x"], outputs=["o"],
                 cr_policy=AlwaysReexecute())
    builder.step("B", program="W.B", inputs=["A.o"], outputs=["o"])
    builder.sequence("A", "B")
    builder.rollback_point("B", "A")
    schema = builder.build()
    system.register_schema(schema)
    register_programs(system, schema, behaviors={
        "B": FailEveryNth(NoopProgram(("o",)), {1, 2}),
    })
    instance = system.start_workflow("W", {"x": 1})
    system.run()
    assert system.outcome(instance).committed
    assert system.trace.count("rollback") == 2
    b_runs = [r for r in system.trace.filter(kind="step.dispatch")
              if r.detail["step"] == "B"]
    assert len(b_runs) == 3  # fail, fail, success


def test_failure_in_loop_body():
    """A step failing inside a loop: rollback and loop iteration interact."""
    system = make_system("distributed", seed=33)
    builder = SchemaBuilder("W", inputs=["x"])
    builder.step("A", program="W.A", inputs=["WF.x"], outputs=["n"])
    builder.step("B", program="W.B", inputs=["A.n"], outputs=["n"])
    builder.sequence("A", "B")
    builder.loop("B", "A", while_condition="B.n < 2")
    builder.rollback_point("B", "B")  # retry in place
    builder.output("n", "B.n")
    schema = builder.build()
    system.register_schema(schema)
    state = {"n": 0}

    def count(inputs, ctx):
        state["n"] += 1
        return {"n": state["n"]}

    system.register_program("W.A", NoopProgram(("n",)))
    system.register_program("W.B", FailEveryNth(FunctionProgram(count), {1}))
    instance = system.start_workflow("W", {"x": 1})
    system.run()
    outcome = system.outcome(instance)
    assert outcome.committed
    assert outcome.outputs["n"] == 2


def test_abort_during_recovery():
    """User abort lands while the workflow is mid-rollback."""
    system = make_system("distributed", seed=34)
    builder = SchemaBuilder("W", inputs=["x"])
    builder.step("A", program="W.A", inputs=["WF.x"], outputs=["o"])
    builder.step("B", program="W.B", inputs=["A.o"], outputs=["o"],
                 cost=50.0, cr_policy=AlwaysReexecute())
    builder.step("C", program="W.C", inputs=["B.o"], outputs=["o"])
    builder.sequence("A", "B", "C")
    builder.rollback_point("C", "B")
    builder.abort_compensation("A", "B")
    schema = builder.build()
    system.register_schema(schema)
    register_programs(system, schema, behaviors={
        "C": FailEveryNth(NoopProgram(("o",)), {1}),
    })
    instance = system.start_workflow("W", {"x": 1})
    # C fails at ~12.x; B re-executes (slow); abort lands mid-re-execution.
    system.abort_workflow(instance, delay=14.0)
    system.run()
    assert system.outcome(instance).status is InstanceStatus.ABORTED


def test_crash_of_coordination_agent_recovers_summaries():
    """The coordination agent crashes after commit; its durable summary
    survives, so a late abort request is still rejected."""
    system = make_system("distributed", seed=35)
    schema = linear_schema(steps=3)
    system.register_schema(schema)
    register_programs(system, schema)
    instance = system.start_workflow("Linear", {"x": 1})
    system.run()
    assert system.outcome(instance).committed
    coordination_agent = system.coordination_agent_for("Linear")
    coordination_agent.crash()
    coordination_agent.recover()
    assert system.workflow_status(instance) is InstanceStatus.COMMITTED
    system.abort_workflow(instance)
    system.run()
    assert system.outcome(instance).committed  # rejection, not abort
    assert system.trace.count("abort.rejected") == 1


def test_crash_during_rollback_recovers_and_finishes():
    """An agent crashes between receiving HaltThread and re-execution."""
    system = make_system("distributed", seed=36,
                         config=SystemConfig(seed=36, step_status_timeout=8.0,
                                             step_status_poll_interval=4.0))
    builder = SchemaBuilder("W", inputs=["x"])
    builder.step("A", program="W.A", inputs=["WF.x"], outputs=["o"])
    builder.step("B", program="W.B", inputs=["A.o"], outputs=["o"])
    builder.step("C", program="W.C", inputs=["B.o"], outputs=["o"])
    builder.sequence("A", "B", "C")
    builder.rollback_point("C", "B")
    schema = builder.build()
    system.register_schema(schema)
    register_programs(system, schema, behaviors={
        "C": FailEveryNth(NoopProgram(("o",)), {1}),
    })
    instance = system.start_workflow("W", {"x": 1})
    b_agent = elect_executor(system.assignment.eligible("W", "B"), "W",
                             instance, "B")
    # C fails ~3.3; WorkflowRollback reaches B's agent ~4.3.  Crash it just
    # after, recover later; the durable AGDB replays and re-executes.
    system.simulator.schedule(4.5, lambda: (
        system.agent(b_agent).crash() if system.agent(b_agent).is_up else None
    ))
    system.simulator.schedule(30.0, lambda: (
        system.agent(b_agent).recover() if not system.agent(b_agent).is_up else None
    ))
    system.run()
    assert system.outcome(instance).committed


def test_many_concurrent_instances_with_failures():
    """Throughput smoke: 30 concurrent failure-prone instances all finish."""
    system = make_system("distributed", seed=37, num_agents=10, agents_per_step=2)
    builder = SchemaBuilder("W", inputs=["x"])
    builder.step("A", program="W.A", inputs=["WF.x"], outputs=["o"])
    builder.step("B", program="W.B", inputs=["A.o"], outputs=["o"])
    builder.step("C", program="W.C", inputs=["B.o"], outputs=["o"])
    builder.sequence("A", "B", "C")
    builder.rollback_point("C", "B")
    schema = builder.build()
    system.register_schema(schema)
    register_programs(system, schema, behaviors={
        "C": FailEveryNth(NoopProgram(("o",)), {1}),
    })
    instances = [system.start_workflow("W", {"x": i}, delay=i * 0.3)
                 for i in range(30)]
    system.run()
    assert all(system.outcome(i).committed for i in instances)
    assert system.trace.count("rollback") == 30
