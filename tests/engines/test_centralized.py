"""Integration tests for centralized workflow control."""

from repro.core.programs import FailEveryNth, FunctionProgram, NoopProgram
from repro.engines import CentralizedControlSystem, SystemConfig
from repro.model import AlwaysReexecute, SchemaBuilder
from repro.runtime.metrics import Mechanism
from repro.storage.tables import InstanceStatus
from tests.conftest import (
    branching_schema,
    linear_schema,
    parallel_schema,
    register_programs,
)


def make(seed=1, **kwargs):
    return CentralizedControlSystem(SystemConfig(seed=seed), **kwargs)


def run_linear(system, steps=3, inputs=None):
    schema = linear_schema(steps=steps)
    system.register_schema(schema)
    register_programs(system, schema)
    instance = system.start_workflow("Linear", inputs or {"x": 1})
    system.run()
    return instance


def test_linear_workflow_commits():
    system = make()
    instance = run_linear(system)
    outcome = system.outcome(instance)
    assert outcome.committed
    assert outcome.outputs["result"].startswith("S3.out")


def test_message_count_matches_2sa_for_normal_execution():
    """Paper Table 4: normal execution exchanges 2·s·a messages/instance."""
    for a in (1, 2, 3):
        system = make(num_agents=4, agents_per_step=a)
        run_linear(system, steps=5)
        assert system.metrics.total_messages(Mechanism.NORMAL) == 2 * 5 * a


def test_parallel_branches_and_join():
    system = make()
    schema = parallel_schema()
    system.register_schema(schema)
    register_programs(system, schema)
    instance = system.start_workflow("Fanout", {"x": 1})
    system.run()
    assert system.outcome(instance).committed
    done = [r.detail["step"] for r in system.trace.filter(kind="step.done")]
    assert done.index("End") == len(done) - 1
    assert set(done) == {"Start", "A", "B", "End"}


def test_xor_branch_takes_condition_path():
    system = make()
    schema = branching_schema()
    system.register_schema(schema)
    register_programs(system, schema, behaviors={
        "S2": FunctionProgram(lambda i, c: {"route": "top"}),
    })
    instance = system.start_workflow("Branchy", {"load": 1})
    system.run()
    done = {r.detail["step"] for r in system.trace.filter(kind="step.done")}
    assert "S3" in done and "S5" not in done
    assert system.outcome(instance).committed


def test_failure_rollback_reexecute_and_branch_change():
    """The full Figure-3 story, centrally controlled."""
    system = make()
    schema = branching_schema()
    system.register_schema(schema)
    register_programs(system, schema, behaviors={
        "S2": FunctionProgram(
            lambda i, c: {"route": "top" if c.attempt == 1 else "bottom"}
        ),
        "S4": FailEveryNth(NoopProgram(("y",)), {1}),
    })
    # S2 must actually re-execute for the branch to flip.
    from repro.model.policies import AlwaysReexecute as AR

    object.__setattr__(schema, "cr_policies", {**schema.cr_policies, "S2": AR()})
    instance = system.start_workflow("Branchy", {"load": 1})
    system.run()
    assert system.outcome(instance).committed
    assert system.trace.count("rollback") == 1
    # Abandoned branch step S3 compensated by CompensateThread.
    compensated = [r.detail["step"] for r in system.trace.filter(kind="step.compensate")]
    assert "S3" in compensated


def test_ocr_reuse_skips_agent_messages():
    """REUSE re-executions generate no dispatch messages (the OCR saving)."""
    system = make()
    builder = SchemaBuilder("W", inputs=["x"])
    builder.step("A", program="W.A", inputs=["WF.x"], outputs=["o"])
    builder.step("B", program="W.B", inputs=["A.o"], outputs=["o"])
    builder.step("C", program="W.C", inputs=["B.o"], outputs=["o"])
    builder.sequence("A", "B", "C")
    builder.rollback_point("C", "A")
    builder.output("r", "C.o")
    schema = builder.build()
    system.register_schema(schema)
    register_programs(system, schema, behaviors={
        "C": FailEveryNth(NoopProgram(("o",)), {1}),
    })
    instance = system.start_workflow("W", {"x": 1})
    system.run()
    assert system.outcome(instance).committed
    # A and B are reused; only C re-executes under FAILURE.
    assert system.trace.count("step.reuse") == 2
    assert system.metrics.total_messages(Mechanism.FAILURE) == 2  # dispatch+result


def test_compensation_set_reverse_order():
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
    compensated = [r.detail["step"] for r in system.trace.filter(kind="step.compensate")]
    # Dependent set compensates in reverse execution order: B before A.
    assert compensated == ["B", "A"]


def test_unhandled_failure_defaults_to_saga_abort():
    system = make()
    schema = linear_schema(steps=3)  # no rollback points
    system.register_schema(schema)
    register_programs(system, schema, behaviors={
        "S3": FailEveryNth(NoopProgram(("out",)), {1, 2, 3, 4}),
    })
    instance = system.start_workflow("Linear", {"x": 1})
    system.run()
    outcome = system.outcome(instance)
    assert outcome.status is InstanceStatus.ABORTED
    compensated = [r.detail["step"] for r in system.trace.filter(kind="step.compensate")]
    assert compensated == ["S2", "S1"]  # reverse execution order


def test_user_abort_compensates_declared_steps():
    system = make()
    builder = SchemaBuilder("W", inputs=["x"])
    builder.step("A", program="W.A", inputs=["WF.x"], outputs=["o"])
    builder.step("B", program="W.B", inputs=["A.o"], outputs=["o"], cost=100.0)
    builder.step("C", program="W.C", inputs=["B.o"])
    builder.sequence("A", "B", "C")
    builder.abort_compensation("A", "B")
    schema = builder.build()
    system.register_schema(schema)
    register_programs(system, schema)
    instance = system.start_workflow("W", {"x": 1})
    system.abort_workflow(instance, delay=3.0)  # while B is executing
    system.run()
    assert system.outcome(instance).status is InstanceStatus.ABORTED
    compensated = [r.detail["step"] for r in system.trace.filter(kind="step.compensate")]
    assert compensated == ["A"]  # only A had completed
    assert system.metrics.total_messages(Mechanism.ABORT) == 2  # request + ack


def test_result_landing_during_an_abort_stays_stale():
    # B's result lands while the abort still waits on A's compensation:
    # the abort halted B, so the result must not count, though B's
    # in-flight record is cancelled only when the abort ends.
    system = make()
    builder = SchemaBuilder("W", inputs=["x"])
    builder.step("A", program="W.A", inputs=["WF.x"], outputs=["o"],
                 compensation_cost=20.0)
    builder.step("B", program="W.B", inputs=["A.o"], outputs=["o"], cost=10.0)
    builder.step("C", program="W.C", inputs=["B.o"])
    builder.sequence("A", "B", "C")
    builder.abort_compensation("A", "B")
    schema = builder.build()
    system.register_schema(schema)
    register_programs(system, schema)
    instance = system.start_workflow("W", {"x": 1})
    system.abort_workflow(instance, delay=3.0)  # while B is executing
    system.run()
    assert system.outcome(instance).status is InstanceStatus.ABORTED
    [request] = system.trace.filter(kind="workflow.abort.request")
    [stale] = system.trace.filter(kind="step.stale_result")
    [aborted] = system.trace.filter(kind="workflow.aborted")
    assert stale.detail["step"] == "B"
    assert request.time < stale.time < aborted.time
    done = [r.detail["step"] for r in system.trace.filter(kind="step.done")]
    assert done == ["A"]
    compensated = [r.detail["step"] for r in system.trace.filter(kind="step.compensate")]
    assert compensated == ["A"]


def test_abort_after_commit_rejected():
    system = make()
    instance = run_linear(system)
    system.abort_workflow(instance)
    system.run()
    assert system.outcome(instance).committed
    assert system.trace.count("abort.rejected") == 1


def test_change_inputs_triggers_partial_rollback():
    system = make()
    builder = SchemaBuilder("W", inputs=["x", "tune"])
    builder.step("A", program="W.A", inputs=["WF.x"], outputs=["o"])
    builder.step("B", program="W.B", inputs=["A.o", "WF.tune"], outputs=["o"])
    builder.step("C", program="W.C", inputs=["B.o"], outputs=["o"], cost=500.0)
    builder.sequence("A", "B", "C")
    builder.output("r", "C.o")
    schema = builder.build()
    system.register_schema(schema)
    register_programs(system, schema, behaviors={
        "B": FunctionProgram(lambda i, c: {"o": i["WF.tune"]}),
        "C": FunctionProgram(lambda i, c: {"o": i["B.o"]}),
    })
    instance = system.start_workflow("W", {"x": 1, "tune": 0})
    # C (slow) is still executing when the amendment arrives.
    system.change_inputs(instance, {"tune": 42}, delay=20.0)
    system.run()
    outcome = system.outcome(instance)
    assert outcome.committed
    assert outcome.outputs["r"] == 42  # re-executed with the new input
    assert system.trace.count("rollback") == 1
    # A is upstream of the rollback origin: untouched, never re-dispatched.
    a_dispatches = [r for r in system.trace.filter(kind="step.dispatch")
                    if r.detail["step"] == "A"]
    assert len(a_dispatches) == 1
    # B re-executed (its input changed), so it was dispatched twice.
    b_dispatches = [r for r in system.trace.filter(kind="step.dispatch")
                    if r.detail["step"] == "B"]
    assert len(b_dispatches) == 2


def test_change_inputs_before_consumer_runs_is_cheap():
    system = make()
    builder = SchemaBuilder("W", inputs=["x", "tune"])
    builder.step("A", program="W.A", inputs=["WF.x"], outputs=["o"], cost=50.0)
    builder.step("B", program="W.B", inputs=["A.o", "WF.tune"], outputs=["o"])
    builder.sequence("A", "B")
    schema = builder.build()
    system.register_schema(schema)
    register_programs(system, schema)
    instance = system.start_workflow("W", {"x": 1, "tune": 0})
    system.change_inputs(instance, {"tune": 1}, delay=1.0)  # A still running
    system.run()
    assert system.outcome(instance).committed
    assert system.trace.count("rollback") == 0  # B hadn't run: nothing to roll back


def test_loop_reexecutes_body_until_condition_false():
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
        "A": NoopProgram(("n",)),
        "B": FunctionProgram(count),
    })
    instance = system.start_workflow("W", {"x": 1})
    system.run()
    outcome = system.outcome(instance)
    assert outcome.committed
    assert outcome.outputs["n"] == 3
    assert system.trace.count("loop.iterate") == 2


def test_nested_workflow_commits_parent():
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
    # the nested child committed too
    nested = [i for i in system.outcomes if i.startswith(instance + ".Sub")]
    assert len(nested) == 1
    assert system.outcomes[nested[0]].committed


def test_engine_crash_forward_recovery():
    system = make()
    builder = SchemaBuilder("W", inputs=["x"])
    builder.step("A", program="W.A", inputs=["WF.x"], outputs=["o"])
    builder.step("B", program="W.B", inputs=["A.o"], outputs=["o"], cost=30.0)
    builder.step("C", program="W.C", inputs=["B.o"], outputs=["o"])
    builder.sequence("A", "B", "C")
    builder.output("r", "C.o")
    schema = builder.build()
    system.register_schema(schema)
    register_programs(system, schema)
    instance = system.start_workflow("W", {"x": 1})

    def crash_and_recover():
        # The WFDB (class + instance tables) is durable; only volatile
        # rule-engine state is lost and rebuilt by forward recovery.
        system.engine.crash()
        system.engine.recover()

    # Crash mid-run (while B is executing), then recover.
    system.simulator.schedule(3.0, crash_and_recover)
    system.run()
    outcome = system.outcome(instance)
    assert outcome.committed
    # A completed before the crash: its result was recovered and reused.
    executes = [r for r in system.trace.filter(kind="step.dispatch")
                if r.detail["step"] == "A"]
    assert len(executes) == 1


def test_workflow_status_reflects_lifecycle():
    system = make()
    schema = linear_schema()
    system.register_schema(schema)
    register_programs(system, schema)
    instance = system.start_workflow("Linear", {"x": 1})
    system.run(until=0.5)
    assert system.workflow_status(instance) is InstanceStatus.RUNNING
    system.run()
    assert system.workflow_status(instance) is InstanceStatus.COMMITTED


def test_load_probe_selects_least_loaded_agent():
    system = make(num_agents=2, agents_per_step=2)
    schema = linear_schema(steps=1)
    system.register_schema(schema)
    register_programs(system, schema)
    # Occupy agent-000 with a long step from another schema.
    other = linear_schema(name="Other", steps=1)
    system.register_schema(other)
    busy = SchemaBuilder("Busy", inputs=["x"])
    busy.step("L", program="Busy.L", inputs=["WF.x"], cost=1000.0)
    system.register_schema(busy.build())
    system.register_program("Busy.L", NoopProgram(()))
    register_programs(system, other)
    system.start_workflow("Busy", {"x": 1})
    instance = system.start_workflow("Linear", {"x": 1}, delay=5.0)
    system.run(until=200.0)
    dispatches = {
        (r.detail["instance"], r.detail["step"]): r.detail["agent"]
        for r in system.trace.filter(kind="step.dispatch")
    }
    busy_agent = dispatches[("Busy-1", "L")]
    linear_agent = dispatches[(instance, "S1")]
    assert linear_agent != busy_agent
