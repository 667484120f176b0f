"""Edge-case integration tests across architectures."""

import pytest

from repro.core.interfaces import WI
from repro.core.programs import FailEveryNth, FunctionProgram, NoopProgram
from repro.core.packets import WorkflowPacket
from repro.engines import DistributedControlSystem, SystemConfig
from repro.model import SchemaBuilder
from repro.runtime.metrics import Mechanism
from tests.conftest import linear_schema, make_system, register_programs


def test_parallel_change_inputs_partial_rollback():
    system = make_system("parallel", seed=51)
    builder = SchemaBuilder("W", inputs=["x", "tune"])
    builder.step("A", program="W.A", inputs=["WF.x"], outputs=["o"])
    builder.step("B", program="W.B", inputs=["A.o", "WF.tune"], outputs=["o"])
    builder.step("C", program="W.C", inputs=["B.o"], outputs=["o"], cost=400.0)
    builder.sequence("A", "B", "C")
    builder.output("r", "C.o")
    schema = builder.build()
    system.register_schema(schema)
    register_programs(system, schema, behaviors={
        "B": FunctionProgram(lambda i, c: {"o": i["WF.tune"]}),
        "C": FunctionProgram(lambda i, c: {"o": i["B.o"]}),
    })
    instance = system.start_workflow("W", {"x": 1, "tune": 0})
    system.change_inputs(instance, {"tune": 9}, delay=15.0)
    system.run()
    outcome = system.outcome(instance)
    assert outcome.committed and outcome.outputs["r"] == 9


def test_purged_instance_ignores_late_packet():
    system = DistributedControlSystem(
        SystemConfig(seed=52, purge_interval=2.0), num_agents=4, agents_per_step=1
    )
    schema = linear_schema(steps=2)
    system.register_schema(schema)
    register_programs(system, schema)
    instance = system.start_workflow("Linear", {"x": 1})
    system.run()
    assert system.outcome(instance).committed
    # A duplicate packet arrives long after the purge broadcast.
    agent = system.agent(system.assignment.eligible("Linear", "S2")[0])
    assert agent.agdb.was_purged(instance)
    stale = WorkflowPacket(schema_name="Linear", instance_id=instance,
                           action="execute", target_step="S2",
                           events={"WF.S": 0.0, "S1.D": 1.0})
    # must be a no-op, not a resurrection
    system.network.send("agent-000", agent.name, WI.STEP_EXECUTE.value,
                        stale.to_payload(), Mechanism.NORMAL)
    system.run()
    assert not agent.agdb.has_fragment(instance)
    assert instance not in agent.runtimes


def test_nested_step_reused_by_ocr_on_parent_rollback():
    """A rollback whose re-execution re-reaches a nested-workflow step with
    unchanged inputs reuses the child's outputs without re-running it."""
    system = make_system("centralized", seed=53)
    child = SchemaBuilder("Child", inputs=["a"])
    child.step("C1", program="Child.C1", inputs=["WF.a"], outputs=["o"])
    child.output("co", "C1.o")
    system.register_schema(child.build())
    parent = SchemaBuilder("Parent", inputs=["x"])
    parent.step("P1", program="Parent.P1", inputs=["WF.x"], outputs=["o"])
    parent.step("Sub", subworkflow="Child", inputs=["P1.o"], outputs=["co"])
    parent.step("P2", program="Parent.P2", inputs=["Sub.co"], outputs=["o"])
    parent.sequence("P1", "Sub", "P2")
    parent.rollback_point("P2", "Sub")
    system.register_schema(parent.build())
    system.register_program("Child.C1", FunctionProgram(lambda i, c: {"o": "child"}))
    system.register_program("Parent.P1", FunctionProgram(lambda i, c: {"o": "p1"}))
    system.register_program(
        "Parent.P2", FailEveryNth(NoopProgram(("o",)), {1})
    )
    instance = system.start_workflow("Parent", {"x": 1})
    system.run()
    assert system.outcome(instance).committed
    nested = [i for i in system.outcomes if i.startswith(instance + ".Sub")]
    assert len(nested) == 1  # the child ran exactly once — reused on retry
    reused = [r.detail["step"] for r in system.trace.filter(kind="step.reuse")]
    assert "Sub" in reused


def test_laws_loop_and_subworkflow_end_to_end():
    from repro.laws import load_laws

    doc = load_laws("""
    workflow Child {
      inputs a;
      step C1 program c.one reads WF.a writes o;
      output co = C1.o;
    }
    workflow Parent {
      inputs x;
      step P1 program p.one reads WF.x writes n;
      step Sub subworkflow Child reads P1.n writes co;
      step P2 program p.two reads Sub.co writes n;
      arc P1 -> Sub;
      arc Sub -> P2;
      loop P2 -> P1 while "P2.n < 2";
      output n = P2.n;
    }
    """)
    system = make_system("centralized", seed=54)
    doc.install(system)
    counter = {"n": 0}

    def count(inputs, ctx):
        counter["n"] += 1
        return {"n": counter["n"]}

    system.register_program("c.one", NoopProgram(("o",)))
    system.register_program("p.one", NoopProgram(("n",)))
    system.register_program("p.two", FunctionProgram(count))
    instance = system.start_workflow("Parent", {"x": 1})
    system.run()
    outcome = system.outcome(instance)
    assert outcome.committed
    assert outcome.outputs["n"] == 2
    # Each loop iteration spawned a fresh child instance.
    children = [i for i in system.outcomes if ".Sub#" in i]
    assert len(children) == 2


def test_abort_unknown_instance_raises_frontend_error():
    from repro.errors import FrontEndError

    system = make_system("distributed", seed=55)
    with pytest.raises(FrontEndError):
        system.abort_workflow("nope")


def test_zero_latency_network_still_correct():
    system = make_system("distributed", seed=56,
                         config=SystemConfig(seed=56, latency=0.0))
    schema = linear_schema(steps=4)
    system.register_schema(schema)
    register_programs(system, schema)
    instance = system.start_workflow("Linear", {"x": 1})
    system.run()
    assert system.outcome(instance).committed
