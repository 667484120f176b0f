"""Load probes that outlive a rollback or an abort.

With more than one eligible agent, a central engine probes their loads
(``StateInformation``) and dispatches once every reply is in.  A rollback
over the probed step, or an abort of its instance, retires the probe, so
its replies dispatch nothing: no step runs on inputs the rollback
replaced, and nothing is dispatched into an aborting instance.  A probe of
a step the rollback did not reach still dispatches.

With ``successor_selection="load"`` a distributed agent probes before
sending a successor's packets; the packets are built when sent, so a probe
that outlives a rollback carries the new epoch and cannot fire the
successor from the rolled-back completion.
"""

import pytest

from repro.analysis.causal import CausalTrace
from repro.analysis.invariants import check_invariants
from repro.core.programs import FunctionProgram
from repro.engines import DistributedControlSystem, SystemConfig
from repro.model import SchemaBuilder
from repro.storage.tables import InstanceStatus
from tests.conftest import make_system

ENGINE_ARCHITECTURES = ("centralized", "parallel")


def chain_schema():
    """S1 -> S2 -> S3, each passing on ``WF.x``; S1 is compensated on abort."""
    builder = SchemaBuilder("Chain", inputs=["x"])
    previous = "WF.x"
    for step in ("S1", "S2", "S3"):
        builder.step(step, program=f"Chain.{step}", inputs=[previous], outputs=["out"])
        previous = f"{step}.out"
    builder.arc("S1", "S2")
    builder.arc("S2", "S3")
    builder.abort_compensation("S1")
    builder.output("result", "S3.out")
    return builder.build()


def install(system, schema):
    system.register_schema(schema)
    for step in schema.steps.values():
        (source,) = step.inputs
        system.register_program(
            step.program, FunctionProgram(lambda inputs, ctx, src=source: {"out": inputs[src]}))


def records(system, *kinds):
    return [(r.time, r.kind, r.detail.get("step")) for r in system.trace if r.kind in kinds]


def dispatch_violations(system):
    return check_invariants(CausalTrace.from_run(system.trace, system.tracer),
                            ["dispatch-once"])


@pytest.mark.parametrize("architecture", ENGINE_ARCHITECTURES)
def test_a_rollback_retires_the_probe_of_a_halted_step(architecture):
    """S2's probe goes out at t=4.1 and its replies land at t=6.1; the input
    change at t=5.0 rolls back to S1.  S2 must wait for S1's re-execution
    and run on the new input, once."""
    system = make_system(architecture, seed=1, agents_per_step=2)
    install(system, chain_schema())
    instance = system.start_workflow("Chain", {"x": 1})
    system.change_inputs(instance, {"x": 2}, delay=5.0)
    system.run()
    assert system.outcome(instance).outputs == {"result": 2}
    trace = records(system, "step.dispatch", "step.done")
    last_s1_done = max(t for t, kind, step in trace if (kind, step) == ("step.done", "S1"))
    s2_dispatches = [t for t, kind, step in trace if (kind, step) == ("step.dispatch", "S2")]
    assert len(s2_dispatches) == 1 and s2_dispatches[0] > last_s1_done
    assert all(engine._probes == {} for engine in system.engines)
    assert dispatch_violations(system) == []


@pytest.mark.parametrize("architecture", ENGINE_ARCHITECTURES)
def test_an_abort_retires_pending_probes(architecture):
    system = make_system(architecture, seed=1, agents_per_step=2)
    install(system, chain_schema())
    instance = system.start_workflow("Chain", {"x": 1})
    system.abort_workflow(instance, delay=5.0)
    system.run()
    assert system.outcome(instance).status is InstanceStatus.ABORTED
    trace = records(system, "step.dispatch", "workflow.abort.request")
    [abort_time] = [t for t, kind, __ in trace if kind == "workflow.abort.request"]
    assert [step for t, kind, step in trace if kind == "step.dispatch"] == ["S1"]
    assert all(t < abort_time for t, kind, __ in trace if kind == "step.dispatch")
    assert all(engine._probes == {} for engine in system.engines)
    assert dispatch_violations(system) == []


@pytest.mark.parametrize("architecture", ENGINE_ARCHITECTURES)
def test_a_probe_the_rollback_did_not_reach_still_dispatches(architecture):
    """Start -> (A -> A2, B -> B2) -> End, A reading ``WF.y``.  At t=9.0
    the probes of A2 and B2 are pending; changing ``y`` rolls back A, A2
    and End only, so B2's probe must still dispatch."""
    builder = SchemaBuilder("Fork", inputs=["x", "y"])
    builder.step("Start", program="Fork.Start", inputs=["WF.x"], outputs=["out"])
    builder.step("A", program="Fork.A", inputs=["WF.y"], outputs=["out"])
    builder.step("A2", program="Fork.A2", inputs=["A.out"], outputs=["out"])
    builder.step("B", program="Fork.B", inputs=["Start.out"], outputs=["out"])
    builder.step("B2", program="Fork.B2", inputs=["B.out"], outputs=["out"])
    builder.step("End", program="Fork.End", join="and", inputs=["A2.out"], outputs=["out"])
    builder.parallel("Start", ["A", "B"])
    builder.arc("A", "A2")
    builder.arc("B", "B2")
    builder.join("End", ["A2", "B2"], kind="and")
    builder.output("result", "End.out")
    system = make_system(architecture, seed=1, agents_per_step=2)
    install(system, builder.build())
    instance = system.start_workflow("Fork", {"x": 1, "y": 1})
    system.change_inputs(instance, {"y": 2}, delay=9.0)
    system.run()
    assert system.outcome(instance).outputs == {"result": 2}
    dispatched = [step for __, __, step in records(system, "step.dispatch")]
    assert dispatched.count("B2") == 1 and dispatched.count("A2") == 1


@pytest.mark.parametrize("delay", [3.0, 4.0])
def test_a_distributed_probe_that_outlives_a_rollback_fires_nothing_stale(delay):
    """S2's executor probes S3's agents at t=3.2 (replies at 5.2); the
    rollback from S1's agent reaches it at delay+1.  S3 still runs once,
    at the new epoch, on the new input."""
    system = DistributedControlSystem(
        SystemConfig(seed=1, successor_selection="load"), num_agents=6, agents_per_step=2)
    install(system, chain_schema())
    instance = system.start_workflow("Chain", {"x": 1})
    system.change_inputs(instance, {"x": 2}, delay=delay)
    system.run()
    assert system.outcome(instance).outputs == {"result": 2}
    executed = [(r.detail["step"], r.detail["epoch"])
                for r in system.trace if r.kind == "step.dispatch"]
    assert executed.count(("S3", 1)) == 1 and ("S3", 0) not in executed
    assert all(agent._load_probes == {} for agent in system.agents)
