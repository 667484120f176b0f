"""Coordinated-execution integration tests across all three architectures."""

import pytest

from repro.analysis.causal import CausalTrace
from repro.core.programs import FailEveryNth, NoopProgram
from repro.engines import DistributedControlSystem, SystemConfig
from repro.laws import load_laws
from repro.model import (
    MutualExclusionSpec,
    RelativeOrderSpec,
    RollbackDependencySpec,
    SchemaBuilder,
)
from repro.storage.tables import InstanceStatus
from tests.conftest import (
    ALL_ARCHITECTURES,
    ORDERS_LAWS,
    linear_schema,
    make_system,
    register_programs,
)


def done_times(system):
    return {
        (r.detail["instance"], r.detail["step"]): r.time
        for r in system.trace.filter(kind="step.done")
    }


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_relative_ordering_enforced(architecture):
    """Figure 2: conflicting steps execute in the same relative order."""
    system = make_system(architecture, seed=5)
    schema = linear_schema(steps=4)
    system.register_schema(schema)
    register_programs(system, schema)
    system.add_coordination(RelativeOrderSpec(
        name="fifo", schema_a="Linear", schema_b="Linear",
        steps_a=("S2", "S3"), steps_b=("S2", "S3"), conflict_key="WF.x",
    ))
    i1 = system.start_workflow("Linear", {"x": "part-1"}, delay=0.0)
    i2 = system.start_workflow("Linear", {"x": "part-1"}, delay=0.3)
    i3 = system.start_workflow("Linear", {"x": "part-2"}, delay=0.1)
    system.run()
    for instance in (i1, i2, i3):
        assert system.outcome(instance).committed
    times = done_times(system)
    # i1 leads i2 (same part): each governed pair in the same relative order.
    assert times[(i1, "S2")] < times[(i2, "S2")]
    assert times[(i1, "S3")] < times[(i2, "S3")]


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_relative_ordering_nonconflicting_keys_run_freely(architecture):
    system = make_system(architecture, seed=6)
    schema = linear_schema(steps=3)
    system.register_schema(schema)
    register_programs(system, schema)
    system.add_coordination(RelativeOrderSpec(
        name="fifo", schema_a="Linear", schema_b="Linear",
        steps_a=("S1", "S2"), steps_b=("S1", "S2"), conflict_key="WF.x",
    ))
    ids = [system.start_workflow("Linear", {"x": f"k{i}"}, delay=i * 0.1)
           for i in range(3)]
    system.run()
    assert all(system.outcome(i).committed for i in ids)


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_mutual_exclusion_regions_do_not_interleave(architecture):
    system = make_system(architecture, seed=7)
    schema = linear_schema(steps=4)
    system.register_schema(schema)
    register_programs(system, schema)
    system.add_coordination(MutualExclusionSpec(
        name="mx", schema_a="Linear", schema_b="Linear",
        region_a=("S2", "S3"), region_b=("S2", "S3"), conflict_key="WF.x",
    ))
    i1 = system.start_workflow("Linear", {"x": "r"}, delay=0.0)
    i2 = system.start_workflow("Linear", {"x": "r"}, delay=0.1)
    system.run()
    assert system.outcome(i1).committed and system.outcome(i2).committed
    times = done_times(system)
    # Regions [S2..S3] must be serialized: one instance's S3 completes
    # before the other's S2 starts (done(S3) <= done-ish(S2)); check via
    # completion times — no overlap of [S2start..S3done] intervals is
    # approximated by: the later S2 completes after the earlier S3.
    first, second = ((i1, i2) if times[(i1, "S2")] < times[(i2, "S2")] else (i2, i1))
    assert times[(first, "S3")] < times[(second, "S2")]


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_rollback_dependency_cascades(architecture):
    system = make_system(architecture, seed=8)
    builder = SchemaBuilder("W", inputs=["k"])
    builder.step("A", program="W.A", inputs=["WF.k"], outputs=["o"])
    builder.step("B", program="W.B", inputs=["A.o"], outputs=["o"])
    builder.step("C", program="W.C", inputs=["B.o"], outputs=["o"], cost=80.0)
    builder.sequence("A", "B", "C")
    builder.rollback_point("C", "B")
    schema = builder.build()
    system.register_schema(schema)
    register_programs(system, schema, behaviors={
        "C": FailEveryNth(NoopProgram(("o",)), {1}),
    })
    system.add_coordination(RollbackDependencySpec(
        name="rd", schema_a="W", schema_b="W",
        trigger_step_a="B", rollback_to_b="B", conflict_key="WF.k",
    ))
    # i1 will fail at C (attempt 1) and roll back to B, which must drag the
    # conflicting i2 back to B as well.
    i1 = system.start_workflow("W", {"k": "x"}, delay=0.0)
    i2 = system.start_workflow("W", {"k": "x"}, delay=0.2)
    system.run()
    assert system.outcome(i1).committed
    assert system.outcome(i2).committed
    cascades = system.trace.filter(kind="rollback.dependency")
    assert any(r.detail["dependent"] == i2 for r in cascades)
    # the record is the dependent's: its event stream says why it rolled back
    rows = [r for r in CausalTrace.from_run(system.trace, system.tracer).records
            if r.kind == "rollback.dependency"]
    assert i2 in {r.instance for r in rows}
    assert all(r.instance == r.detail["dependent"] for r in rows)


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_abort_releases_relative_order_block(architecture):
    """Aborting the leading instance must unblock the lagging one."""
    system = make_system(architecture, seed=9)
    builder = SchemaBuilder("W", inputs=["k"])
    builder.step("A", program="W.A", inputs=["WF.k"], outputs=["o"])
    builder.step("B", program="W.B", inputs=["A.o"], outputs=["o"], cost=500.0)
    builder.step("C", program="W.C", inputs=["B.o"], outputs=["o"])
    builder.sequence("A", "B", "C")
    schema = builder.build()
    system.register_schema(schema)
    register_programs(system, schema)
    system.add_coordination(RelativeOrderSpec(
        name="fifo", schema_a="W", schema_b="W",
        steps_a=("A", "C"), steps_b=("A", "C"), conflict_key="WF.k",
    ))
    i1 = system.start_workflow("W", {"k": "x"}, delay=0.0)
    i2 = system.start_workflow("W", {"k": "x"}, delay=0.5)
    # i1's slow B blocks its C; abort i1 while i2 waits for clearance.
    system.abort_workflow(i1, delay=10.0)
    system.run()
    assert system.outcome(i1).status is InstanceStatus.ABORTED
    assert system.outcome(i2).committed


def test_distributed_abort_before_the_deferred_clearance_request():
    """The authority asks for a registrant's later clearances two latencies
    after its pair-0 report; an instance aborted inside that window has
    been withdrawn by then, and the request used to raise
    ``CoordinationError`` inside the scheduler and kill the run."""
    system = DistributedControlSystem(SystemConfig(seed=1, latency=1.0))
    load_laws(ORDERS_LAWS.read_text()).install(system)
    instance = system.start_workflow("Orders", {"part": "p", "qty": 1})
    system.abort_workflow(instance, delay=0.45)
    system.run()
    assert system.outcome(instance).status is InstanceStatus.ABORTED


@pytest.mark.parametrize("aborted", [True, False])
def test_parallel_withdraw_before_the_deferred_clearance_request(aborted):
    """Same window on a parallel replica: the owner's deferred request
    finds the instance withdrawn (abort) or retired (it committed on
    clearances from before a rollback re-reported pair 0)."""
    system = make_system("parallel", seed=3)
    schema = linear_schema(steps=3)
    system.register_schema(schema)
    system.add_coordination(RelativeOrderSpec(
        name="fifo", schema_a="Linear", schema_b="Linear",
        steps_a=("S1", "S3"), steps_b=("S1", "S3"), conflict_key="WF.x",
    ))
    engine = system.engines[0]
    system._note_owner("Linear-1", engine.name)
    report = {"op": "ro_report", "spec": "fifo", "schema": "Linear",
              "instance": "Linear-1", "key": "k", "time": 0.0}
    engine._apply_coord_op({**report, "pair_index": 0})  # schedules the request
    engine._apply_coord_op({**report, "pair_index": 1})
    engine._apply_coord_op({"op": "withdraw", "instance": "Linear-1", "aborted": aborted})
    authority = engine.replica.ro["fifo"]
    assert not authority.is_registered("Linear-1")
    system.run()  # the deferred request fires here
    assert not authority.is_registered("Linear-1")
