"""Unit tests for shared engine machinery (base helpers, SpecIndex)."""

import pytest

from repro.engines.base import (
    AgentAssignment,
    ControlSystem,
    SystemConfig,
    governed_step_count,
    record_compensation,
    record_execution_failure,
    record_execution_success,
    record_reuse,
)
from repro.engines.coord import SpecIndex
from repro.errors import SchemaError, WorkloadError
from repro.model import (
    MutualExclusionSpec,
    RelativeOrderSpec,
    RollbackDependencySpec,
    compile_schema,
)
from repro.model.schema import StepDef
from repro.sim.kernel import SimRuntime
from repro.storage.tables import InstanceState, StepStatus
from tests.conftest import linear_schema


# ----------------------------------------------------------- system config


def test_config_rejects_bad_selection():
    with pytest.raises(WorkloadError):
        SystemConfig(successor_selection="psychic")


def test_default_runtime_is_the_seeded_simulator():
    """With no runtime given, a control system runs on a ``SimRuntime``
    over its own collector and latency."""
    system = ControlSystem(SystemConfig(seed=23, latency=2.5))
    runtime = system.runtime
    assert type(runtime) is SimRuntime
    assert system.simulator is runtime.clock
    assert system.network is runtime.transport
    assert runtime.metrics is system.metrics
    assert runtime.transport.latency.delay("a", "b") == 2.5


# ----------------------------------------------------------- agent assignment


def test_round_robin_spreads_with_a_agents_per_step():
    assignment = AgentAssignment()
    compiled = compile_schema(linear_schema(steps=3))
    assignment.assign_round_robin(compiled, ["x", "y", "z"], agents_per_step=2)
    assert assignment.eligible("Linear", "S1") == ("x", "y")
    assert assignment.eligible("Linear", "S2") == ("y", "z")
    assert assignment.eligible("Linear", "S3") == ("z", "x")


def test_assignment_rejects_oversized_a():
    assignment = AgentAssignment()
    compiled = compile_schema(linear_schema(steps=2))
    with pytest.raises(SchemaError):
        assignment.assign_round_robin(compiled, ["only"], agents_per_step=2)


def test_assignment_unknown_step_raises():
    assignment = AgentAssignment()
    with pytest.raises(SchemaError):
        assignment.eligible("W", "ghost")
    with pytest.raises(SchemaError):
        assignment.assign("W", "S1", [])


# ----------------------------------------------------------- record helpers


def step_def(**kw):
    return StepDef(name="S1", outputs=("o",), **kw)


def test_record_execution_success_updates_everything():
    state = InstanceState(schema_name="W", instance_id="i")
    token = record_execution_success(state, step_def(), {"WF.x": 1}, {"o": 9},
                                     now=3.0, agent="a1")
    record = state.steps["S1"]
    assert token == "S1.D"
    assert record.status is StepStatus.DONE
    assert record.executions == 1
    assert record.last_inputs == {"WF.x": 1}
    assert record.last_outputs == {"o": 9}
    assert record.agent == "a1"
    assert state.data["S1.o"] == 9


def test_record_execution_failure():
    state = InstanceState(schema_name="W", instance_id="i")
    token = record_execution_failure(state, step_def(), {"WF.x": 1}, now=3.0,
                                     agent="a1")
    assert token == "S1.F"
    assert state.steps["S1"].status is StepStatus.FAILED
    assert "S1.o" not in state.data


def test_record_reuse_rebinds_previous_outputs():
    state = InstanceState(schema_name="W", instance_id="i")
    record_execution_success(state, step_def(), {}, {"o": 9}, now=1.0, agent="a")
    state.unbind_outputs("S1", ("o",))
    token = record_reuse(state, step_def(), now=5.0)
    assert token == "S1.D"
    assert state.data["S1.o"] == 9
    assert state.steps["S1"].reuses == 1
    assert state.steps["S1"].executions == 1  # reuse is not an execution


def test_record_compensation_unbinds_outputs():
    state = InstanceState(schema_name="W", instance_id="i")
    record_execution_success(state, step_def(), {}, {"o": 9}, now=1.0, agent="a")
    token = record_compensation(state, step_def(), "complete")
    assert token == "S1.C"
    assert state.steps["S1"].status is StepStatus.COMPENSATED
    assert "S1.o" not in state.data


# ----------------------------------------------------------- governed steps


def make_specs():
    return [
        RelativeOrderSpec(name="ro", schema_a="Linear", schema_b="Linear",
                          steps_a=("S1", "S2"), steps_b=("S1", "S2")),
        MutualExclusionSpec(name="mx", schema_a="Linear", schema_b="Linear",
                            region_a=("S2", "S4"), region_b=("S2", "S4")),
        RollbackDependencySpec(name="rd", schema_a="Linear", schema_b="Linear",
                               trigger_step_a="S3", rollback_to_b="S1"),
    ]


def test_governed_step_count_covers_all_blocks():
    compiled = compile_schema(linear_schema(steps=5))
    count = governed_step_count(compiled, make_specs())
    # ro: S1,S2 (2) + mx region S2..S4 (3) + rd: S3, S1 (2) = 7 spec-steps.
    assert count == 7


def test_governed_step_count_zero_without_specs():
    compiled = compile_schema(linear_schema(steps=5))
    assert governed_step_count(compiled, []) == 0


# ----------------------------------------------------------- spec index


def test_spec_index_lookups():
    index = SpecIndex()
    for spec in make_specs():
        index.add(spec)
    assert index.ro_roles("Linear", "S2") == [(index.ro[0], 1)]
    assert index.ro_roles("Linear", "S9") == []
    assert [s.name for s in index.mx_region_first("Linear", "S2")] == ["mx"]
    assert [s.name for s in index.mx_region_last("Linear", "S4")] == ["mx"]
    assert index.mx_region_first("Linear", "S3") == []
    assert [s.name for s in index.rd_triggers("Linear")] == ["rd"]
    assert [s.name for s in index.rd_targets("Linear", "S1")] == ["rd"]
    assert index.rd_targets("Linear", "S2") == []
    assert len(index.specs_for("Linear")) == 3
    assert index.specs_for("Other") == []


def test_spec_index_governed_pairs():
    index = SpecIndex()
    index.add(make_specs()[0])
    pairs = index.ro_governed_pairs("Linear")
    assert [(k, s) for __, k, s in pairs] == [(0, "S1"), (1, "S2")]


def test_conflict_key_value():
    spec = make_specs()[0]
    state = InstanceState(schema_name="Linear", instance_id="i",
                          inputs={"x": "part-7"})
    assert SpecIndex.conflict_key_value(spec, state) is None  # keyless spec
    keyed = RelativeOrderSpec(name="ro2", schema_a="Linear", schema_b="Linear",
                              steps_a=("S1",), steps_b=("S1",),
                              conflict_key="WF.x")
    assert SpecIndex.conflict_key_value(keyed, state) == "part-7"
