"""Property-based tests (hypothesis) on core invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.coordination import MutualExclusionAuthority, RelativeOrderAuthority
from repro.core.ocr import plan_step_action, stale_compensation_chain
from repro.model.builder import SchemaBuilder
from repro.model.coordination_spec import MutualExclusionSpec, RelativeOrderSpec
from repro.model.policies import (
    AlwaysReexecute,
    IncrementalIfInputsChanged,
    ReuseIfInputsUnchanged,
)
from repro.model.schema import StepDef
from repro.rules.events import EventTable
from repro.sim.kernel import Simulator
from repro.storage.tables import StepRecord, StepStatus
from tests.conftest import make_system, register_programs
from tests.core.reference_ro import is_leading

# ---------------------------------------------------------------- strategies

small_names = st.lists(
    st.sampled_from([f"S{i}" for i in range(1, 9)]), unique=True, min_size=2, max_size=8
)


def linear_schema_of(names):
    builder = SchemaBuilder("P", inputs=["x"])
    previous = None
    for name in names:
        ins = ["WF.x"] if previous is None else [f"{previous}.out"]
        builder.step(name, program=f"P.{name}", inputs=ins, outputs=["out"])
        if previous is not None:
            builder.arc(previous, name)
        previous = name
    return builder.build()


# ---------------------------------------------------------------- simulator


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_simulator_fires_in_nondecreasing_time_order(delays):
    sim = Simulator()
    times = []
    for delay in delays:
        sim.schedule(delay, lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)
    assert len(times) == len(delays)


# ---------------------------------------------------------------- event table


@given(
    st.lists(
        st.tuples(st.sampled_from(["S1.D", "S2.D", "S3.D"]),
                  st.floats(min_value=0, max_value=100),
                  st.integers(min_value=0, max_value=5)),
        max_size=30,
    )
)
def test_event_table_never_holds_invalid_as_valid(operations):
    """After any sequence of posts/invalidations, validity is consistent:
    a token is valid iff its latest recorded occurrence was not killed by a
    later-round invalidation."""
    table = EventTable()
    for token, time, round in operations:
        table.post(token, time, round)
        table.invalidate_before_round(token, round)  # same round: must survive
        assert table.is_valid(token)
        table.invalidate_before_round(token, round + 1)
        assert not table.is_valid(token)


@given(st.dictionaries(st.sampled_from(["A.D", "B.D", "C.D"]),
                       st.tuples(st.floats(0, 100), st.integers(0, 3)),
                       max_size=3))
def test_event_merge_is_idempotent(tokens):
    table = EventTable()
    payload = {t: [time, round] for t, (time, round) in tokens.items()}
    table.merge(payload, time=0.0)
    snapshot = table.export_versioned()
    table.merge(payload, time=1.0)
    assert table.export_versioned() == snapshot


# ---------------------------------------------------------------- OCR


@given(
    status=st.sampled_from([StepStatus.NOT_STARTED, StepStatus.DONE,
                            StepStatus.FAILED, StepStatus.COMPENSATED]),
    prev_inputs=st.dictionaries(st.sampled_from(["a", "b"]), st.integers(0, 3),
                                max_size=2),
    new_inputs=st.dictionaries(st.sampled_from(["a", "b"]), st.integers(0, 3),
                               max_size=2),
    policy=st.sampled_from([AlwaysReexecute(), ReuseIfInputsUnchanged(),
                            IncrementalIfInputsChanged(0.5)]),
)
def test_ocr_plan_invariants(status, prev_inputs, new_inputs, policy):
    step = StepDef(name="S1", cost=4.0, compensation_cost=2.0)
    record = StepRecord(step="S1", status=status,
                        executions=0 if status is StepStatus.NOT_STARTED else 1,
                        last_inputs=dict(prev_inputs))
    plan = plan_step_action(step, record, new_inputs, policy)
    # Exactly one of reuse / re-execute.
    assert plan.reuse_outputs != plan.reexecute
    # Costs are never negative and bounded by the full costs.
    assert 0.0 <= plan.execution_cost <= step.cost
    assert 0.0 <= plan.compensation_cost <= step.effective_compensation_cost
    # Reuse implies zero work; compensation only ever precedes re-execution.
    if plan.reuse_outputs:
        assert plan.total_cost == 0.0
    if plan.compensate:
        assert plan.reexecute


@given(
    times=st.dictionaries(st.sampled_from(["A", "B", "C", "D"]),
                          st.floats(0, 100), min_size=1, max_size=4),
    initiator=st.sampled_from(["A", "B", "C", "D"]),
)
def test_stale_chain_is_reverse_ordered_and_ends_with_initiator(times, initiator):
    members = frozenset({"A", "B", "C", "D"})
    chain = stale_compensation_chain(members, times, initiator)
    assert chain[-1] == initiator
    assert len(chain) == len(set(chain))
    body = chain[:-1]
    body_times = [times[m] for m in body]
    assert body_times == sorted(body_times, reverse=True)
    cutoff = times.get(initiator, float("-inf"))
    assert all(times[m] >= cutoff for m in body)


# ---------------------------------------------------------------- coordination


@given(st.lists(st.tuples(st.sampled_from(["i1", "i2", "i3"]),
                          st.sampled_from(["k1", "k2"])),
                min_size=1, max_size=12))
def test_relative_order_leadership_is_a_strict_order(registrations):
    spec = RelativeOrderSpec(name="p", schema_a="A", schema_b="A",
                             steps_a=("S1", "S2"), steps_b=("S1", "S2"),
                             conflict_key="WF.k")
    authority = RelativeOrderAuthority(spec)
    for instance, key in registrations:
        authority.report_completion("A", instance, 0, key)
    instances = {i for i, __ in registrations}
    for a in instances:
        assert is_leading(authority, a, a) is False or a not in instances
        for b in instances:
            if a == b:
                continue
            lead_ab = is_leading(authority, a, b)
            lead_ba = is_leading(authority, b, a)
            assert lead_ab is not None and lead_ab != lead_ba  # antisymmetric


@given(st.lists(st.tuples(st.booleans(), st.sampled_from(["i1", "i2", "i3"])),
                min_size=1, max_size=20))
def test_mutex_never_two_holders(operations):
    spec = MutualExclusionSpec(name="m", schema_a="A", schema_b="A",
                               region_a=("S1", "S2"), region_b=("S1", "S2"))
    authority = MutualExclusionAuthority(spec)
    granted = set()
    for is_acquire, instance in operations:
        if is_acquire:
            if authority.acquire("A", instance, "k"):
                granted.add(instance)
        else:
            nxt = authority.release("A", instance, "k")
            granted.discard(instance)
            if nxt is not None:
                granted.add(nxt[1])
        holder = authority.holder("k")
        assert granted == ({holder[1]} if holder else set())


# ---------------------------------------------------------------- end-to-end


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(names=small_names, seed=st.integers(0, 1000),
       architecture=st.sampled_from(["centralized", "parallel", "distributed"]))
def test_random_linear_workflows_always_commit(names, seed, architecture):
    """Liveness: any valid linear schema commits under every architecture."""
    system = make_system(architecture, seed=seed)
    schema = linear_schema_of(names)
    system.register_schema(schema)
    register_programs(system, schema)
    instance = system.start_workflow("P", {"x": 1})
    system.run()
    assert system.outcome(instance).committed
    # and every step ran exactly once
    counts = {}
    for record in system.trace.filter(kind="step.dispatch"):
        key = record.detail["step"]
        counts[key] = counts.get(key, 0) + 1
    assert counts == {name: 1 for name in names}


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fail_at=st.integers(1, 4), origin_offset=st.integers(0, 3),
       seed=st.integers(0, 100),
       architecture=st.sampled_from(["centralized", "distributed"]))
def test_rollback_always_recovers_on_linear_chains(fail_at, origin_offset, seed,
                                                   architecture):
    """Safety+liveness: a single failure with any valid rollback point still
    commits, and rolled back steps either reuse or re-execute."""
    from repro.core.programs import FailEveryNth, NoopProgram

    names = [f"S{i}" for i in range(1, 6)]
    builder = SchemaBuilder("P", inputs=["x"])
    previous = None
    for name in names:
        ins = ["WF.x"] if previous is None else [f"{previous}.out"]
        builder.step(name, program=f"P.{name}", inputs=ins, outputs=["out"])
        if previous is not None:
            builder.arc(previous, name)
        previous = name
    failing = names[fail_at]
    origin = names[max(0, fail_at - origin_offset)]
    builder.rollback_point(failing, origin)
    schema = builder.build()
    system = make_system(architecture, seed=seed)
    system.register_schema(schema)
    register_programs(system, schema, behaviors={
        failing: FailEveryNth(NoopProgram(("out",)), {1}),
    })
    instance = system.start_workflow("P", {"x": 1})
    system.run()
    assert system.outcome(instance).committed
