"""Edge cases of the deterministic executor election.

``elect_executor`` must (a) agree across all computing agents, (b) skip
crashed candidates deterministically, (c) fall back to the permutation
head when *every* candidate is down (messages then queue durably for it),
and (d) be independent of the recovery epoch so a re-execution after a
rollback lands on the agent that holds the previous execution's data —
the precondition for OCR reuse.
"""

from repro.core.programs import FailEveryNth, NoopProgram
from repro.engines import DistributedControlSystem, SystemConfig
from repro.engines.distributed import elect_executor
from repro.model import SchemaBuilder
from tests.conftest import linear_schema, register_programs


ELIGIBLE = ("a", "b", "c", "d")


def test_single_candidate_shortcut():
    assert elect_executor(("only",), "W", "i1", "S") == "only"
    # Even when that candidate is down: there is nobody else.
    assert elect_executor(("only",), "W", "i1", "S", is_up=lambda a: False) == "only"


def test_all_candidates_crashed_falls_back_to_permutation_head():
    expected_head = elect_executor(ELIGIBLE, "W", "i1", "S")
    pick = elect_executor(ELIGIBLE, "W", "i1", "S", is_up=lambda a: False)
    assert pick == expected_head
    # Deterministic: every agent computes the same fallback.
    assert pick == elect_executor(ELIGIBLE, "W", "i1", "S", is_up=lambda a: False)


def test_down_candidates_are_skipped_in_rotation_order():
    order = []
    remaining = set(ELIGIBLE)
    # Peeling winners one at a time reveals the underlying permutation.
    while remaining:
        pick = elect_executor(ELIGIBLE, "W", "i1", "S",
                              is_up=lambda a: a in remaining)
        order.append(pick)
        remaining.discard(pick)
    assert sorted(order) == sorted(ELIGIBLE)
    assert order[0] == elect_executor(ELIGIBLE, "W", "i1", "S")
    # The rotation is a cyclic shift of the eligible tuple, so agents
    # need no shared state beyond the static directory.
    start = ELIGIBLE.index(order[0])
    assert tuple(order) == tuple(
        ELIGIBLE[(start + i) % len(ELIGIBLE)] for i in range(len(ELIGIBLE))
    )


def test_election_spreads_across_instances_and_steps():
    picks = {
        elect_executor(ELIGIBLE, "W", f"i{n}", "S") for n in range(40)
    }
    assert len(picks) > 1  # not all instances pile onto one agent
    picks_by_step = {
        elect_executor(ELIGIBLE, "W", "i1", f"S{n}") for n in range(40)
    }
    assert len(picks_by_step) > 1


def test_election_is_epoch_independent():
    """The election key is (schema, instance, step) only — no epoch, no
    round — so recomputing after any number of rollbacks gives the same
    executor."""
    first = elect_executor(ELIGIBLE, "W", "i1", "S")
    assert all(
        elect_executor(ELIGIBLE, "W", "i1", "S") == first for __ in range(5)
    )


def test_reexecution_after_rollback_lands_on_same_agent():
    """Integration: a rollback re-execution re-elects the original
    executor (epoch-independence in vivo), enabling OCR reuse."""
    system = DistributedControlSystem(
        SystemConfig(seed=3), num_agents=6, agents_per_step=2
    )
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
    # B was visited twice (first pass + post-rollback reuse) on one agent.
    visits = [
        (r.node, r.kind)
        for r in system.trace.records
        if r.kind in ("step.dispatch", "step.reuse")
        and r.detail.get("step") == "B"
    ]
    assert len(visits) >= 2
    assert len({node for node, __ in visits}) == 1


def test_crashed_agents_excluded_until_recovery():
    system = DistributedControlSystem(
        SystemConfig(seed=2), num_agents=4, agents_per_step=2
    )
    schema = linear_schema(steps=3)
    system.register_schema(schema)
    register_programs(system, schema)
    instance = system.start_workflow("Linear", {"x": 1})
    eligible = system.assignment.eligible("Linear", "S2")
    primary = elect_executor(eligible, "Linear", instance, "S2")
    system.agent(primary).crash()
    # Every other agent now elects the backup — unanimously.
    backup = elect_executor(eligible, "Linear", instance, "S2",
                            is_up=system.network.is_up)
    assert backup != primary
    system.agent(primary).recover()
    assert (
        elect_executor(eligible, "Linear", instance, "S2",
                       is_up=system.network.is_up)
        == primary
    )
