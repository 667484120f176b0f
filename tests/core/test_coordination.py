"""Unit tests for the coordination authority state machines."""

from repro.core.coordination import (
    MutualExclusionAuthority,
    RelativeOrderAuthority,
    RollbackDependencyAuthority,
    mx_clearance_token,
    ro_clearance_token,
)
from repro.model.coordination_spec import (
    MutualExclusionSpec,
    RelativeOrderSpec,
    RollbackDependencySpec,
)


def ro_spec(same_schema=False):
    other = "A" if same_schema else "B"
    return RelativeOrderSpec(
        name="ro", schema_a="A", schema_b=other,
        steps_a=("S1", "S2", "S3"),
        steps_b=("S1", "S2", "S3") if same_schema else ("T1", "T2", "T3"),
        conflict_key="WF.k",
    )


def test_pair_index_lookup():
    authority = RelativeOrderAuthority(ro_spec())
    assert authority.pair_index("A", "S2") == 1
    assert authority.pair_index("B", "T3") == 2
    assert authority.pair_index("A", "T1") is None


def test_first_pair_clears_immediately():
    authority = RelativeOrderAuthority(ro_spec())
    grant = authority.request_clearance("A", "i1", 0, "k")
    assert grant is not None
    assert grant.token == ro_clearance_token("ro", 0, "i1")


def test_leading_lagging_established_by_registration_order():
    authority = RelativeOrderAuthority(ro_spec())
    authority.report_completion("A", "i1", 0, "k")
    authority.report_completion("B", "j1", 0, "k")
    assert authority.is_leading("i1", "j1") is True
    assert authority.is_leading("j1", "i1") is False
    assert authority.established_pairs() == [("i1", "j1")]


def test_lagging_instance_waits_for_leader_pair():
    authority = RelativeOrderAuthority(ro_spec())
    authority.report_completion("A", "i1", 0, "k")  # i1 leads
    authority.report_completion("B", "j1", 0, "k")  # j1 lags
    # j1 asks for pair 1 before i1 finished its pair-1 step
    assert authority.request_clearance("B", "j1", 1, "k") is None
    grants = authority.report_completion("A", "i1", 1, "k")
    assert [(g.instance, g.pair_index) for g in grants] == [("j1", 1)]


def test_leader_completion_before_request_grants_immediately():
    authority = RelativeOrderAuthority(ro_spec())
    authority.report_completion("A", "i1", 0, "k")
    authority.report_completion("A", "i1", 1, "k")
    authority.report_completion("B", "j1", 0, "k")
    assert authority.request_clearance("B", "j1", 1, "k") is not None


def test_non_conflicting_keys_do_not_order():
    authority = RelativeOrderAuthority(ro_spec())
    authority.report_completion("A", "i1", 0, "k1")
    authority.report_completion("B", "j1", 0, "k2")
    assert authority.request_clearance("B", "j1", 1, "k2") is not None


def test_none_key_conflicts_with_everything():
    authority = RelativeOrderAuthority(RelativeOrderSpec(
        name="ro", schema_a="A", schema_b="B",
        steps_a=("S1", "S2"), steps_b=("T1", "T2"), conflict_key=None,
    ))
    authority.report_completion("A", "i1", 0, None)
    authority.report_completion("B", "j1", 0, None)
    assert authority.request_clearance("B", "j1", 1, None) is None


def test_same_schema_fifo_ordering():
    authority = RelativeOrderAuthority(ro_spec(same_schema=True))
    authority.report_completion("A", "i1", 0, "k")
    authority.report_completion("A", "i2", 0, "k")
    assert authority.request_clearance("A", "i2", 1, "k") is None
    grants = authority.report_completion("A", "i1", 1, "k")
    assert [(g.instance, g.pair_index) for g in grants] == [("i2", 1)]


def test_cross_schema_instances_of_same_schema_do_not_block():
    """When schemas differ, ordering binds only across the two schemas."""
    authority = RelativeOrderAuthority(ro_spec())
    authority.report_completion("A", "i1", 0, "k")
    authority.report_completion("A", "i2", 0, "k")  # same schema as i1
    assert authority.request_clearance("A", "i2", 1, "k") is not None


def test_withdraw_unblocks_laggards():
    authority = RelativeOrderAuthority(ro_spec())
    authority.report_completion("A", "i1", 0, "k")
    authority.report_completion("B", "j1", 0, "k")
    assert authority.request_clearance("B", "j1", 1, "k") is None
    grants = authority.withdraw("i1")  # leader aborted
    assert [(g.instance, g.pair_index) for g in grants] == [("j1", 1)]


def test_external_order_keys_decide_leadership():
    authority = RelativeOrderAuthority(ro_spec())
    authority.report_completion("A", "i1", 0, "k", order_key=(5.0, "i1"))
    authority.report_completion("B", "j1", 0, "k", order_key=(3.0, "j1"))
    assert authority.is_leading("j1", "i1") is True


def mx_auth():
    return MutualExclusionAuthority(MutualExclusionSpec(
        name="mx", schema_a="A", schema_b="B",
        region_a=("S1", "S2"), region_b=("T1", "T2"), conflict_key="WF.k",
    ))


def test_mx_acquire_grant_and_queue():
    authority = mx_auth()
    assert authority.acquire("A", "i1", "k")
    assert not authority.acquire("B", "j1", "k")
    assert authority.holder("k") == ("A", "i1")
    assert authority.queue_length("k") == 1


def test_mx_release_grants_next_fifo():
    authority = mx_auth()
    authority.acquire("A", "i1", "k")
    authority.acquire("B", "j1", "k")
    authority.acquire("A", "i2", "k")
    assert authority.release("A", "i1", "k") == ("B", "j1")
    assert authority.release("B", "j1", "k") == ("A", "i2")
    assert authority.release("A", "i2", "k") is None
    assert authority.holder("k") is None


def test_mx_reacquire_by_holder_is_idempotent():
    authority = mx_auth()
    assert authority.acquire("A", "i1", "k")
    assert authority.acquire("A", "i1", "k")
    assert authority.queue_length("k") == 0


def test_mx_release_by_non_holder_dequeues():
    authority = mx_auth()
    authority.acquire("A", "i1", "k")
    authority.acquire("B", "j1", "k")
    assert authority.release("B", "j1", "k") is None  # j1 gives up its wait
    assert authority.release("A", "i1", "k") is None  # queue now empty


def test_mx_distinct_keys_independent():
    authority = mx_auth()
    assert authority.acquire("A", "i1", "k1")
    assert authority.acquire("B", "j1", "k2")


def test_mx_none_key_single_lock():
    authority = mx_auth()
    assert authority.acquire("A", "i1", None)
    assert not authority.acquire("B", "j1", None)


def test_mx_withdraw_forgets_an_instance_under_every_key():
    authority = mx_auth()
    authority.acquire("A", "i1", "k1")
    authority.acquire("A", "i1", None)
    authority.acquire("B", "j1", "k1")
    authority.acquire("A", "i1", "k2")   # held, nobody behind it
    authority.acquire("B", "j2", "k3")
    authority.acquire("A", "i1", "k3")   # i1 only waits here
    assert authority.withdraw("i1") == [("B", "j1")]
    assert authority.holder("k1") == ("B", "j1")
    assert authority.holder(None) is None and authority.holder("k2") is None
    assert authority.holder("k3") == ("B", "j2") and authority.queue_length("k3") == 0
    assert authority.withdraw("i1") == []
    # only contended keys have a queue, and only while they are
    assert authority._queues == {}
    assert authority.release("B", "j2", "k3") is None and authority._holders.keys() == {"k1"}


def test_mx_clearance_token_shape():
    assert mx_clearance_token("mx", "i1") == "EXT.MX.mx.i1"


def rd_auth():
    return RollbackDependencyAuthority(RollbackDependencySpec(
        name="rd", schema_a="A", schema_b="B",
        trigger_step_a="S2", rollback_to_b="T1", conflict_key="WF.k",
    ))


def test_rd_dependents_by_key():
    authority = rd_auth()
    authority.report_target_executed("j1", "k")
    authority.report_target_executed("j2", "other")
    assert authority.dependents_of("i1", "k") == ["j1"]


def test_rd_trigger_excludes_self():
    authority = rd_auth()
    authority.report_target_executed("i1", "k")
    assert authority.dependents_of("i1", "k") == []


def test_rd_withdraw():
    authority = rd_auth()
    authority.report_target_executed("j1", "k")
    authority.withdraw("j1")
    assert authority.dependents_of("i1", "k") == []
