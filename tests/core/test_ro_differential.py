"""The keyed :class:`RelativeOrderAuthority` against its scan oracle.

Two properties the unit tests in ``test_coordination.py`` cannot show:
the index answers every operation sequence exactly as the scan does
(grants *and their order*, which the simulator's event order depends on),
and the cost of an operation does not grow with what the authority has
seen on other keys.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.coordination import RelativeOrderAuthority
from repro.model.coordination_spec import RelativeOrderSpec
from tests.core.reference_ro import Shadowed, is_leading

INSTANCES = [f"i{n}" for n in range(6)]
KEYS = [None, "x", "y", 1]


def ro_spec(same_schema: bool, n_pairs: int) -> RelativeOrderSpec:
    steps = tuple(f"S{k}" for k in range(n_pairs))
    return RelativeOrderSpec(
        name="ro", schema_a="A", schema_b="A" if same_schema else "B",
        steps_a=steps, steps_b=steps, conflict_key="WF.k",
    )


#: ``(kind, who, pair index, key, time)``.  ``who`` picks among the
#: instances the kind is about (see ``target``), so that most operations
#: land on a state where they mean something; "stray" ones land anywhere.
operations = st.lists(
    st.tuples(
        st.sampled_from(
            ["register"] * 3 + ["complete"] * 3 + ["request"] * 3
            + ["withdraw", "retire", "stray-report", "stray-request"]
        ),
        st.integers(0, len(INSTANCES) - 1),
        st.integers(0, 3),  # 3 is beyond a 3-pair spec, 2 and 3 beyond a 2-pair one
        st.sampled_from(KEYS),
        st.integers(0, 4),  # the time half of a replicated order key
    ),
    max_size=40,
)


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    same_schema=st.booleans(),
    n_pairs=st.sampled_from([2, 3]),
    replicated=st.booleans(),
    ops=operations,
)
def test_keyed_authority_answers_as_the_scan_does(same_schema, n_pairs, replicated, ops):
    """Any sequence of reports (first pair, later pairs, before or after
    registration, repeated, beyond the spec), clearance requests,
    withdrawals and retirements: same grants in the same order, same
    introspection.  With ``replicated`` the order key is ``(time,
    instance)``, so a later registration can sort before earlier ones."""
    pair = Shadowed(ro_spec(same_schema, n_pairs))
    # An instance keeps its schema for life, as in the engines.
    schema_of = {
        instance: "A" if same_schema or n % 2 == 0 else "B"
        for n, instance in enumerate(INSTANCES)
    }

    def target(kind: str, who: int) -> str:
        registered = [i for i in INSTANCES if pair.keyed.is_registered(i)]
        pool = INSTANCES if kind.startswith(("register", "stray")) else registered or INSTANCES
        return pool[who % len(pool)]

    for kind, who, pair_index, key, time in ops:
        instance = target(kind, who)
        schema = schema_of[instance]
        order_key = (time, instance) if replicated else None
        if kind == "register":
            pair.report_completion(schema, instance, 0, key, order_key=order_key)
        elif kind in ("complete", "stray-report"):
            pair.report_completion(schema, instance, pair_index, key, order_key=order_key)
        elif kind in ("request", "stray-request"):
            pair.request_clearance(schema, instance, pair_index, key)
        elif kind == "withdraw":
            pair.withdraw(instance)
        elif all(1 <= grant.pair_index < n_pairs for grant in pair.scan._pending):
            # ``retire`` promises "no answer changes" for the pairs of the
            # spec; a request beyond them can wait on an instance that has
            # completed every real pair.  No engine makes such a request.
            pair.retire(instance)
        pair.check_introspection(INSTANCES)


def test_one_completion_grants_across_groups_in_request_order():
    """A ``None``-key leader binds every group; when it completes (or is
    withdrawn) the waiting requests come back oldest first, whichever group
    holds them — the order the scan's single pending list gave."""
    for release in ("complete", "withdraw"):
        pair = Shadowed(ro_spec(same_schema=True, n_pairs=2))
        pair.report_completion("A", "lead", 0, None)
        for instance, key in (("a", "y"), ("b", "x"), ("c", "y")):
            pair.report_completion("A", instance, 0, key)
        for instance in ("b", "c", "a"):  # not the order the groups were made in
            assert pair.request_clearance("A", instance, 1, None) is None
        if release == "complete":
            grants = pair.report_completion("A", "lead", 1, None)
        else:
            grants = pair.withdraw("lead")
        # "c" still waits for "a", its leader on key "y".
        assert [grant.instance for grant in grants] == ["b", "a"]
        assert [g.instance for g in pair.report_completion("A", "a", 1, "y")] == ["c"]


def test_late_arriving_order_key_leads_instances_already_waiting_or_granted():
    """Replicated order keys: a registration that arrives last but sorts
    first leads the instances registered before it."""
    pair = Shadowed(ro_spec(same_schema=True, n_pairs=3))
    pair.report_completion("A", "b", 0, "k", order_key=(2.0, "b"))
    pair.report_completion("A", "c", 0, "k", order_key=(3.0, "c"))
    assert pair.request_clearance("A", "b", 1, "k") is not None  # granted: nobody leads it yet
    assert pair.request_clearance("A", "c", 1, "k") is None
    pair.report_completion("A", "a", 0, "k", order_key=(1.0, "a"))  # arrives last, sorts first
    assert is_leading(pair.keyed, "a", "b") and is_leading(pair.keyed, "a", "c")
    assert pair.pairs_of("b") == [("a", "b"), ("b", "c")]
    assert pair.request_clearance("A", "b", 2, "k") is None  # now behind "a"
    assert pair.report_completion("A", "b", 1, "k") == []  # "c" waits for "a" too
    assert [g.instance for g in pair.report_completion("A", "a", 1, "k")] == ["c"]
    assert [g.instance for g in pair.report_completion("A", "a", 2, "k")] == ["b"]


def test_stragglers_and_reregistration():
    pair = Shadowed(ro_spec(same_schema=True, n_pairs=2))
    # A later-pair report overtakes the pair-0 report that registers.
    assert pair.report_completion("A", "a", 1, "k") == []
    assert not pair.is_registered("a")
    assert isinstance(pair.request_clearance("A", "a", 1, "k"), str)  # refused by both
    pair.report_completion("A", "a", 0, "k")
    pair.report_completion("A", "b", 0, "k")
    assert pair.request_clearance("A", "b", 1, "k") is not None  # "a" owes nothing
    # Re-execution after a rollback reports again: same seq, same completions.
    pair.report_completion("A", "a", 0, "other-key")
    assert is_leading(pair.keyed, "a", "b")
    assert pair.pairs_of("a") == [("a", "b")]
    # Retirement is for the fully complete only.
    pair.retire("b")
    assert pair.is_registered("b")
    pair.retire("a")
    assert not pair.is_registered("a")


class CountingKey:
    """A conflict-key value that counts how often it is hashed or compared."""

    def __init__(self, value: int, calls: list[int]):
        self.value = value
        self.calls = calls

    def __hash__(self) -> int:
        self.calls[0] += 1
        return hash(self.value)

    def __eq__(self, other) -> bool:
        self.calls[0] += 1
        return isinstance(other, CountingKey) and self.value == other.value


def test_cost_does_not_grow_with_history_on_other_keys():
    """Register 32 instances on a fresh key, request clearance, complete the
    second pair in order: the number of key hashes and comparisons is the
    same after 2 000 completed (never withdrawn or retired) instances on
    2 000 other keys as on an empty authority.  Counted, not timed."""

    def key_operations(history: int) -> int:
        calls = [0]
        authority = RelativeOrderAuthority(ro_spec(same_schema=True, n_pairs=2))
        for n in range(history):
            key = CountingKey(n, calls)
            authority.report_completion("A", f"old{n}", 0, key)
            authority.report_completion("A", f"old{n}", 1, key)
        calls[0] = 0
        batch = [f"new{n}" for n in range(32)]
        granted = []
        for instance in batch:
            key = CountingKey(-1, calls)  # equal values, distinct objects, as in an engine
            authority.report_completion("A", instance, 0, key)
            grant = authority.request_clearance("A", instance, 1, key)
            granted += [grant.instance] if grant is not None else []
        for instance in batch:
            grants = authority.report_completion("A", instance, 1, CountingKey(-1, calls))
            granted += [grant.instance for grant in grants]
        assert granted == batch  # chained: each waits for the one before it
        return calls[0]

    fresh = key_operations(0)
    assert fresh > 0
    assert key_operations(2000) == fresh
