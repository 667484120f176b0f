"""Unit tests for event tokens and the event table."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import RuleError
from repro.rules.events import (
    WF_ABORT,
    WF_DONE,
    WF_START,
    EventOccurrence,
    EventTable,
    external_event,
    is_step_done,
    step_compensated,
    step_done,
    step_fail,
    step_of_token,
)


def test_token_helpers():
    assert step_done("S1") == "S1.D"
    assert step_fail("S1") == "S1.F"
    assert step_compensated("S1") == "S1.C"
    assert external_event("RO.spec.1.i1") == "EXT.RO.spec.1.i1"
    assert (WF_START, WF_DONE, WF_ABORT) == ("WF.S", "WF.D", "WF.A")


def test_is_step_done():
    assert is_step_done("S1.D")
    assert not is_step_done("WF.D")
    assert not is_step_done("S1.F")
    assert not is_step_done("EXT.RO.x.D")


def test_step_of_token():
    assert step_of_token("S1.D") == "S1"
    assert step_of_token("EXT.RO.spec.1.i1") == "EXT.RO.spec.1"
    with pytest.raises(RuleError):
        step_of_token("notatoken")


def test_post_and_validity():
    table = EventTable()
    table.post("S1.D", 1.0)
    assert table.is_valid("S1.D")
    assert "S1.D" in table
    assert not table.is_valid("S2.D")


def test_malformed_token_rejected():
    table = EventTable()
    with pytest.raises(RuleError):
        table.post("bogus", 1.0)


def test_invalidate_and_repost():
    table = EventTable()
    table.post("S1.D", 1.0)
    assert table.invalidate(["S1.D", "S2.D"]) == ["S1.D"]
    assert not table.is_valid("S1.D")
    table.post("S1.D", 2.0)
    assert table.is_valid("S1.D")
    assert table.occurrence("S1.D").time == 2.0


def test_invalidate_before_round_respects_rounds():
    table = EventTable()
    table.post("S1.D", 5.0, round=2)
    assert not table.invalidate_before_round("S1.D", 2)  # same round survives
    assert not table.invalidate_before_round("S1.D", 1)
    assert table.is_valid("S1.D")
    assert table.invalidate_before_round("S1.D", 3)
    assert not table.is_valid("S1.D")


def test_merge_keeps_existing_valid_events():
    table = EventTable()
    table.post("S1.D", 1.0)
    added = table.merge({"S1.D": 0.5, "S2.D": 0.7}, time=2.0)
    assert added == ["S2.D"]
    assert table.occurrence("S1.D").time == 1.0  # not overwritten
    assert table.occurrence("S2.D").time == 0.7  # original time preserved


def test_merge_accepts_versioned_pairs_and_rounds_win():
    table = EventTable()
    table.post("S1.D", 1.0, round=0)
    # A carried occurrence from a newer round replaces a valid older one.
    added = table.merge({"S1.D": [3.0, 2]}, time=4.0)
    assert added == []  # already valid, so not "newly valid"
    assert table.occurrence("S1.D").round == 2
    assert table.occurrence("S1.D").time == 3.0
    # ...and an older round never downgrades it back.
    table.merge({"S1.D": [9.0, 1]}, time=5.0)
    assert table.occurrence("S1.D").round == 2


def test_merge_same_round_does_not_revive_invalidated_newer():
    table = EventTable()
    table.post("S1.D", 1.0, round=0)
    table.invalidate(["S1.D"])
    # same-round carried copy revalidates (it is the same occurrence)
    added = table.merge({"S1.D": [1.0, 0]}, time=2.0)
    assert added == ["S1.D"]
    assert table.is_valid("S1.D")
    assert table.invalidate_before_round("S1.D", 1)


def test_merge_revalidates_invalidated_events():
    table = EventTable()
    table.post("S1.D", 1.0)
    table.invalidate(["S1.D"])
    added = table.merge({"S1.D": 3.0}, time=4.0)
    assert added == ["S1.D"]
    assert table.is_valid("S1.D")


def test_export_only_valid():
    table = EventTable()
    table.post("S1.D", 1.0)
    table.post("S2.D", 2.0)
    table.invalidate(["S1.D"])
    assert table.export() == {"S2.D": 2.0}


def test_len_and_iter_count_valid_only():
    table = EventTable()
    table.post("S1.D", 1.0)
    table.post("S2.D", 2.0)
    table.invalidate(["S1.D"])
    assert len(table) == 1
    assert set(table) == {"S2.D"}


def test_merge_is_deterministic_in_time_order():
    table = EventTable()
    table.merge({"B.D": 2.0, "A.D": 1.0}, time=3.0)
    occurrences = [table.occurrence(t) for t in ("A.D", "B.D")]
    assert occurrences[0].seq < occurrences[1].seq  # earlier time first


def merge_sorting_everything(table, tokens):
    """``EventTable.merge`` as it was: normalise and sort every carried
    token, then decide which of them replace the local occurrence."""
    added = []
    normalized = {t: table._normalize(v) for t, v in tokens.items()}
    for token, (time, round) in sorted(normalized.items(), key=lambda kv: (kv[1], kv[0])):
        existing = table._events.get(token)
        if (existing is None or (not existing.valid and round >= existing.round)
                or (existing.valid and round > existing.round)):
            table._seq += 1
            table._events[token] = EventOccurrence(
                token=token, time=time, seq=table._seq, valid=True, round=round)
            if existing is None or not existing.valid:
                added.append(token)
                table._notify(token, True)
    return added


@given(st.lists(
    st.one_of(
        st.tuples(st.just("merge"), st.dictionaries(
            st.sampled_from([f"S{n}.D" for n in range(6)]),
            st.one_of(st.integers(0, 5), st.tuples(st.integers(0, 5), st.integers(0, 3))),
            max_size=6)),
        st.tuples(st.just("invalidate"),
                  st.lists(st.sampled_from([f"S{n}.D" for n in range(6)]), max_size=3)),
    ), max_size=8))
def test_merge_numbers_the_occurrences_it_replaces_as_a_full_sort_would(operations):
    fast, slow = EventTable(), EventTable()
    heard = {id(fast): [], id(slow): []}
    for table in (fast, slow):
        table.subscribe(lambda token, valid, log=heard[id(table)]: log.append((token, valid)))
    for op, argument in operations:
        if op == "invalidate":
            assert fast.invalidate(argument) == slow.invalidate(argument)
        else:
            assert fast.merge(argument, 9.0) == merge_sorting_everything(slow, argument)
        assert fast._events == slow._events and list(fast._events) == list(slow._events)
        assert fast._seq == slow._seq
    assert heard[id(fast)] == heard[id(slow)]
