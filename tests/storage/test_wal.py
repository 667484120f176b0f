"""Unit tests for the write-ahead log."""

import marshal
import sys
from decimal import Decimal

import pytest

from repro.errors import StorageError
from repro.storage.tables import InstanceStatus
from repro.storage.wal import WriteAheadLog
from tests.storage.tamper import corrupt


def test_append_assigns_increasing_lsns():
    wal = WriteAheadLog()
    lsn1 = wal.append("k", {"a": 1})
    lsn2 = wal.append("k", {"a": 2})
    assert lsn2 == lsn1 + 1
    assert len(wal) == 2
    assert wal.last_lsn() == lsn2


def test_payload_must_be_dict():
    wal = WriteAheadLog()
    with pytest.raises(StorageError):
        wal.append("k", [1, 2])  # type: ignore[arg-type]


def test_replay_dispatches_by_kind():
    wal = WriteAheadLog()
    wal.append("a", {"v": 1})
    wal.append("b", {"v": 2})
    wal.append("a", {"v": 3})
    seen = {"a": [], "b": []}
    count = wal.replay({
        "a": lambda r: seen["a"].append(r.payload["v"]),
        "b": lambda r: seen["b"].append(r.payload["v"]),
    })
    assert count == 3
    assert seen == {"a": [1, 3], "b": [2]}


def test_replay_strict_unknown_kind_raises():
    wal = WriteAheadLog()
    wal.append("known", {"v": 1})
    wal.append("mystery", {})
    seen = []
    with pytest.raises(StorageError, match="no WAL replay handler for kind 'mystery'"):
        wal.replay({"known": seen.append})
    assert [r.payload for r in seen] == [{"v": 1}]


def test_empty_wal_last_lsn_zero():
    assert WriteAheadLog().last_lsn() == 0


def test_appends_counter_survives_retiring_every_record():
    wal = WriteAheadLog()
    wal.append("k", {})
    wal.retire([1])
    assert wal.appends == 1
    assert len(wal) == 0


def test_retiring_past_last_lsn_empties_the_log_and_keeps_the_lsn_sequence():
    wal = WriteAheadLog()
    for i in range(3):
        wal.append("k", {"i": i})
    # Retiring lsns beyond the last one is legal: everything is dropped,
    # but the lsn sequence keeps advancing from where it was.
    assert wal.retire(range(1, wal.last_lsn() + 100)) == 3
    assert len(wal) == 0
    assert wal.last_lsn() == 0
    assert wal.append("k", {"i": 99}) == 4


def test_replay_from_empty_log_is_a_noop():
    wal = WriteAheadLog()
    assert wal.replay({}) == 0
    assert wal.replay({"k": lambda r: (_ for _ in ()).throw(AssertionError)}) == 0


def test_replay_after_retire_covers_the_surviving_records():
    wal = WriteAheadLog()
    for i in range(6):
        wal.append("k", {"i": i})
    wal.retire([1, 2, 3])
    seen = []
    assert wal.replay({"k": lambda r: seen.append(r.payload["i"])}) == 3
    assert seen == [3, 4, 5]


def test_verify_passes_on_clean_log():
    wal = WriteAheadLog()
    for i in range(4):
        wal.append("kind", {"i": i, "nested": {"x": [1, 2]}})
    assert wal.verify() == 4


def test_corrupted_record_detected_by_verify_and_replay():
    wal = WriteAheadLog()
    wal.append("k", {"i": 0})
    wal.append("k", {"i": 1})
    # Corrupt the payload behind the checksum's back (bit rot).
    corrupt(wal, 2, payload={"i": 999})
    with pytest.raises(StorageError, match="lsn 2.*checksum mismatch"):
        wal.verify()
    with pytest.raises(StorageError, match="checksum mismatch"):
        wal.replay({"k": lambda r: None})


def test_checksum_binds_lsn_and_kind_not_just_payload():
    wal = WriteAheadLog()
    wal.append("a", {"v": 1})
    assert wal.verify() == 1
    for lsn, kind in ((2, "a"), (1, "b")):
        corrupt(wal, 1, lsn=lsn, kind=kind)
        with pytest.raises(StorageError, match="checksum mismatch"):
            wal.verify()
    corrupt(wal, 1, lsn=1, kind="a")
    assert wal.verify() == 1


# The in-memory checksum is crc32 over ``marshal.dumps(..., 0)``.  These pin
# what that form must ignore (interning, refcounts) and what it must not.


def test_interning_a_payload_string_after_the_append_does_not_move_the_crc():
    wal = WriteAheadLog()
    text = "".join(["late", "-interned-", str(id(wal))])  # unique, not interned
    payload = {"text": text}
    wal.append("k", payload)
    payload["text"] = sys.intern(text)
    assert wal.verify() == 1


def test_shared_sub_dict_with_changed_refcounts_still_verifies():
    wal = WriteAheadLog()
    shared = {"x": [1, 2], "y": "z"}
    wal.append("k", {"a": shared, "b": shared})
    holders = [shared["x"]] * 50  # [1, 2] was held once; content is unchanged
    assert wal.replay({"k": lambda r: None}) == 1
    del holders


@pytest.mark.parametrize("before, after", [
    ({"v": 1}, {"v": True}),
    ({"v": 0.0}, {"v": -0.0}),
    ({"a": 1, "b": 2}, {"b": 2, "a": 1}),
], ids=["bool-vs-int", "signed-zero", "key-order"])
def test_content_the_json_form_conflated_counts_as_a_change(before, after):
    wal = WriteAheadLog()
    lsn = wal.append("k", before)
    corrupt(wal, lsn, payload=after)
    with pytest.raises(StorageError, match="lsn 1.*checksum mismatch"):
        wal.verify()
    # ... and the stored form hands back exactly what was appended.
    fresh = WriteAheadLog()
    fresh.append("k", after)
    assert [repr(record.payload) for record in fresh] == [repr(after)]


@pytest.mark.parametrize("value", [InstanceStatus.COMMITTED, Decimal("1.50")],
                         ids=["enum", "decimal"])
def test_values_marshal_refuses_take_the_json_fallback(value):
    payload = {"value": value, "n": [1]}
    with pytest.raises(ValueError):
        marshal.dumps(payload, 0)
    wal = WriteAheadLog()
    wal.append("k", payload)
    assert wal.verify() == 1
    payload["n"].append(2)
    with pytest.raises(StorageError, match="lsn 1.*checksum mismatch"):
        wal.verify()


def test_mutating_a_payload_after_the_append_changes_nothing_logged():
    wal = WriteAheadLog()
    payload = {"i": 0, "nested": {"x": [1, 2]}}
    wal.append("k", payload)
    payload["i"] = 1
    payload["nested"]["x"].append(3)
    assert wal.verify() == 1
    seen = []
    assert wal.replay({"k": seen.append}) == 1
    assert [r.payload for r in seen] == [{"i": 0, "nested": {"x": [1, 2]}}]
    seen[0].payload["nested"]["x"].clear()  # a view's payload is the reader's own
    assert [record.payload for record in wal] == [{"i": 0, "nested": {"x": [1, 2]}}]


def test_retire_drops_records_by_lsn_and_keeps_the_order_of_the_rest():
    wal = WriteAheadLog()
    for i in range(5):
        wal.append("k", {"i": i})
    assert wal.retire([2, 4, 99]) == 2
    assert [r.lsn for r in wal] == [1, 3, 5]
    assert wal.last_lsn() == 5 and wal.verify() == 3
    assert wal.append("k", {"i": 5}) == 6
    assert wal.appends == 6


def test_load_copies_records_and_next_lsn():
    wal = WriteAheadLog()
    wal.append("k", {"i": 0})
    wal.append("k", {"i": 1})
    wal.retire([2])
    other = WriteAheadLog()
    other.load(wal)
    assert [r.payload for r in other] == [{"i": 0}]
    assert other.append("k", {}) == 3
    assert len(wal) == 1  # independent afterwards


def test_replay_can_hand_over_whole_records():
    wal = WriteAheadLog()
    wal.append("k", {"i": 0})
    seen = []
    assert wal.replay({"k": seen.append}) == 1
    assert [(r.lsn, r.kind, r.payload) for r in seen] == [(1, "k", {"i": 0})]
