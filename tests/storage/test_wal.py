"""Unit tests for the write-ahead log."""

import marshal
import sys
from decimal import Decimal

import pytest

from repro.errors import StorageError
from repro.storage.tables import InstanceStatus
from repro.storage.wal import WriteAheadLog


def test_append_assigns_increasing_lsns():
    wal = WriteAheadLog()
    r1 = wal.append("k", {"a": 1})
    r2 = wal.append("k", {"a": 2})
    assert r2.lsn == r1.lsn + 1
    assert len(wal) == 2
    assert wal.last_lsn() == r2.lsn


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
        "a": lambda p: seen["a"].append(p["v"]),
        "b": lambda p: seen["b"].append(p["v"]),
    })
    assert count == 3
    assert seen == {"a": [1, 3], "b": [2]}


def test_replay_strict_unknown_kind_raises():
    wal = WriteAheadLog()
    wal.append("mystery", {})
    with pytest.raises(StorageError):
        wal.replay({})


def test_replay_non_strict_skips_unknown():
    wal = WriteAheadLog()
    wal.append("mystery", {})
    wal.append("known", {"v": 1})
    seen = []
    assert wal.replay({"known": seen.append}, strict=False) == 1
    assert seen == [{"v": 1}]


def test_checkpoint_truncates_older_records():
    wal = WriteAheadLog()
    for i in range(5):
        wal.append("k", {"i": i})
    dropped = wal.checkpoint(keep_from_lsn=4)
    assert dropped == 3
    assert [r.payload["i"] for r in wal] == [3, 4]


def test_empty_wal_last_lsn_zero():
    assert WriteAheadLog().last_lsn() == 0


def test_appends_counter_survives_checkpoint():
    wal = WriteAheadLog()
    wal.append("k", {})
    wal.checkpoint(keep_from_lsn=10)
    assert wal.appends == 1
    assert len(wal) == 0


def test_checkpoint_past_last_lsn_empties_log():
    wal = WriteAheadLog()
    for i in range(3):
        wal.append("k", {"i": i})
    # Checkpointing beyond the last LSN is legal: everything is dropped,
    # but the LSN sequence keeps advancing from where it was.
    assert wal.checkpoint(keep_from_lsn=wal.last_lsn() + 100) == 3
    assert len(wal) == 0
    assert wal.last_lsn() == 0
    assert wal.append("k", {"i": 99}).lsn == 4


def test_replay_from_empty_log_is_a_noop():
    wal = WriteAheadLog()
    assert wal.replay({}) == 0
    assert wal.replay({"k": lambda p: (_ for _ in ()).throw(AssertionError)},
                      verify=True) == 0


def test_replay_after_checkpoint_covers_surviving_suffix():
    wal = WriteAheadLog()
    for i in range(6):
        wal.append("k", {"i": i})
    wal.checkpoint(keep_from_lsn=4)
    seen = []
    assert wal.replay({"k": lambda p: seen.append(p["i"])}, verify=True) == 3
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
    object.__setattr__(list(wal)[1], "payload", {"i": 999})
    with pytest.raises(StorageError, match="lsn 2.*checksum mismatch"):
        wal.verify()
    with pytest.raises(StorageError, match="checksum mismatch"):
        wal.replay({"k": lambda p: None}, verify=True)
    # Non-verifying replay still works (callers opt into the guard).
    assert wal.replay({"k": lambda p: None}) == 2


def test_checksum_binds_lsn_and_kind_not_just_payload():
    wal = WriteAheadLog()
    record = wal.append("a", {"v": 1})
    assert wal.verify() == 1
    for lsn, kind in ((2, "a"), (1, "b")):
        object.__setattr__(record, "lsn", lsn)
        object.__setattr__(record, "kind", kind)
        with pytest.raises(StorageError, match="checksum mismatch"):
            wal.verify()
    object.__setattr__(record, "lsn", 1)
    object.__setattr__(record, "kind", "a")
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
    assert wal.replay({"k": lambda p: None}, verify=True) == 1
    del holders


@pytest.mark.parametrize("before, after", [
    ({"v": 1}, {"v": True}),
    ({"v": 0.0}, {"v": -0.0}),
    ({"a": 1, "b": 2}, {"b": 2, "a": 1}),
], ids=["bool-vs-int", "signed-zero", "key-order"])
def test_content_the_json_form_conflated_counts_as_a_change(before, after):
    wal = WriteAheadLog()
    record = wal.append("k", before)
    object.__setattr__(record, "payload", after)
    with pytest.raises(StorageError, match="lsn 1.*checksum mismatch"):
        wal.verify()


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


def test_retire_drops_records_by_lsn_and_keeps_the_order_of_the_rest():
    wal = WriteAheadLog()
    for i in range(5):
        wal.append("k", {"i": i})
    assert wal.retire([2, 4, 99]) == 2
    assert [r.lsn for r in wal] == [1, 3, 5]
    assert wal.last_lsn() == 5 and wal.verify() == 3
    assert wal.append("k", {"i": 5}).lsn == 6
    assert wal.appends == 6


def test_load_copies_records_and_next_lsn():
    wal = WriteAheadLog()
    wal.append("k", {"i": 0})
    wal.append("k", {"i": 1})
    wal.retire([2])
    other = WriteAheadLog()
    other.load(wal)
    assert [r.payload for r in other] == [{"i": 0}]
    assert other.append("k", {}).lsn == 3
    assert len(wal) == 1  # independent afterwards


def test_replay_can_hand_over_whole_records():
    wal = WriteAheadLog()
    wal.append("k", {"i": 0})
    seen = []
    assert wal.replay({"k": seen.append}, records=True) == 1
    assert [(r.lsn, r.kind, r.payload) for r in seen] == [(1, "k", {"i": 0})]
