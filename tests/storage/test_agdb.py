"""Unit tests for the agent database (AGDB)."""

import pytest

from repro.errors import StorageError
from repro.storage.agdb import AgentDatabase
from repro.storage.tables import InstanceStatus, StepStatus
from tests.storage.tamper import corrupt


def make_db():
    db = AgentDatabase("agent-1")
    db.set_eligible_agents("W", "S1", ["agent-1", "agent-2"])
    return db


def test_directory_roundtrip():
    db = make_db()
    assert db.eligible_agents("W", "S1") == ("agent-1", "agent-2")
    with pytest.raises(StorageError):
        db.eligible_agents("W", "ghost")
    with pytest.raises(StorageError):
        db.set_eligible_agents("W", "S2", [])


def test_hosted_steps_are_scanned_once_until_the_directory_changes():
    db = make_db()
    db.set_eligible_agents("W", "S2", ["agent-2"])
    db.set_eligible_agents("V", "S1", ["agent-1"])
    hosted = db.hosted_steps("W", ["S1", "S2"])
    assert hosted == frozenset({"S1"})
    assert db.hosted_steps("W", iter(())) is hosted  # not scanned again
    db.set_eligible_agents("V", "S1", ["agent-2"])  # another schema's entry
    assert db.hosted_steps("W", iter(())) is hosted
    db.set_eligible_agents("W", "S2", ["agent-2", "agent-1"])
    assert db.hosted_steps("W", ["S1", "S2"]) == frozenset({"S1", "S2"})
    with pytest.raises(StorageError):
        db.hosted_steps("V", ["S1", "ghost"])  # a step without an entry still raises


def test_ensure_fragment_idempotent():
    db = make_db()
    fragment = db.ensure_fragment("W", "i1", {"x": 1})
    assert db.ensure_fragment("W", "i1") is fragment
    assert db.has_fragment("i1")
    assert db.fragment("i1").data["WF.x"] == 1


def test_fragment_missing_raises():
    db = make_db()
    with pytest.raises(StorageError):
        db.fragment("ghost")


def test_summary_table():
    db = make_db()
    db.set_summary("i1", InstanceStatus.RUNNING)
    assert db.summary("i1") is InstanceStatus.RUNNING
    assert db.has_summary("i1")
    assert db.coordinated_instances() == ("i1",)
    with pytest.raises(StorageError):
        db.summary("ghost")


def test_purge_drops_fragments_and_remembers():
    db = make_db()
    db.ensure_fragment("W", "i1")
    db.ensure_fragment("W", "i2")
    assert db.purge_instances(["i1", "ghost"]) == 1
    assert not db.has_fragment("i1")
    assert db.has_fragment("i2")
    assert db.was_purged("i1")
    assert db.was_purged("ghost")  # remembered even without a fragment


def test_a_purged_instance_stays_purged():
    db = make_db()
    db.ensure_fragment("W", "i1")
    db.purge_instances(["i1", "ghost"])
    appends = db.wal.appends
    for instance in ("i1", "ghost"):
        with pytest.raises(StorageError, match="stays purged"):
            db.ensure_fragment("W", instance)
    assert not db.has_fragment("i1") and db.wal.appends == appends
    db.recover()
    with pytest.raises(StorageError, match="stays purged"):
        db.ensure_fragment("W", "i1")


def test_recover_restores_fragments_and_summaries():
    db = make_db()
    fragment = db.ensure_fragment("W", "i1", {"x": 1})
    record = fragment.record("S1")
    record.status = StepStatus.DONE
    record.agent = "agent-1"
    fragment.events_snapshot = {"S1.D": 1.0}
    db.persist_fragment(fragment)
    db.set_summary("i1", InstanceStatus.RUNNING)
    db.recover()
    restored = db.fragment("i1")
    assert restored.steps["S1"].status is StepStatus.DONE
    assert restored.events_snapshot == {"S1.D": 1.0}
    assert db.summary("i1") is InstanceStatus.RUNNING
    # The static directory survives recovery untouched.
    assert db.eligible_agents("W", "S1") == ("agent-1", "agent-2")


def test_recover_honours_purge():
    db = make_db()
    fragment = db.ensure_fragment("W", "i1")
    db.persist_fragment(fragment)
    db.purge_instances(["i1"])
    db.recover()
    assert not db.has_fragment("i1")
    assert db.was_purged("i1")


def test_recover_uses_latest_fragment_snapshot():
    db = make_db()
    fragment = db.ensure_fragment("W", "i1")
    db.persist_fragment(fragment)
    fragment.bind("S1.out", 42)
    db.persist_fragment(fragment)
    db.recover()
    assert db.fragment("i1").data["S1.out"] == 42


def test_tracker_snapshot_survives_recovery():
    db = make_db()
    db.set_summary("i1", InstanceStatus.RUNNING)
    db.set_tracker("i1", {"reported": {"S1": 1}, "finished": False})
    db.set_tracker("i1", {"reported": {"S1": 1, "S2": 1}, "finished": True})
    db.recover()
    # The latest snapshot wins; nothing for unknown instances.
    assert db.recovered_tracker("i1") == {"reported": {"S1": 1, "S2": 1},
                                          "finished": True}
    assert db.recovered_tracker("ghost") is None


def test_purge_drops_tracker_snapshots():
    db = make_db()
    db.set_tracker("i1", {"finished": True})
    db.purge_instances(["i1"])
    db.recover()
    assert db.recovered_tracker("i1") is None


def test_replay_clone_is_equal_and_independent():
    db = make_db()
    fragment = db.ensure_fragment("W", "i1", {"x": 1})
    fragment.record("S1").status = StepStatus.DONE
    db.persist_fragment(fragment)
    db.set_summary("i1", InstanceStatus.COMMITTED)
    db.set_tracker("i1", {"finished": True})
    clone = db.replay_clone()
    assert clone.fragment("i1").steps["S1"].status is StepStatus.DONE
    assert clone.summary("i1") is InstanceStatus.COMMITTED
    assert clone.recovered_tracker("i1") == {"finished": True}
    # Mutating the clone must not leak back into the original.
    clone.set_summary("i1", InstanceStatus.ABORTED)
    assert db.summary("i1") is InstanceStatus.COMMITTED


def test_recover_detects_wal_corruption():
    db = make_db()
    db.set_summary("i1", InstanceStatus.RUNNING)
    corrupt(db.wal, db.wal.last_lsn(), payload={"tampered": True})
    with pytest.raises(StorageError, match="checksum mismatch"):
        db.recover()


def test_an_enum_in_data_round_trips_through_the_fallback():
    db = make_db()
    fragment = db.ensure_fragment("W", "i1")
    fragment.bind("S1.out", InstanceStatus.COMMITTED)  # marshal refuses it
    db.persist_fragment(fragment)
    fragment.bind("S2.out", 2)
    db.persist_fragment(fragment)
    assert db.wal.verify() == 2
    clone = db.replay_clone()
    assert clone.fragment("i1").snapshot() == fragment.snapshot()
    assert clone.fragment("i1").data["S1.out"] is InstanceStatus.COMMITTED
    # The fold wrote to the view's copy, not to the logged head.
    assert db.wal.verify() == 2 and clone.wal.verify() == 2
    assert [r.payload["data"] for r in db.wal][0] == {"S1.out": InstanceStatus.COMMITTED}


def test_fragment_persists_append_deltas_and_recover_folds_them():
    db = make_db()
    fragment = db.ensure_fragment("W", "i1", {"x": 1})
    db.persist_fragment(fragment)
    fragment.events_snapshot = {"S1.D": [1.0, 0]}
    fragment.known_invalidations["S2.D"] = 1
    db.persist_fragment(fragment)
    fragment.events_snapshot = {"S2.D": [2.0, 1], "S1.D": [1.0, 0]}  # replaced, reordered
    db.persist_fragment(fragment)
    assert [r.kind for r in db.wal] == [
        "fragment_snapshot", "fragment_delta", "fragment_delta"]
    assert list(db.wal)[-1].payload == {
        "instance_id": "i1", "base_lsn": 2,
        "events_snapshot": {"put": {"S2.D": [2.0, 1]}, "order": ["S2.D", "S1.D"]},
    }
    db.recover()
    assert db.fragment("i1").snapshot() == fragment.snapshot()
    assert list(db.fragment("i1").events_snapshot) == ["S2.D", "S1.D"]


def test_recover_detects_a_corrupt_delta_and_a_broken_chain():
    db = make_db()
    fragment = db.ensure_fragment("W", "i1")
    for value in range(3):
        fragment.bind("S1.out", value)
        db.persist_fragment(fragment)
    clone = db.replay_clone()
    corrupt(db.wal, 2, payload={**list(db.wal)[1].payload, "data": {"put": {"S1.out": 7}}})
    with pytest.raises(StorageError, match="lsn 2.*checksum mismatch"):
        db.recover()
    clone.wal.retire([2])
    with pytest.raises(StorageError, match="chain broken at lsn 3"):
        clone.recover()
    clone.wal.retire([1])  # an agent log has no archived instances
    with pytest.raises(StorageError, match="chain broken at lsn 3.*not in the log"):
        clone.recover()


def test_purge_record_names_only_new_ids_and_retires_what_it_purged():
    """The record used to list every id ever purged, and nothing left the log."""
    db = make_db()
    for n in range(200):
        instance_id = f"i{n}"
        fragment = db.ensure_fragment("W", instance_id, {"x": n})
        db.persist_fragment(fragment)
        fragment.bind("S1.out", n)
        db.persist_fragment(fragment)
        db.set_summary(instance_id, InstanceStatus.COMMITTED)
        db.set_tracker(instance_id, {"reported": {"S1": 1}, "finished": False})
        db.set_tracker(instance_id, {"reported": {"S1": 1}, "finished": True})
        db.purge_instances([instance_id])
    purges = [r.payload for r in db.wal if r.kind == "purge"]
    assert len(purges) == 200
    assert purges[0] == {"instance_ids": ["i0"]}
    assert purges[199] == {"instance_ids": ["i199"]}
    assert {r.kind for r in db.wal} == {"purge", "summary"}
    assert len(db.wal) == 400 and db.wal.appends == 1200
    db.recover()
    assert db.fragments() == () and db.recovered_tracker("i7") is None
    assert all(db.was_purged(f"i{n}") for n in range(200))
    assert db.summary("i7") is InstanceStatus.COMMITTED


def test_unlogged_purge_ids_ride_on_the_next_purge_record():
    db = make_db()
    db.purge_instances(["ghost"])  # drops nothing: not logged
    assert len(db.wal) == 0
    db.persist_fragment(db.ensure_fragment("W", "i1"))
    db.purge_instances(["i1", "ghost"])
    assert list(db.wal)[-1].payload == {"instance_ids": ["ghost", "i1"]}
    db.recover()
    assert db.was_purged("ghost") and db.was_purged("i1")


def test_only_the_latest_tracker_record_stays_in_the_log():
    db = make_db()
    for reported in range(5):
        db.set_tracker("i1", {"reported": reported})
    assert [r.payload["tracker"] for r in db.wal] == [{"reported": 4}]
    db.recover()
    db.set_tracker("i1", {"reported": 5})
    assert [r.payload["tracker"] for r in db.wal] == [{"reported": 5}]
