"""Unit tests for the workflow database (WFDB)."""

import json

import pytest

from repro.analysis.experiment import PreparedRun
from repro.errors import StorageError
from repro.storage.tables import InstanceStatus, StepStatus
from repro.storage.wfdb import WorkflowDatabase
from tests.storage.tamper import corrupt
from tests.conftest import linear_schema
from repro.model import compile_schema


def make_db():
    db = WorkflowDatabase()
    db.register_class(compile_schema(linear_schema()))
    return db


def test_register_and_lookup_class():
    db = make_db()
    assert db.workflow_class("Linear").name == "Linear"
    assert db.class_names() == ("Linear",)


def test_duplicate_class_rejected():
    db = make_db()
    with pytest.raises(StorageError):
        db.register_class(compile_schema(linear_schema()))


def test_unknown_class_rejected():
    db = make_db()
    with pytest.raises(StorageError):
        db.workflow_class("ghost")
    with pytest.raises(StorageError):
        db.create_instance("ghost", "i1", {})


def test_create_instance_sets_summary():
    db = make_db()
    state = db.create_instance("Linear", "i1", {"x": 1})
    assert state.data["WF.x"] == 1
    assert db.status("i1") is InstanceStatus.RUNNING
    assert db.has_instance("i1")


def test_duplicate_instance_rejected():
    db = make_db()
    db.create_instance("Linear", "i1", {"x": 1})
    with pytest.raises(StorageError):
        db.create_instance("Linear", "i1", {"x": 2})


def test_set_status_updates_summary_and_persists():
    db = make_db()
    db.create_instance("Linear", "i1", {"x": 1})
    db.set_status("i1", InstanceStatus.COMMITTED)
    assert db.status("i1") is InstanceStatus.COMMITTED


def test_archive_drops_instance_table_keeps_summary():
    db = make_db()
    db.create_instance("Linear", "i1", {"x": 1})
    db.set_status("i1", InstanceStatus.COMMITTED)
    db.archive("i1")
    assert not db.has_instance("i1")
    assert db.status("i1") is InstanceStatus.COMMITTED


def test_archive_running_instance_rejected():
    db = make_db()
    db.create_instance("Linear", "i1", {"x": 1})
    with pytest.raises(StorageError):
        db.archive("i1")


def test_recover_restores_latest_snapshot():
    db = make_db()
    state = db.create_instance("Linear", "i1", {"x": 1})
    record = state.record("S1")
    record.status = StepStatus.DONE
    record.exec_seq = state.next_exec_seq()
    state.bind_outputs("S1", {"out": 7})
    db.persist(state)
    # Simulate a crash: rebuild from the WAL.
    db.recover()
    restored = db.instance("i1")
    assert restored.steps["S1"].status is StepStatus.DONE
    assert restored.data["S1.out"] == 7
    assert db.status("i1") is InstanceStatus.RUNNING


def test_recover_keeps_final_status():
    db = make_db()
    db.create_instance("Linear", "i1", {"x": 1})
    db.set_status("i1", InstanceStatus.ABORTED)
    db.recover()
    assert db.status("i1") is InstanceStatus.ABORTED


def run_steps(db, instance_id, steps):
    """What the centralized engine logs for a sequential instance: one
    persist when a step is dispatched, one when its result is bound."""
    state = db.create_instance("Linear", instance_id, {"x": 1})
    for index in range(1, steps + 1):
        record = state.record(f"S{index}")
        record.status = StepStatus.RUNNING
        record.executions += 1
        record.last_inputs = {"in": index}
        db.persist(state)
        record.status = StepStatus.DONE
        record.exec_seq = state.next_exec_seq()
        record.done_at = float(index)
        record.last_outputs = {"out": index}
        state.bind_outputs(f"S{index}", {"out": index})
        db.persist(state)
    return state


def payload_bytes(db):
    return sum(len(json.dumps(record.payload)) for record in db.wal)


@pytest.mark.parametrize("final", [InstanceStatus.COMMITTED, InstanceStatus.ABORTED])
def test_archive_is_durable(final):
    """A recovered engine used to resurrect every archived instance table."""
    db = make_db()
    for n in range(1, 4):
        run_steps(db, f"i{n}", steps=2)
        db.set_status(f"i{n}", final)
        db.archive(f"i{n}")
    assert len(db.wal) == 3  # one summary row each, nothing else
    db.recover()
    assert not db.has_instance("i1")
    assert list(db.instances()) == []
    assert db.status("i1") is final
    assert len(db.wal) == 3
    db.wal.verify()


def test_persist_appends_what_changed():
    db = make_db()
    state = run_steps(db, "i1", steps=3)
    head, *deltas = db.wal
    assert head.kind == "instance_snapshot" and head.payload == {
        **state.snapshot(), "data": {"WF.x": 1}, "steps": {}, "exec_counter": 0}
    assert {record.kind for record in deltas} == {"instance_delta"}
    assert [record.payload["base_lsn"] for record in deltas] == [1, 2, 3, 4, 5, 6]
    assert deltas[-1].payload == {
        "instance_id": "i1", "base_lsn": 6, "exec_counter": 3,
        "data": {"put": {"S3.out": 3}},
        "steps": {"put": {"S3": state.snapshot()["steps"]["S3"]}},
    }
    db.persist(state)  # nothing changed: still one append, naming no table
    assert list(db.wal)[-1].payload == {"instance_id": "i1", "base_lsn": 7}


def test_appended_bytes_grow_linearly_in_steps():
    """Whole snapshots made this quadratic (a ratio of about 4)."""
    short, long = make_db(), make_db()
    run_steps(short, "i1", steps=8)
    run_steps(long, "i1", steps=16)
    assert len(long.wal) == 33 and len(short.wal) == 17
    assert payload_bytes(long) / payload_bytes(short) < 2.5


def test_recover_detects_a_corrupt_delta():
    db = make_db()
    run_steps(db, "i1", steps=2)
    delta = list(db.wal)[2]
    flipped = json.loads(json.dumps(delta.payload).replace('"in": 1', '"in": 3'))
    assert flipped != delta.payload
    corrupt(db.wal, delta.lsn, payload=flipped)
    with pytest.raises(StorageError, match="lsn 3.*checksum mismatch"):
        db.recover()


def test_recover_refuses_a_chain_with_a_gap():
    db = make_db()
    run_steps(db, "i1", steps=2)
    db.wal.retire([3])
    with pytest.raises(StorageError, match="lsn 4.*extends lsn 3.*ends at lsn 2"):
        db.recover()
    # A running instance's delta whose head is gone is no summary row.
    db.wal.retire([1, 2])
    with pytest.raises(StorageError, match="lsn 4.*extends lsn 3.*not in the log"):
        db.recover()


def test_recovered_bases_come_from_the_log_not_from_lost_memory():
    db = make_db()
    state = run_steps(db, "i1", steps=2)
    state.bind("S9.never_persisted", 1)  # lost in the crash
    db.recover()
    restored = db.instance("i1")
    assert "S9.never_persisted" not in restored.data
    restored.bind("S3.out", 3)
    db.persist(restored)
    assert list(db.wal)[-1].payload == {
        "instance_id": "i1", "base_lsn": 5, "data": {"put": {"S3.out": 3}}}
    db.recover()
    assert db.instance("i1").snapshot() == restored.snapshot()


def test_a_replaced_shared_dict_is_logged_and_recovered():
    """The chain base holds the live state's ``last_inputs`` and
    ``events_snapshot`` dicts themselves (``snapshot`` copies only the
    tables written in place).  Replacing one after a persist is a change
    the next delta logs, and recovery gives back the live tables."""
    db = make_db()
    state = run_steps(db, "i1", steps=2)
    record = state.steps["S1"]
    [(__, base)] = db._chains.snapshots()
    assert base["steps"]["S1"]["last_inputs"] is record.last_inputs
    record.last_inputs = {"in": 7}
    state.events_snapshot = {"S1.D": [1.0, 0]}
    db.persist(state)
    assert list(db.wal)[-1].payload == {
        "instance_id": "i1", "base_lsn": 5,
        "steps": {"put": {"S1": state.snapshot()["steps"]["S1"]}},
        "events_snapshot": {"put": {"S1.D": [1.0, 0]}},
    }
    assert list(db.wal)[-1].payload["steps"]["put"]["S1"]["last_inputs"] == {"in": 7}
    db.recover()
    assert db.instance("i1").snapshot() == state.snapshot()


@pytest.mark.parametrize("architecture", ["centralized", "parallel"])
def test_engine_log_costs_what_changed_and_keeps_what_is_live(architecture, monkeypatch):
    from repro.storage.wal import WriteAheadLog

    sizes = []
    append = WriteAheadLog.append

    def measured(self, kind, payload):
        sizes.append(len(json.dumps(payload, default=str)))
        return append(self, kind, payload)

    monkeypatch.setattr(WriteAheadLog, "append", measured)
    prepared = PreparedRun(architecture, seed=7)
    counters = prepared.execute(instances_per_schema=5)
    assert counters.committed + counters.aborted == 20
    assert sum(sizes) / len(sizes) < 600  # whole snapshots averaged 2 366 B
    system = prepared.system
    engines = system.engines
    assert sum(len(engine.wfdb.wal) for engine in engines) == 20
    for engine in engines:
        assert not list(engine.wfdb.instances())
        assert not list(engine.wfdb._chains.snapshots())  # no diff base kept
        assert len(engine.wfdb.wal) < engine.wfdb.wal.appends
