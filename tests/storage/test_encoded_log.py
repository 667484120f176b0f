"""The engine log keeps encoded records, not the payload objects.

(a) after each config of the six-config sweep grid, run in failure mode,
every store's log recovers into a fresh store exactly what the live store
holds; (b) nothing a log stores can be walked by the garbage collector:
no ``dict`` or ``list`` is reachable from its records, except from a
record marshal refused.
"""

import gc
from enum import Enum

import pytest

from repro.analysis.experiment import PreparedRun
from repro.analysis.sweep import sweep_tasks
from repro.storage.wal import WalRecord, WriteAheadLog
from repro.storage.wfdb import WorkflowDatabase


def stores(system):
    """``(name, store, clone)`` per durable store of a finished run; the
    clone is a fresh store recovered from a copy of the store's log."""
    if system.architecture == "distributed":
        for agent in system.agents:
            yield agent.name, agent.agdb, agent.agdb.replay_clone()
        return
    for engine in system.engines:
        clone = WorkflowDatabase()
        clone.wal.load(engine.wfdb.wal)
        clone.recover()
        yield engine.name, engine.wfdb, clone


def tables(store):
    if hasattr(store, "fragments"):
        return {state.instance_id: state.snapshot() for state in store.fragments()}
    return {state.instance_id: state.snapshot() for state in store.instances()}


def containers(roots) -> list[type]:
    """Types of the ``dict``s and ``list``s reachable from ``roots``."""
    found, seen, todo = [], set(), list(roots)
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (dict, list)):
            found.append(type(obj))
        todo.extend(gc.get_referents(obj))
    return found


def reachable_containers(wal: WriteAheadLog) -> list[type]:
    """:func:`containers` of the log's stored records, fallback records (a
    :class:`WalRecord` holding the appended object) left out."""
    return containers(stored for stored in wal._records.values()
                      if type(stored) is not WalRecord)


@pytest.mark.parametrize("task", sweep_tasks(), ids=lambda task: task.label)
def test_each_sweep_config_in_failure_mode_recovers_what_is_live(task):
    prepared = PreparedRun(task.architecture, task.params,
                           coordination=task.coordination,
                           fail_first_attempt=True, seed=task.seed)
    counters = prepared.execute(task.instances_per_schema)
    assert counters.committed > 0
    checked = 0
    for name, store, clone in stores(prepared.system):
        assert tables(clone) == tables(store), name
        assert clone._summary == store._summary, name
        assert reachable_containers(store.wal) == [], name
        # Engine snapshots are plain data: no record takes the fallback.
        assert not any(type(stored) is WalRecord
                       for stored in store.wal._records.values()), name
        checked += len(store.wal)
    assert checked > 0


class Colour(Enum):
    RED = "red"


def test_only_a_fallback_record_keeps_a_container():
    wal = WriteAheadLog()
    wal.append("k", {"a": [1, {"b": 2}], "c": {"d": (3, [4])}})
    assert type(wal._records[1]) is tuple and reachable_containers(wal) == []
    wal.append("k", {"colour": Colour.RED, "n": [1]})
    assert type(wal._records[2]) is WalRecord
    assert reachable_containers(wal) == []
    assert {dict, list} <= set(containers([wal._records[2]]))  # the walk sees them
    assert wal.verify() == 2
