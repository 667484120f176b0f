"""The whole-snapshot engine log, kept as the test oracle.

Before the WFDB/AGDB logged per-instance chains they appended a full
``InstanceState.snapshot()`` on every persist and recovered by "latest
snapshot wins" — quadratic in steps and obviously right.
:class:`SnapshotLog` is that, plus a ``retired`` record so that archiving
is durable here too (a purge already was).  :class:`Shadowed` mirrors every persist
of a live store into one and, after each append, recovers a fresh store
from a copy of the live log and requires it to hold what the oracle's
replay holds.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.storage.agdb import AgentDatabase
from repro.storage.tables import InstanceState
from repro.storage.wal import WalRecord, WriteAheadLog
from repro.storage.wfdb import WorkflowDatabase

__all__ = ["Shadowed", "SnapshotLog"]


class SnapshotLog:
    """One whole snapshot per persist; replay keeps the latest of each."""

    def __init__(self, retired_for_good: bool) -> None:
        self.wal = WriteAheadLog()
        #: A purged fragment stays purged whatever is persisted later; an
        #: archived instance persisted again has a table again.
        self.retired_for_good = retired_for_good

    def persist(self, state: InstanceState) -> None:
        self.wal.append("snapshot", state.snapshot())

    def retire(self, instance_ids: Iterable[str]) -> None:
        self.wal.append("retired", {"instance_ids": sorted(instance_ids)})

    def replay(self) -> tuple[dict[str, Mapping[str, Any]], dict[str, str]]:
        """``(instance tables, statuses)``: the tables of the instances not
        retired since their last snapshot, the last status of every one."""
        tables: dict[str, Mapping[str, Any]] = {}
        statuses: dict[str, str] = {}
        retired: set[str] = set()

        def on_snapshot(record: WalRecord) -> None:
            payload = record.payload
            tables[payload["instance_id"]] = payload
            statuses[payload["instance_id"]] = payload["status"]

        def on_retired(record: WalRecord) -> None:
            payload = record.payload
            for instance_id in payload["instance_ids"]:
                tables.pop(instance_id, None)
            retired.update(payload["instance_ids"])

        self.wal.replay({"snapshot": on_snapshot, "retired": on_retired})
        if self.retired_for_good:
            tables = {i: t for i, t in tables.items() if i not in retired}
        return tables, statuses


class Shadowed:
    """Stands between an engine (or a test) and its live store.

    Wraps the store's logging calls in place, so it can be attached to the
    ``wfdb`` / ``agdb`` of a running node.  ``checks`` counts the
    recover-and-compare rounds made.
    """

    def __init__(self, store: WorkflowDatabase | AgentDatabase):
        self.store = store
        self.oracle = SnapshotLog(retired_for_good=isinstance(store, AgentDatabase))
        self.checks = 0
        if isinstance(store, WorkflowDatabase):
            self._wrap("persist", self.oracle.persist)
            self._wrap("archive", lambda instance_id: self.oracle.retire([instance_id]))
        else:
            self._wrap("persist_fragment", self.oracle.persist)
            self._wrap("purge_instances", self.oracle.retire)
            self._wrap("set_summary", None)
            self._wrap("set_tracker", None)

    def _wrap(self, name: str, mirror) -> None:
        call = getattr(self.store, name)

        def wrapped(*args):
            result = call(*args)
            if mirror is not None:
                mirror(*args)
            self.check()
            return result

        setattr(self.store, name, wrapped)

    def recovered(self) -> WorkflowDatabase | AgentDatabase:
        """A fresh store of the live one's kind, recovered from a copy of
        its log as it stands."""
        if isinstance(self.store, WorkflowDatabase):
            fresh = WorkflowDatabase()
        else:
            fresh = AgentDatabase(self.store.agent_name)
        fresh.wal.load(self.store.wal)
        fresh.recover()
        return fresh

    def check(self) -> None:
        self.checks += 1
        self.store.wal.verify()
        fresh = self.recovered()
        tables, statuses = self.oracle.replay()
        if isinstance(fresh, WorkflowDatabase):
            restored = {s.instance_id: s.snapshot() for s in fresh.instances()}
            assert restored == tables
            assert {i: s.value for i, s in fresh._summary.items()} == statuses
        else:
            restored = {s.instance_id: s.snapshot() for s in fresh.fragments()}
            assert restored == tables
            # What is not a fragment is logged whole: recovery must agree
            # with the live store's own memory.
            assert fresh._summary == self.store._summary
            assert fresh._trackers == self.store._trackers
            assert fresh._purged == self.store._purged - self.store._purged_unlogged
        for instance_id, table in tables.items():
            for section in ("inputs", "data", "steps", "events_snapshot",
                            "known_invalidations"):
                assert list(restored[instance_id][section]) == list(table[section])
