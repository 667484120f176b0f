"""The agent database (AGDB) of distributed workflow control.

"Each agent has an agent database (AGDB) (on the same node) in which they
store all relevant persistent information such as the steps that it has
executed and the corresponding results and so forth.  This database also
has information about agents responsible for running the steps of the
various workflows."

The AGDB therefore holds:

* **instance fragments** — the agent's partial view of each workflow
  instance it participates in (assembled from workflow packets);
* the **agent directory** — ``(schema, step) -> eligible agents``, used to
  route packets, halt probes and compensation requests;
* the **coordination summary table** — for instances this agent
  *coordinates*: status rows serving front-end requests;
* **purge bookkeeping** — committed-instance ids broadcast periodically so
  agents "can purge their instance tables".

Everything is WAL-backed; a crashed agent replays the log in
``on_recover`` and resumes (volatile rule engines are rebuilt by the agent
node from the recovered fragments).  A fragment is logged as a chain — a
full snapshot, then what changed (:class:`~repro.storage.wal.
InstanceChains`) — and a purge takes the purged instances' chains and
tracker records out of the log; ``purge`` and ``summary`` rows stay.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.errors import StorageError
from repro.storage.tables import InstanceState, InstanceStatus
from repro.storage.wal import InstanceChains, WalRecord, WriteAheadLog

__all__ = ["AgentDatabase"]


class AgentDatabase:
    """Durable per-agent store for distributed workflow control."""

    def __init__(self, agent_name: str):
        self.agent_name = agent_name
        self.wal = WriteAheadLog()
        self._chains = InstanceChains(self.wal, "fragment_snapshot", "fragment_delta")
        self._fragments: dict[str, InstanceState] = {}
        self._directory: dict[tuple[str, str], tuple[str, ...]] = {}
        #: schema name -> :meth:`hosted_steps`, derived from the directory.
        self._hosted: dict[str, frozenset[str]] = {}
        self._summary: dict[str, InstanceStatus] = {}
        self._purged: set[str] = set()
        #: Purged ids no ``purge`` record names yet (a purge that dropped
        #: nothing is not logged); the next record carries them.
        self._purged_unlogged: set[str] = set()
        self._trackers: dict[str, Mapping[str, Any]] = {}
        #: instance id -> lsn of its latest ``tracker`` record (the only
        #: one recovery reads; an older one leaves the log when superseded).
        self._tracker_lsns: dict[str, int] = {}

    # -- instance fragments ------------------------------------------------------

    def fragment(self, instance_id: str) -> InstanceState:
        try:
            return self._fragments[instance_id]
        except KeyError:
            raise StorageError(
                f"agent {self.agent_name!r} has no state for instance {instance_id!r}"
            ) from None

    def has_fragment(self, instance_id: str) -> bool:
        return instance_id in self._fragments

    def ensure_fragment(
        self, schema_name: str, instance_id: str, inputs: Mapping[str, Any] | None = None
    ) -> InstanceState:
        state = self._fragments.get(instance_id)
        if state is None:
            if instance_id in self._purged:
                raise StorageError(
                    f"agent {self.agent_name!r}: instance {instance_id!r} was "
                    f"purged and stays purged"
                )
            state = InstanceState(
                schema_name=schema_name,
                instance_id=instance_id,
                inputs=dict(inputs or {}),
            )
            self._fragments[instance_id] = state
        return state

    def fragments(self) -> tuple[InstanceState, ...]:
        return tuple(self._fragments.values())

    def persist_fragment(self, state: InstanceState) -> None:
        self._chains.persist(state)

    def purge_instances(self, instance_ids: Iterable[str]) -> int:
        """Drop fragments of terminal instances (purge broadcast handler)."""
        purged = 0
        dropped = False
        for instance_id in instance_ids:
            if self._fragments.pop(instance_id, None) is not None:
                purged += 1
            if instance_id not in self._purged:
                self._purged.add(instance_id)
                self._purged_unlogged.add(instance_id)
            if self._trackers.pop(instance_id, None) is not None:
                dropped = True
            self._chains.retire(instance_id)
            self._retire_tracker_record(instance_id)
        if purged or dropped:
            # The purge must be durable whenever it dropped *any* state —
            # fragments or tracker snapshots — or recovery resurrects it.
            # Recovery unions the records, so each names only new ids.
            self.wal.append("purge", {"instance_ids": sorted(self._purged_unlogged)})
            self._purged_unlogged.clear()
        return purged

    def was_purged(self, instance_id: str) -> bool:
        return instance_id in self._purged

    # -- agent directory -----------------------------------------------------------

    def set_eligible_agents(
        self, schema_name: str, step: str, agents: Iterable[str]
    ) -> None:
        names = tuple(agents)
        if not names:
            raise StorageError(f"step {schema_name}.{step} needs at least one agent")
        self._directory[(schema_name, step)] = names
        self._hosted.pop(schema_name, None)

    def eligible_agents(self, schema_name: str, step: str) -> tuple[str, ...]:
        try:
            return self._directory[(schema_name, step)]
        except KeyError:
            raise StorageError(
                f"agent {self.agent_name!r}: no eligible agents recorded for "
                f"{schema_name}.{step}"
            ) from None

    def hosted_steps(self, schema_name: str, steps: Iterable[str]) -> frozenset[str]:
        """The ``steps`` of a schema this agent is eligible for; scanned
        once per schema until :meth:`set_eligible_agents` changes it."""
        hosted = self._hosted.get(schema_name)
        if hosted is None:
            hosted = self._hosted[schema_name] = frozenset(
                step for step in steps
                if self.agent_name in self.eligible_agents(schema_name, step)
            )
        return hosted

    # -- coordination instance summary table ---------------------------------------------

    def set_summary(self, instance_id: str, status: InstanceStatus) -> None:
        self._summary[instance_id] = status
        self.wal.append(
            "summary", {"instance_id": instance_id, "status": status.value}
        )

    def summary(self, instance_id: str) -> InstanceStatus:
        try:
            return self._summary[instance_id]
        except KeyError:
            raise StorageError(
                f"agent {self.agent_name!r} does not coordinate instance "
                f"{instance_id!r}"
            ) from None

    def has_summary(self, instance_id: str) -> bool:
        return instance_id in self._summary

    def coordinated_instances(self) -> tuple[str, ...]:
        return tuple(sorted(self._summary))

    # -- commit trackers ------------------------------------------------------------------

    def set_tracker(self, instance_id: str, snapshot: Mapping[str, Any]) -> None:
        """Persist a coordination-agent commit-tracker snapshot.

        Terminal reports consumed before a coordination-agent crash would
        otherwise be unrecoverable — the reporting agents never re-send —
        so the tracker is part of the "relevant persistent information"
        the AGDB stores.
        """
        self._trackers[instance_id] = snapshot
        self._retire_tracker_record(instance_id)
        self._tracker_lsns[instance_id] = self.wal.append(
            "tracker", {"instance_id": instance_id, "tracker": snapshot}
        )

    def _retire_tracker_record(self, instance_id: str) -> None:
        lsn = self._tracker_lsns.pop(instance_id, None)
        if lsn is not None:
            self.wal.retire((lsn,))

    def recovered_tracker(self, instance_id: str) -> Mapping[str, Any] | None:
        """Latest persisted tracker snapshot (None when never persisted)."""
        return self._trackers.get(instance_id)

    # -- crash recovery ---------------------------------------------------------------------

    def recover(self) -> int:
        """Rebuild fragments, summaries and trackers from the WAL; keeps the
        directory (static routing data installed at deployment time).
        Record checksums are verified — a corrupt log fails loudly."""
        self._fragments.clear()
        self._summary.clear()
        self._purged_unlogged.clear()
        self._trackers.clear()
        self._tracker_lsns.clear()
        trackers: dict[str, Mapping[str, Any]] = {}
        purged: set[str] = set()

        def on_summary(record: WalRecord) -> None:
            payload = record.payload
            self._summary[payload["instance_id"]] = InstanceStatus(payload["status"])

        def on_tracker(record: WalRecord) -> None:
            payload = record.payload
            trackers[payload["instance_id"]] = payload["tracker"]
            self._tracker_lsns[payload["instance_id"]] = record.lsn

        def on_purge(record: WalRecord) -> None:
            purged.update(record.payload["instance_ids"])

        self.wal.replay(
            {**self._chains.replay_handlers(), "summary": on_summary,
             "tracker": on_tracker, "purge": on_purge},
            verify=True, records=True,
        )
        for instance_id, snapshot in self._chains.snapshots():
            if instance_id not in purged:
                self._fragments[instance_id] = InstanceState.from_snapshot(snapshot)
        self._trackers = {
            iid: snap for iid, snap in trackers.items() if iid not in purged
        }
        self._purged = purged
        return len(self._fragments)

    def replay_clone(self) -> "AgentDatabase":
        """A fresh AGDB rebuilt purely from this database's WAL.

        Used by the chaos harness's WAL-convergence check: replaying the
        log into a clean database must reproduce the durable state.  The
        directory is copied (deployment-time static data, never logged).
        """
        clone = AgentDatabase(self.agent_name)
        clone._directory = dict(self._directory)
        clone.wal.load(self.wal)
        clone.recover()
        return clone
