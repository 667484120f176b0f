"""The workflow database (WFDB) used by central and parallel engines.

"The engine maintains information about the workflows and steps in various
tables in the WFDB for efficient access — workflow class table (for class
definitions), workflow instance table (for instance specific state
information) and step table (for step related information)."

The WFDB owns:

* the **class table**: registered compiled schemas;
* the **instance tables**: one :class:`~repro.storage.tables.InstanceState`
  per live instance, logged to the WAL on every transition — a full
  snapshot first, then what changed (:class:`~repro.storage.wal.
  InstanceChains`) — so a crashed engine recovers forward;
* the **instance summary**: id -> status, for WorkflowStatus queries and
  for rejecting aborts of committed workflows.  Archiving an instance
  retires its records from the log except the terminal one, which is the
  summary row a recovered engine reads the status back from.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.errors import StorageError
from repro.model.compiler import CompiledSchema
from repro.storage.tables import InstanceState, InstanceStatus
from repro.storage.wal import InstanceChains, WriteAheadLog

__all__ = ["WorkflowDatabase"]


class WorkflowDatabase:
    """Class + instance tables with WAL-backed durability."""

    def __init__(self) -> None:
        self.wal = WriteAheadLog()
        self._chains = InstanceChains(self.wal, "instance_snapshot", "instance_delta")
        self._classes: dict[str, CompiledSchema] = {}
        self._instances: dict[str, InstanceState] = {}
        self._summary: dict[str, InstanceStatus] = {}

    # -- class table ------------------------------------------------------------

    def register_class(self, compiled: CompiledSchema) -> None:
        if compiled.name in self._classes:
            raise StorageError(f"workflow class {compiled.name!r} already registered")
        self._classes[compiled.name] = compiled

    def workflow_class(self, name: str) -> CompiledSchema:
        try:
            return self._classes[name]
        except KeyError:
            raise StorageError(f"unknown workflow class {name!r}") from None

    def class_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._classes))

    # -- instance tables -----------------------------------------------------------

    def create_instance(
        self, schema_name: str, instance_id: str, inputs: Mapping[str, Any]
    ) -> InstanceState:
        if instance_id in self._instances:
            raise StorageError(f"duplicate instance id {instance_id!r}")
        self.workflow_class(schema_name)  # validates registration
        state = InstanceState(
            schema_name=schema_name, instance_id=instance_id, inputs=dict(inputs)
        )
        self._instances[instance_id] = state
        self._summary[instance_id] = InstanceStatus.RUNNING
        self.persist(state)
        return state

    def instance(self, instance_id: str) -> InstanceState:
        try:
            return self._instances[instance_id]
        except KeyError:
            raise StorageError(f"unknown instance {instance_id!r}") from None

    def has_instance(self, instance_id: str) -> bool:
        return instance_id in self._instances

    def instances(self) -> Iterator[InstanceState]:
        return iter(self._instances.values())

    def status(self, instance_id: str) -> InstanceStatus:
        try:
            return self._summary[instance_id]
        except KeyError:
            raise StorageError(f"unknown instance {instance_id!r}") from None

    def set_status(self, instance_id: str, status: InstanceStatus) -> None:
        state = self.instance(instance_id)
        state.status = status
        self._summary[instance_id] = status
        self.persist(state)

    def persist(self, state: InstanceState) -> None:
        """Log an instance's state to the WAL (the durability point)."""
        self._chains.persist(state)

    def archive(self, instance_id: str) -> None:
        """Drop a finished instance's table, keeping only the summary row.

        Mirrors the paper: "After a workflow is committed, the instance
        table information is archived".
        """
        status = self.status(instance_id)
        if status is InstanceStatus.RUNNING:
            raise StorageError(f"cannot archive running instance {instance_id!r}")
        self._instances.pop(instance_id, None)
        self._chains.retire(instance_id, keep_status_row=True)

    # -- crash recovery -------------------------------------------------------------

    def recover(self) -> int:
        """Rebuild instance tables from the WAL (forward recovery).

        Returns the number of live instances restored.  Class definitions
        are code, not data — the engine re-registers them on restart, so
        recovery only folds each instance's chain (snapshot, then deltas in
        lsn order); an archived instance comes back as its summary row.
        Record checksums are verified — a corrupt log fails loudly.
        """
        self._instances.clear()
        self._summary.clear()
        self.wal.replay(self._chains.replay_handlers(self._summary))
        for instance_id, snapshot in self._chains.snapshots():
            state = InstanceState.from_snapshot(snapshot)
            self._instances[instance_id] = state
            self._summary[instance_id] = state.status
        return len(self._instances)
