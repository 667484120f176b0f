"""Shared runtime state tables.

The paper's engines and agents keep workflow state in tables: "workflow
class table (for class definitions), workflow instance table (for instance
specific state information) and step table (for step related information)".
This module defines the instance-level state shared by every control
architecture:

* :class:`StepRecord` — the step status table row, including the *previous
  execution* data (inputs/outputs) the OCR scheme needs ("maintaining
  additional data that correspond to the previous execution of the steps");
* :class:`InstanceState` — the workflow instance table row: data table,
  step status table and recovery bookkeeping.

Event tables live in :mod:`repro.rules.events`; a node pairs an
:class:`InstanceState` with a rule engine to enact the instance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import eq
from typing import Any, Iterable, Mapping

from repro.errors import StorageError
from repro.model.schema import workflow_input_ref

__all__ = [
    "InstanceStatus",
    "InstanceState",
    "StepRecord",
    "StepStatus",
    "apply_delta",
    "copy_snapshot",
    "snapshot_delta",
]


class StepStatus(enum.Enum):
    NOT_STARTED = "not_started"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    COMPENSATED = "compensated"


class InstanceStatus(enum.Enum):
    RUNNING = "running"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class StepRecord:
    """Step status table row for one step of one instance."""

    step: str
    status: StepStatus = StepStatus.NOT_STARTED
    executions: int = 0
    compensations: int = 0
    reuses: int = 0
    last_inputs: dict[str, Any] = field(default_factory=dict)
    last_outputs: dict[str, Any] = field(default_factory=dict)
    done_at: float | None = None
    #: Monotone stamp of the most recent execution; compensation dependent
    #: sets compensate in decreasing exec_seq order (reverse execution order).
    exec_seq: int | None = None
    agent: str | None = None

    def copy(self) -> "StepRecord":
        return StepRecord(
            step=self.step,
            status=self.status,
            executions=self.executions,
            compensations=self.compensations,
            reuses=self.reuses,
            last_inputs=dict(self.last_inputs),
            last_outputs=dict(self.last_outputs),
            done_at=self.done_at,
            exec_seq=self.exec_seq,
            agent=self.agent,
        )


@dataclass
class InstanceState:
    """Workflow instance table row: data + step status + recovery epoch.

    In centralized control the engine holds the single authoritative copy;
    in distributed control each agent holds a *fragment* assembled from the
    workflow packets it has seen — "the state information of a single
    workflow is distributed across agents".
    """

    schema_name: str
    instance_id: str
    inputs: dict[str, Any] = field(default_factory=dict)
    data: dict[str, Any] = field(default_factory=dict)
    steps: dict[str, StepRecord] = field(default_factory=dict)
    status: InstanceStatus = InstanceStatus.RUNNING
    #: Bumped on every WorkflowRollback; lets late messages from an older
    #: recovery round be recognized and discarded.
    recovery_epoch: int = 0
    #: Monotone per-instance counter bumped by every rollback and loop
    #: re-entry; event occurrences are stamped with it and invalidations
    #: only kill occurrences from earlier rounds.
    invalidation_round: int = 0
    #: Durable copy of the valid event tokens (distributed agents persist
    #: it so a crashed agent can rebuild its volatile rule engine).
    events_snapshot: dict = field(default_factory=dict)
    #: token -> invalidation-round high-water marks this node has learned.
    #: Persisted with the fragment so a recovering agent re-applies the
    #: cutoffs instead of transiently reviving invalidated events from a
    #: stale packet or its own events snapshot.
    known_invalidations: dict[str, int] = field(default_factory=dict)
    _exec_counter: int = 0

    def __post_init__(self) -> None:
        for name, value in self.inputs.items():
            self.data.setdefault(workflow_input_ref(name), value)

    # -- step records ----------------------------------------------------------

    def record(self, step: str) -> StepRecord:
        existing = self.steps.get(step)
        if existing is None:
            existing = StepRecord(step=step)
            self.steps[step] = existing
        return existing

    def next_exec_seq(self) -> int:
        self._exec_counter += 1
        return self._exec_counter

    def note_exec_seq(self, seq: int) -> None:
        """Advance the local counter past a remotely-assigned sequence."""
        self._exec_counter = max(self._exec_counter, seq)

    def executed_steps_in_order(self) -> list[str]:
        """Steps currently DONE, in execution (exec_seq) order."""
        done = [
            r for r in self.steps.values() if r.status is StepStatus.DONE and r.exec_seq
        ]
        return [r.step for r in sorted(done, key=lambda r: r.exec_seq or 0)]

    def step_status(self, step: str) -> StepStatus:
        record = self.steps.get(step)
        return record.status if record is not None else StepStatus.NOT_STARTED

    # -- data table ---------------------------------------------------------------

    def bind(self, ref: str, value: Any) -> None:
        self.data[ref] = value

    def bind_outputs(self, step: str, outputs: Mapping[str, Any]) -> None:
        for name, value in outputs.items():
            self.data[f"{step}.{name}"] = value

    def unbind_outputs(self, step: str, output_names: Iterable[str]) -> None:
        for name in output_names:
            self.data.pop(f"{step}.{name}", None)

    def gather_inputs(self, refs: Iterable[str]) -> dict[str, Any]:
        """Resolve a step's declared input references from the data table."""
        values: dict[str, Any] = {}
        for ref in refs:
            if ref not in self.data:
                raise StorageError(
                    f"instance {self.instance_id}: input {ref!r} is unbound"
                )
            values[ref] = self.data[ref]
        return values

    def env(self) -> dict[str, Any]:
        """Condition-evaluation environment (the data table itself)."""
        return self.data

    # -- change-inputs support -------------------------------------------------------

    def apply_input_changes(self, changes: Mapping[str, Any]) -> None:
        for name, value in changes.items():
            if name not in self.inputs:
                raise StorageError(
                    f"instance {self.instance_id}: no workflow input {name!r}"
                )
            self.inputs[name] = value
            self.data[workflow_input_ref(name)] = value

    # -- fragments (distributed control) -------------------------------------------------

    def merge_data(self, data: Mapping[str, Any]) -> None:
        """Fold packet-carried data items into the local fragment."""
        self.data.update(data)

    def snapshot(self) -> dict[str, Any]:
        """A deep-enough copy for WAL persistence and packet payloads.

        ``_value_`` is the member's plain attribute behind the ``.value``
        descriptor: one call saved per step per persist.
        """
        return {
            "schema_name": self.schema_name,
            "instance_id": self.instance_id,
            "inputs": dict(self.inputs),
            "data": dict(self.data),
            "status": self.status._value_,
            "recovery_epoch": self.recovery_epoch,
            "invalidation_round": self.invalidation_round,
            "events_snapshot": dict(self.events_snapshot),
            "known_invalidations": dict(self.known_invalidations),
            "exec_counter": self._exec_counter,
            "steps": {
                name: {
                    "status": rec.status._value_,
                    "executions": rec.executions,
                    "compensations": rec.compensations,
                    "reuses": rec.reuses,
                    "last_inputs": dict(rec.last_inputs),
                    "last_outputs": dict(rec.last_outputs),
                    "done_at": rec.done_at,
                    "exec_seq": rec.exec_seq,
                    "agent": rec.agent,
                }
                for name, rec in self.steps.items()
            },
        }

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, Any]) -> "InstanceState":
        state = cls(
            schema_name=snapshot["schema_name"],
            instance_id=snapshot["instance_id"],
            inputs=dict(snapshot["inputs"]),
            data=dict(snapshot["data"]),
            status=InstanceStatus(snapshot["status"]),
            recovery_epoch=snapshot["recovery_epoch"],
        )
        state.invalidation_round = snapshot.get("invalidation_round", 0)
        state.events_snapshot = dict(snapshot.get("events_snapshot", {}))
        state.known_invalidations = {
            token: int(round)
            for token, round in snapshot.get("known_invalidations", {}).items()
        }
        state._exec_counter = snapshot["exec_counter"]
        for name, rec in snapshot["steps"].items():
            state.steps[name] = StepRecord(
                step=name,
                status=StepStatus(rec["status"]),
                executions=rec["executions"],
                compensations=rec["compensations"],
                reuses=rec["reuses"],
                last_inputs=dict(rec["last_inputs"]),
                last_outputs=dict(rec["last_outputs"]),
                done_at=rec["done_at"],
                exec_seq=rec["exec_seq"],
                agent=rec["agent"],
            )
        return state


# -- snapshot deltas (the engine log's record grammar) ---------------------------

#: The keyed tables of a snapshot, diffed entry by entry (a step row is
#: one entry: it is logged whole when any of its fields changed).
_SECTIONS = ("inputs", "data", "steps", "events_snapshot", "known_invalidations")
_SCALARS = ("status", "recovery_epoch", "invalidation_round", "exec_counter")


def snapshot_delta(base: Mapping[str, Any], snap: Mapping[str, Any]) -> dict[str, Any]:
    """What :func:`apply_delta` needs to turn ``base`` into ``snap``.

    Both are :meth:`InstanceState.snapshot` dicts of one instance.  The
    result holds the scalars that differ and, for each table that differs,
    ``{"put": added or changed entries, "del": removed keys}`` (either
    omitted when empty) plus ``"order"`` — the table's full key list —
    when ``put``/``del`` alone would leave the keys in another order than
    the live table's (a key removed and re-added between two persists).
    Values are compared with ``==``, so the diff cannot miss a mutation
    whoever made it; the unchanged case is one C-level dict comparison.
    """
    delta: dict[str, Any] = {}
    for name in _SCALARS:
        if base[name] != snap[name]:
            delta[name] = snap[name]
    for name in _SECTIONS:
        old, new = base[name], snap[name]
        if old == new:
            if not all(map(eq, old, new)):  # same entries, keys re-inserted
                delta[name] = {"order": list(new)}
            continue
        section: dict[str, Any] = {}
        put = {k: v for k, v in new.items() if k not in old or old[k] != v}
        if put:
            section["put"] = put
        removed = [k for k in old if k not in new]
        if removed:
            section["del"] = removed
        # Folding leaves the surviving keys in their old order and appends
        # the new ones; anything else the live table did needs spelling out.
        if removed or not all(map(eq, old, new)):
            keys = list(new)
            folded = [k for k in old if k in new]
            folded += [k for k in put if k not in old]
            if folded != keys:
                section["order"] = keys
        delta[name] = section
    return delta


def copy_snapshot(snap: Mapping[str, Any]) -> dict[str, Any]:
    """A snapshot whose tables :func:`apply_delta` may write to (a logged
    payload never is)."""
    copy = dict(snap)
    for name in _SECTIONS:
        copy[name] = dict(snap[name])
    return copy


def apply_delta(snap: dict[str, Any], delta: Mapping[str, Any]) -> None:
    """Fold one :func:`snapshot_delta` into ``snap`` (a
    :func:`copy_snapshot`) in place."""
    for name in _SCALARS:
        if name in delta:
            snap[name] = delta[name]
    for name in _SECTIONS:
        section = delta.get(name)
        if section is None:
            continue
        table = snap[name]
        for key in section.get("del", ()):
            del table[key]
        table.update(section.get("put", ()))
        if "order" in section:
            snap[name] = {key: table[key] for key in section["order"]}

