"""Workflow packets — the state carrier of distributed control.

"After the execution of a step, an agent has to communicate the entire
state information of the workflow that it is aware of to the agent
responsible for executing the next step.  This information is communicated
via a workflow packet. ... the contents of a workflow packet includes the
contents of the workflow packet received by the agent (request for
performing that step) and the output produced by the execution of the step
at the agent."  (paper, Section 4.1; sample packet in Figure 7)

A packet carries:

* identity: schema name, instance id, the action/target step;
* the **data items** the sender knows (accumulated data table);
* the **events** the sender knows (accumulated valid event tokens with
  occurrence times) — "the workflow packet thus also contains event
  information required for the rule based navigation";
* **invalidations** — tokens invalidated by a rollback or loop re-entry,
  with cutoff times so a receiver never invalidates a *newer* re-execution
  of the same event (race-condition avoidance);
* recovery bookkeeping (epoch + last rollback origin) so stale messages
  from an older recovery round are recognizable;
* relative-ordering piggyback info ("R.O. Leading / R.O. Lagging" in
  Figure 7);
* the assigned executor, chosen by the sender among eligible agents.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.runtime.metrics import Mechanism

__all__ = ["WorkflowPacket"]


@dataclass(frozen=True)
class WorkflowPacket:
    """One workflow packet (immutable; derive successors via ``evolve``)."""

    schema_name: str
    instance_id: str
    action: str  # "execute"
    target_step: str
    data: Mapping[str, Any] = field(default_factory=dict)
    events: Mapping[str, float] = field(default_factory=dict)
    invalidations: Mapping[str, float] = field(default_factory=dict)
    recovery_epoch: int = 0
    recovery_origin: str | None = None
    #: Mechanism the enclosing message is attributed to (a re-execution
    #: packet after a rollback counts under FAILURE, etc.).
    mechanism: Mechanism = Mechanism.NORMAL
    #: (spec name, leading instance id, lagging instance id) triples the
    #: sender knows about — the Figure 7 "R.O." lines.
    ro_info: tuple[tuple[str, str, str], ...] = ()
    #: step -> agent that executed it, accumulated as the packet travels;
    #: backs the AGDB's "information about agents responsible for running
    #: the steps" used by CompensateSet chains and StepStatus polling.
    executors: Mapping[str, str] = field(default_factory=dict)
    assigned_agent: str | None = None
    #: For nested workflows: (parent instance id, parent step) so the child
    #: coordination agent can report back on commit.
    parent_link: tuple[str, str] | None = None

    def evolve(self, **changes: Any) -> "WorkflowPacket":
        return replace(self, **changes)

    def to_payload(self) -> dict[str, Any]:
        """Serialize for a network message payload."""
        return {
            "schema_name": self.schema_name,
            "instance_id": self.instance_id,
            "action": self.action,
            "target_step": self.target_step,
            "data": dict(self.data),
            "events": dict(self.events),
            "invalidations": dict(self.invalidations),
            "recovery_epoch": self.recovery_epoch,
            "recovery_origin": self.recovery_origin,
            "mechanism": self.mechanism.value,
            "ro_info": list(self.ro_info),
            "executors": dict(self.executors),
            "assigned_agent": self.assigned_agent,
            "parent_link": list(self.parent_link) if self.parent_link else None,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "WorkflowPacket":
        parent_link = payload.get("parent_link")
        return cls(
            schema_name=payload["schema_name"],
            instance_id=payload["instance_id"],
            action=payload["action"],
            target_step=payload["target_step"],
            data=dict(payload["data"]),
            events=dict(payload["events"]),
            invalidations=dict(payload.get("invalidations", {})),
            recovery_epoch=payload.get("recovery_epoch", 0),
            recovery_origin=payload.get("recovery_origin"),
            mechanism=Mechanism(payload.get("mechanism", Mechanism.NORMAL.value)),
            ro_info=tuple(tuple(item) for item in payload.get("ro_info", ())),
            executors=dict(payload.get("executors", {})),
            assigned_agent=payload.get("assigned_agent"),
            parent_link=tuple(parent_link) if parent_link else None,
        )
