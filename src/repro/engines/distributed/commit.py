"""Terminal-profile commit protocol at the coordination agent.

Termination agents report their terminal completions (StepCompleted);
the coordination agent tracks which reports are still valid across
rollbacks (via the merged origin history) and commits the workflow once
the terminal profile is satisfiable, forwarding outputs to a waiting
parent workflow if the instance is nested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.interfaces import WI
from repro.engines.distributed.navigation import VERB_NESTED_DONE, elect_executor
from repro.engines.runtime import AgentRuntime
from repro.model.compiler import CompiledSchema
from repro.runtime.metrics import Mechanism
from repro.storage.tables import InstanceStatus, StepStatus

__all__ = ["AgentCommitMixin", "CommitTracker"]


@dataclass
class CommitTracker:
    """Coordination-agent record for one instance it coordinates."""

    reported: dict[str, int] = field(default_factory=dict)  # terminal -> epoch
    epoch: int = 0
    last_origin: str | None = None
    executors: dict[str, str] = field(default_factory=dict)
    done_times: dict[str, float] = field(default_factory=dict)
    data: dict[str, Any] = field(default_factory=dict)
    #: recovery epoch -> rollback origin, merged from terminal reports; used
    #: to decide which older reports a rollback invalidated.
    origin_history: dict[int, str] = field(default_factory=dict)
    parent_link: tuple[str, str] | None = None
    finished: bool = False

    def snapshot(self) -> dict[str, Any]:
        """JSON-plain snapshot for AGDB persistence.

        Terminal reports are consumed on receipt and never re-sent, so a
        coordination agent that crashes must recover them from its WAL or
        the instance can never commit.
        """
        return {
            "reported": dict(self.reported),
            "epoch": self.epoch,
            "last_origin": self.last_origin,
            "executors": dict(self.executors),
            "done_times": dict(self.done_times),
            "data": dict(self.data),
            "origin_history": {str(e): o for e, o in self.origin_history.items()},
            "parent_link": list(self.parent_link) if self.parent_link else None,
            "finished": self.finished,
        }

    @classmethod
    def from_snapshot(cls, payload: Mapping[str, Any]) -> "CommitTracker":
        parent_link = payload.get("parent_link")
        return cls(
            reported=dict(payload["reported"]),
            epoch=payload["epoch"],
            last_origin=payload.get("last_origin"),
            executors=dict(payload["executors"]),
            done_times=dict(payload["done_times"]),
            data=dict(payload["data"]),
            origin_history={int(e): o for e, o in payload["origin_history"].items()},
            parent_link=(parent_link[0], parent_link[1]) if parent_link else None,
            finished=payload["finished"],
        )


class AgentCommitMixin:
    """Commit-protocol behavior of :class:`~repro.engines.distributed.WorkflowAgentNode`."""

    def _report_completion(
        self,
        runtime: AgentRuntime,
        instance_id: str,
        terminal: str,
        mechanism: Mechanism,
    ) -> None:
        compiled = runtime.compiled
        coordination_agent = self._coordination_agent_of(compiled)
        done_times = {
            s: r.done_at or 0.0
            for s, r in runtime.fragment.steps.items()
            if r.status is StepStatus.DONE
        }
        for token, time in runtime.engine.events.export().items():
            if token.endswith(".D") and not token.startswith(("WF.", "EXT.")):
                done_times.setdefault(token[:-2], time)
        payload = {
            "schema_name": compiled.name,
            "instance_id": instance_id,
            "terminal": terminal,
            "epoch": runtime.fragment.recovery_epoch,
            "origin_history": dict(runtime.origin_history),
            "executors": dict(runtime.executors),
            "done_times": done_times,
            "data": dict(runtime.fragment.data),
        }
        self._invoke(coordination_agent, WI.STEP_COMPLETED.value, payload,
                     Mechanism.NORMAL)

    def _apply_step_completed(self, payload: Mapping[str, Any]) -> None:
        instance_id = payload["instance_id"]
        tracker = self.trackers.get(instance_id)
        if tracker is None or tracker.finished:
            return
        compiled = self.system.compiled(payload["schema_name"])
        epoch = payload["epoch"]
        terminal = payload["terminal"]
        tracker.origin_history.update(
            {int(e): o for e, o in payload.get("origin_history", {}).items()}
        )
        tracker.epoch = max(tracker.epoch, epoch)

        def invalidated(t: str, report_epoch: int) -> bool:
            """Was a report at ``report_epoch`` undone by a later rollback?"""
            return any(
                e > report_epoch and t in compiled.affected_terminals(o)
                for e, o in tracker.origin_history.items()
            )

        if not invalidated(terminal, epoch):
            tracker.reported[terminal] = max(epoch, tracker.reported.get(terminal, 0))
        tracker.reported = {
            t: e for t, e in tracker.reported.items() if not invalidated(t, e)
        }
        tracker.executors.update(payload["executors"])
        tracker.done_times.update(payload["done_times"])
        tracker.data.update(payload["data"])
        self.emit("terminal.reported", instance=instance_id, terminal=terminal,
                  epoch=epoch)
        if compiled.commit_ready(set(tracker.reported)):
            self._commit(instance_id, compiled, tracker)
        else:
            self.agdb.set_tracker(instance_id, tracker.snapshot())

    def _commit(
        self, instance_id: str, compiled: CompiledSchema, tracker: CommitTracker
    ) -> None:
        tracker.finished = True
        self.agdb.set_tracker(instance_id, tracker.snapshot())
        self.agdb.set_summary(instance_id, InstanceStatus.COMMITTED)
        runtime = self.runtimes.get(instance_id)
        if runtime is not None:
            runtime.fragment.status = InstanceStatus.COMMITTED
            self._persist(runtime)
        outputs: dict[str, Any] = {}
        for name, ref in compiled.schema.outputs.items():
            if ref in tracker.data:
                outputs[name] = tracker.data[ref]
        self.emit("workflow.commit", instance=instance_id, schema=compiled.name,
                  outputs=outputs)
        self._withdraw_coordination(instance_id, runtime, aborted=False)
        if tracker.parent_link is not None:
            parent_id, parent_step = tracker.parent_link
            parent_compiled = None
            for schema in self.system.schemas.values():
                if parent_step in schema.schema.steps and schema.schema.steps[
                    parent_step
                ].subworkflow == compiled.name:
                    parent_compiled = schema
                    break
            target = self.name
            if parent_compiled is not None:
                target = elect_executor(
                    self.agdb.eligible_agents(parent_compiled.name, parent_step),
                    parent_compiled.name, parent_id, parent_step,
                    is_up=self.network.is_up,
                )
            payload = {
                "parent_id": parent_id,
                "parent_step": parent_step,
                "outputs": outputs,
            }
            self._invoke(target, VERB_NESTED_DONE, payload, Mechanism.NORMAL)
        self._queue_purge(instance_id)
