"""The distributed workflow agent: role composition and front-end WIs.

:class:`WorkflowAgentNode` assembles the protocol mixins — navigation,
commit, halting, failure handling, coordination — over the shared node
machinery.  This module owns the agent's durable/volatile state (AGDB,
runtimes, commit trackers), the front-end workflow interfaces
(WorkflowStart/Abort/Status/ChangeInputs), crash/recovery, and the one
way a WI is addressed: a payload handler per verb, reached by a message
through :meth:`WorkflowAgentNode._receive` and by the agent itself
through :meth:`WorkflowAgentNode._invoke`.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Any, Callable, Mapping

from repro.core.coordination import mx_clearance_token, ro_clearance_token
from repro.core.interfaces import WI
from repro.engines.coord import AuthorityBundle
from repro.engines.distributed.commit import AgentCommitMixin, CommitTracker
from repro.engines.distributed.coordination import AgentCoordinationMixin
from repro.engines.distributed.failure import (
    VERB_PURGE,
    VERB_STATUS_PROBE,
    VERB_STATUS_PROBE_REPORT,
    VERB_STEP_STATUS_REPLY,
    VERB_UNHANDLED_FAILURE,
    AgentFailureMixin,
)
from repro.engines.distributed.halting import AgentHaltingMixin
from repro.engines.distributed.navigation import (
    VERB_NESTED_DONE,
    AgentNavigationMixin,
    elect_executor,
)
from repro.engines.runtime import AgentRuntime, LoadProbe
from repro.errors import FrontEndError
from repro.model.compiler import CompiledSchema
from repro.rules.engine import RuleEngine
from repro.rules.events import WF_START
from repro.runtime.metrics import Mechanism
from repro.runtime.messages import Message
from repro.runtime.eventqueue import EventHandle
from repro.runtime.node import Node
from repro.storage.agdb import AgentDatabase
from repro.storage.tables import InstanceStatus, StepStatus

__all__ = ["WorkflowAgentNode"]


class WorkflowAgentNode(
    AgentNavigationMixin,
    AgentCommitMixin,
    AgentHaltingMixin,
    AgentFailureMixin,
    AgentCoordinationMixin,
    Node,
):
    """A distributed workflow agent (execution/coordination/termination roles)."""

    def __init__(self, name: str, system: "DistributedControlSystem"):
        super().__init__(name, system.simulator, system.network)
        self.system = system
        self.config = system.config
        self.agdb = AgentDatabase(name)
        self.spec_index = system.spec_index
        self.authorities = AuthorityBundle()
        self.runtimes: dict[str, AgentRuntime] = {}
        self.trackers: dict[str, CommitTracker] = {}
        #: Terminal instances this (coordination) agent has yet to name
        #: in a purge broadcast (id -> schema name, in the order they
        #: ended), and the timer that will flush them.
        self._purge_pending: dict[str, str] = {}
        self._purge_timer: EventHandle | None = None
        self._load_probes: dict[int, LoadProbe] = {}
        self._probe_ids = itertools.count(1)
        #: instance id -> ids of the status probes already seen for it.
        self._seen_status_probes: dict[str, set[int]] = {}
        self._probe_reports: dict[str, list[dict]] = {}
        #: verb -> payload handler: what a WI means at this agent, whether
        #: a message or the agent itself (:meth:`_invoke`) addressed it.
        self._wi: dict[str, Callable[[dict[str, Any]], None]] = {
            WI.WORKFLOW_START.value: self._apply_workflow_start,
            WI.STEP_EXECUTE.value: self._apply_step_execute,
            WI.STEP_COMPLETED.value: self._apply_step_completed,
            WI.WORKFLOW_ROLLBACK.value: self._apply_workflow_rollback,
            WI.HALT_THREAD.value: self._apply_halt_thread,
            WI.COMPENSATE_SET.value: partial(self._walk_compensation,
                                             WI.COMPENSATE_SET.value),
            WI.COMPENSATE_THREAD.value: partial(self._walk_compensation,
                                                WI.COMPENSATE_THREAD.value),
            WI.STEP_COMPENSATE.value: self._apply_step_compensate,
            WI.INPUTS_CHANGED.value: self._apply_inputs_changed,
            WI.ADD_RULE.value: self._apply_add_rule,
            WI.ADD_EVENT.value: self._apply_add_event,
            VERB_STEP_STATUS_REPLY: self._apply_step_status_reply,
            VERB_STATUS_PROBE: self._apply_status_probe,
            VERB_STATUS_PROBE_REPORT: self._apply_status_probe_report,
            VERB_PURGE: self._apply_purge,
            VERB_UNHANDLED_FAILURE: self._apply_unhandled_failure,
            VERB_NESTED_DONE: self._apply_nested_done,
        }
        self.handlers.update(dict.fromkeys(self._wi, self._receive))
        # These answer their sender, so they read the message itself.
        self.handlers.update({
            WI.STEP_STATUS.value: self._on_step_status,
            WI.STATE_INFORMATION.value: self._on_state_information,
            "StateInformationReply": self._on_state_information_reply,
        })

    # ------------------------------------------------------------------ wiring

    def hosted_steps(self, compiled: CompiledSchema) -> frozenset[str]:
        return self.agdb.hosted_steps(compiled.name, compiled.schema.steps)

    def _coordination_agent_of(self, compiled: CompiledSchema) -> str:
        return self.agdb.eligible_agents(compiled.name, compiled.start_step)[0]

    def _elect(self, compiled: CompiledSchema, instance_id: str, step: str) -> str:
        eligible = self.agdb.eligible_agents(compiled.name, step)
        if step == compiled.start_step:
            # Convention: the coordination agent executes the start step
            # ("typically the agent responsible for executing the first
            # step of the workflow").
            return eligible[0]
        return elect_executor(
            eligible, compiled.name, instance_id, step, is_up=self.network.is_up
        )

    # ------------------------------------------------------------------ runtimes

    def _runtime(
        self,
        schema_name: str,
        instance_id: str,
        inputs: Mapping[str, Any] | None = None,
        parent_link: tuple[str, str] | None = None,
    ) -> AgentRuntime:
        runtime = self.runtimes.get(instance_id)
        if runtime is not None:
            return runtime
        compiled = self.system.compiled(schema_name)
        fragment = self.agdb.ensure_fragment(schema_name, instance_id, inputs)
        runtime = self._build_runtime(compiled, fragment, parent_link)
        self.runtimes[instance_id] = runtime
        self._install_preconditions(runtime, instance_id)
        return runtime

    def _build_runtime(
        self, compiled: CompiledSchema, fragment,
        parent_link: tuple[str, str] | None = None,
    ) -> AgentRuntime:
        """Rule engine and runtime record over ``fragment``.  What the agent
        hosts and how many steps are governed depend on the schema alone."""
        instance_id = fragment.instance_id
        hosted = self.hosted_steps(compiled)
        engine = RuleEngine(
            compiled,
            action=lambda rule: self._on_rule(instance_id, rule),
            env_provider=fragment.env,
            steps=hosted,
            fire_hook=self.system.rule_fire_hook(self.name, instance_id),
        )
        return AgentRuntime(
            state=fragment,
            compiled=compiled,
            engine=engine,
            hosted=hosted,
            parent_link=parent_link,
            governed=self.system.governed_steps(compiled),
        )

    def _install_preconditions(self, runtime: AgentRuntime, instance_id: str) -> None:
        schema_name = runtime.fragment.schema_name
        for spec, pair_index, step in self.spec_index.ro_governed_pairs(schema_name):
            if pair_index >= 1 and step in runtime.hosted:
                runtime.engine.add_step_precondition(
                    step, ro_clearance_token(spec.name, pair_index, instance_id)
                )
        for spec in self.spec_index.mx_specs(schema_name):
            first, __ = spec.region_of(schema_name)
            if first in runtime.hosted:
                runtime.engine.add_step_precondition(
                    first, mx_clearance_token(spec.name, instance_id)
                )

    def _persist(self, runtime: AgentRuntime) -> None:
        runtime.fragment.events_snapshot = runtime.engine.events.export_versioned()
        self.agdb.persist_fragment(runtime.fragment)

    # ------------------------------------------------------------------ front-end WIs

    def workflow_start(
        self,
        schema_name: str,
        instance_id: str,
        inputs: Mapping[str, Any],
        parent_link: tuple[str, str] | None = None,
    ) -> None:
        """WorkflowStart WI (front-end database calls the coordination agent)."""
        compiled = self.system.compiled(schema_name)
        if self._coordination_agent_of(compiled) != self.name:
            raise FrontEndError(
                f"{self.name} is not the coordination agent for {schema_name!r}"
            )
        if self._purged_late(instance_id, WI.WORKFLOW_START.value):
            return  # a nested child re-launched under the id of an aborted one
        self.agdb.set_summary(instance_id, InstanceStatus.RUNNING)
        tracker = CommitTracker(parent_link=parent_link)
        self.trackers[instance_id] = tracker
        self.agdb.set_tracker(instance_id, tracker.snapshot())
        runtime = self._runtime(schema_name, instance_id, inputs, parent_link)
        self.system._note_owner(instance_id, self.name)
        self.emit("workflow.start", instance=instance_id, schema=schema_name,
                  parent=parent_link[0] if parent_link else None)
        self.charge(1.0, Mechanism.NORMAL)
        # A mutual-exclusion region opening at the start step is acquired now.
        for spec in self.spec_index.mx_region_first(schema_name, compiled.start_step):
            self._mx_request(runtime, instance_id, spec)
        runtime.assigned[compiled.start_step] = self.name
        runtime.engine.post_event(WF_START, self.simulator.now,
                                  runtime.fragment.invalidation_round)

    def _apply_workflow_start(self, payload: Mapping[str, Any]) -> None:
        parent_link = payload.get("parent_link")
        self.workflow_start(
            payload["schema_name"],
            payload["instance_id"],
            payload["inputs"],
            parent_link=tuple(parent_link) if parent_link else None,
        )

    def workflow_status(self, instance_id: str) -> InstanceStatus:
        """WorkflowStatus WI, answered from the coordination summary table."""
        return self.agdb.summary(instance_id)

    def workflow_abort(self, instance_id: str) -> None:
        """WorkflowAbort WI at the coordination agent."""
        status = self.agdb.summary(instance_id)
        if status is InstanceStatus.COMMITTED:
            # "any request for aborting the workflow ... after a workflow
            # commit will be rejected."
            self.emit("abort.rejected", instance=instance_id, reason="committed")
            return
        if status is InstanceStatus.ABORTED:
            return
        tracker = self.trackers.get(instance_id)
        runtime = self.runtimes.get(instance_id)
        if runtime is None or tracker is None:
            raise FrontEndError(f"unknown instance {instance_id!r}")
        compiled = runtime.compiled
        schema = compiled.schema
        self.emit("workflow.abort.request", instance=instance_id)
        self.charge(1.0, Mechanism.ABORT)
        # Compensate the abort-compensation steps: the coordination agent
        # "may have to send messages to all eligible agents" since it does
        # not know which eligible agent executed each step.
        for step in schema.abort_compensation_steps:
            for agent in self.agdb.eligible_agents(schema.name, step):
                payload = {
                    "schema_name": schema.name,
                    "instance_id": instance_id,
                    "step": step,
                    "kind": "complete",
                    "reason": "abort",
                }
                self._invoke(agent, WI.STEP_COMPENSATE.value, payload, Mechanism.ABORT)
        # Halt every thread starting from the first step.
        epoch = runtime.fragment.recovery_epoch + 1
        self.emit("abort.halt", instance=instance_id, epoch=epoch)
        self._halt_from(runtime, instance_id, compiled.start_step, epoch,
                        Mechanism.ABORT, include_origin_agent=True)
        tracker.finished = True
        self.agdb.set_tracker(instance_id, tracker.snapshot())
        self.agdb.set_summary(instance_id, InstanceStatus.ABORTED)
        runtime.fragment.status = InstanceStatus.ABORTED
        self._persist(runtime)
        self._withdraw_coordination(instance_id, runtime, aborted=True)
        self.emit("workflow.aborted", instance=instance_id, schema=schema.name,
                  outputs={})
        self._queue_purge(instance_id, schema.name, aborted=True)

    def workflow_change_inputs(
        self, instance_id: str, changes: Mapping[str, Any]
    ) -> None:
        """WorkflowChangeInputs WI at the coordination agent."""
        status = self.agdb.summary(instance_id)
        if status is not InstanceStatus.RUNNING:
            self.emit("change_inputs.rejected", instance=instance_id,
                      reason=status.value)
            return
        runtime = self.runtimes.get(instance_id)
        if runtime is None:
            raise FrontEndError(f"unknown instance {instance_id!r}")
        compiled = runtime.compiled
        self.charge(1.0, Mechanism.INPUT_CHANGE)
        changed_refs = {f"WF.{name}" for name in changes}
        origin = None
        for step in compiled.graph.topo_order:
            if changed_refs.intersection(compiled.schema.steps[step].inputs):
                origin = step
                break
        self.emit("workflow.change_inputs", instance=instance_id,
                  origin=origin or "-")
        runtime.fragment.apply_input_changes(changes)
        runtime.table("input_overrides").update(
            {f"WF.{name}": value for name, value in changes.items()}
        )
        self._persist(runtime)
        if origin is None:
            return
        target = runtime.executors.get(origin) or self._elect(
            compiled, instance_id, origin
        )
        payload = {
            "schema_name": compiled.name,
            "instance_id": instance_id,
            "origin": origin,
            "epoch": runtime.fragment.recovery_epoch + 1,
            "changes": dict(changes),
        }
        self._invoke(target, WI.INPUTS_CHANGED.value, payload, Mechanism.INPUT_CHANGE)

    # ------------------------------------------------------------------ messaging

    def _invoke(
        self, dst: str, verb: str, payload: dict[str, Any], mechanism: Mechanism
    ) -> None:
        """Address WI ``verb`` to agent ``dst``.  Another agent gets a
        physical message; this agent calls its handler directly — a local
        call, so no message is counted, no load charged, no Lamport tick
        taken and no purge check made (those belong to a message's entry,
        :meth:`handle_message`)."""
        if dst == self.name:
            self._wi[verb](payload)
        else:
            self.send(dst, verb, payload, mechanism)

    def _receive(self, message: Message) -> None:
        """The message handler of every verb in :attr:`_wi`.  The handler
        gets its own copy of the payload, which it may keep (a status-probe
        report is stored as it arrived)."""
        self._wi[message.interface](dict(message.payload))

    def handle_message(self, message: Message) -> None:
        self.charge(1.0, message.mechanism)
        payload = message.payload
        instance_id = payload.get("instance_id") or payload.get("parent_id")
        if instance_id is not None and self._purged_late(instance_id, message.interface):
            return
        super().handle_message(message)

    def _purged_late(self, instance_id: str, verb: str) -> bool:
        """A purged instance stays purged: whatever still arrives for it —
        a message the broadcast overtook, a front-end call — is traced and
        dropped before it can build a runtime or append to the log."""
        if not self.agdb.was_purged(instance_id):
            return False
        self.emit("purge.late", instance=instance_id, verb=verb)
        return True

    # ------------------------------------------------------------------ crash/recovery

    def on_crash(self) -> None:
        self.runtimes.clear()
        # Commit trackers are volatile too; they rebuild from re-reports.
        # (Summaries are durable in the AGDB.)

    def on_recover(self) -> None:
        """Rebuild fragments from the AGDB WAL and resume.

        Completed local steps re-fire through the rule engine and take the
        OCR REUSE path, which re-sends their workflow packets — an
        idempotent repair for anything lost in the crash.
        """
        self.agdb.recover()
        fragments = [fragment for fragment in self.agdb.fragments()
                     if fragment.status is InstanceStatus.RUNNING]
        # Recorded before the rules re-fire: what they re-dispatch follows it.
        self.emit("agent.recovered", fragments=len(fragments))
        for fragment in fragments:
            instance_id = fragment.instance_id
            compiled = self.system.compiled(fragment.schema_name)
            runtime = self._build_runtime(compiled, fragment)
            for record in fragment.steps.values():
                if record.status is StepStatus.RUNNING and record.agent == self.name:
                    record.status = StepStatus.NOT_STARTED
                if record.agent is not None:
                    runtime.executors[record.step] = record.agent
            self.runtimes[instance_id] = runtime
            self._install_preconditions(runtime, instance_id)
            # Re-coordinating instances: restore the tracker from its last
            # persisted snapshot — terminal reports consumed before the
            # crash are never re-sent, so a bare skeleton would wedge the
            # commit protocol forever.
            if self.agdb.has_summary(instance_id):
                snapshot = self.agdb.recovered_tracker(instance_id)
                if snapshot is not None:
                    self.trackers[instance_id] = CommitTracker.from_snapshot(snapshot)
                else:
                    self.trackers.setdefault(instance_id, CommitTracker())
            runtime.engine.merge_events(fragment.events_snapshot, self.simulator.now)
            # The fragment's invalidation cutoffs survived the crash; re-apply
            # them so a stale packet arriving now cannot revive an event that
            # a rollback already invalidated.
            runtime.engine.apply_invalidations(fragment.known_invalidations)
