"""Rollback halting and compensation chains (paper Section 5.2).

A step failure (or input change) invokes WorkflowRollback() at the
rollback origin's agent; that agent probes the affected threads with
HaltThread() calls that invalidate downstream ``step.done`` events and
quiesce control flow.  Compensation dependent sets travel as
CompensateSet() chains in reverse execution order, and abandoned
if-then-else branches are undone by CompensateThread() chains — each hop
agent checks locally whether its step ran (and is stale) before
compensating.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.interfaces import WI
from repro.core.programs import ExecutionContext
from repro.core.recovery import RecoveryTokens
from repro.engines.base import record_compensation
from repro.engines.coord import SpecIndex
from repro.engines.runtime import (
    AgentRuntime,
    absorb_invalidations,
    open_invalidation_round,
)
from repro.model.policies import DEFAULT_POLICY
from repro.obs.profile import profiled
from repro.rules.events import step_done
from repro.runtime.metrics import Mechanism
from repro.runtime.messages import Message
from repro.storage.tables import InstanceStatus, StepStatus

__all__ = ["AgentHaltingMixin"]


class AgentHaltingMixin:
    """Halting/compensation behavior of :class:`~repro.engines.distributed.WorkflowAgentNode`."""

    # ------------------------------------------------------------------ rollback

    def _on_workflow_rollback(self, message: Message) -> None:
        self._apply_workflow_rollback(message.payload)

    @profiled("recovery.rollback")
    def _apply_workflow_rollback(self, payload: Mapping[str, Any]) -> None:
        instance_id = payload["instance_id"]
        runtime = self.runtimes.get(instance_id)
        if runtime is None:
            runtime = self._runtime(payload["schema_name"], instance_id)
        fragment = runtime.fragment
        if fragment.status is not InstanceStatus.RUNNING:
            return
        origin = payload["origin"]
        epoch = payload["epoch"]
        mechanism = Mechanism(payload.get("mechanism", Mechanism.FAILURE.value))
        if epoch <= fragment.recovery_epoch:
            return  # already handled (duplicate rollback request)
        self.trace.record(self.simulator.now, self.name, "rollback",
                          instance=instance_id, origin=origin, epoch=epoch)
        self.system.obs_recovery_started(
            instance_id, self.name, self.simulator.now, origin=origin,
            epoch=epoch, mechanism=mechanism.value,
        )
        fragment.recovery_epoch = epoch
        runtime.recovery_mechanism = mechanism
        runtime.origin_history[epoch] = origin
        self._halt_from(runtime, instance_id, origin, epoch, mechanism,
                        include_origin_agent=False)
        # (the halt bumped fragment.invalidation_round)
        # Rollback-dependency triggers (single hop: a rollback induced by
        # a dependency does not re-trigger dependencies, avoiding ping-pong
        # between mutually dependent instances).
        recovery = RecoveryTokens(runtime.compiled, origin)
        rd_allowed = not payload.get("from_rd", False)
        for spec in self.spec_index.rd_triggers(fragment.schema_name) if rd_allowed else []:
            if spec.trigger_step_a not in recovery.steps:
                continue
            authority = self.system.authority_agent_for(spec)
            trigger_payload = {
                "op": "rd_trigger",
                "spec": spec.name,
                "instance_id": instance_id,
                "key": SpecIndex.conflict_key_value(spec, fragment),
            }
            if authority == self.name:
                self._apply_rd_trigger(trigger_payload)
            else:
                self.send(authority, WI.ADD_RULE.value, trigger_payload,
                          Mechanism.COORDINATION)
        # Re-execution: the origin's rules were re-armed by the local halt;
        # its trigger events (outside the invalidation set) are still valid.
        runtime.engine.reevaluate()

    def _halt_from(
        self,
        runtime: AgentRuntime,
        instance_id: str,
        origin: str,
        epoch: int,
        mechanism: Mechanism,
        include_origin_agent: bool,
    ) -> None:
        """Apply the local halt/invalidation and probe successor agents."""
        compiled = runtime.compiled
        fragment = runtime.fragment
        recovery = RecoveryTokens(compiled, origin)
        round = open_invalidation_round(runtime, recovery.tokens)
        runtime.engine.invalidate_events(recovery.tokens)
        runtime.engine.reset_rules_for_steps(recovery.steps)
        for step in recovery.steps:
            record = fragment.steps.get(step)
            if record is not None and record.status is StepStatus.RUNNING:
                record.status = StepStatus.NOT_STARTED
        self._persist(runtime)
        # Probe the agents responsible for the successor steps.  The probe
        # recurses at each agent that already forwarded packets.
        payload = {
            "schema_name": compiled.name,
            "instance_id": instance_id,
            "origin": origin,
            "epoch": epoch,
            "mechanism": mechanism.value,
            "invalidations": {t: round for t in recovery.tokens},
        }
        targets: set[str] = set()
        for successor in compiled.graph.successors(origin):
            for agent in self.agdb.eligible_agents(compiled.name, successor):
                if agent != self.name:
                    targets.add(agent)
        for agent in sorted(targets):
            self.send(agent, WI.HALT_THREAD.value, payload, mechanism)

    def _on_halt_thread(self, message: Message) -> None:
        payload = message.payload
        instance_id = payload["instance_id"]
        runtime = self.runtimes.get(instance_id)
        if runtime is None:
            if not self.agdb.has_fragment(instance_id):
                return  # never saw this instance; nothing to halt
            runtime = self._runtime(payload["schema_name"], instance_id)
        fragment = runtime.fragment
        epoch = payload["epoch"]
        if epoch <= fragment.recovery_epoch:
            return  # this halt round already processed here
        fragment.recovery_epoch = epoch
        mechanism = Mechanism(payload.get("mechanism", Mechanism.FAILURE.value))
        if mechanism in (Mechanism.FAILURE, Mechanism.INPUT_CHANGE):
            runtime.recovery_mechanism = mechanism
        origin = payload["origin"]
        runtime.origin_history[epoch] = origin
        compiled = runtime.compiled
        recovery = RecoveryTokens(compiled, origin)
        self.trace.record(self.simulator.now, self.name, "halt.thread",
                          instance=instance_id, origin=origin, epoch=epoch)
        runtime.engine.apply_invalidations(dict(payload["invalidations"]))
        runtime.engine.reset_rules_for_steps(recovery.steps)
        absorb_invalidations(runtime, payload["invalidations"])
        for step in recovery.steps:
            record = fragment.steps.get(step)
            if record is not None and record.status is StepStatus.RUNNING:
                record.status = StepStatus.NOT_STARTED
        self._persist(runtime)
        # Propagate to successors of steps this agent executed and forwarded.
        forwarded_affected = runtime.forwarded & recovery.steps
        targets: set[str] = set()
        for step in forwarded_affected:
            for successor in compiled.graph.successors(step):
                for agent in self.agdb.eligible_agents(compiled.name, successor):
                    if agent != self.name:
                        targets.add(agent)
        runtime.forwarded -= recovery.steps
        for agent in sorted(targets):
            self.send(agent, WI.HALT_THREAD.value, dict(payload), mechanism)

    # ------------------------------------------------------------------ compensation WIs

    def _on_step_compensate(self, message: Message) -> None:
        self._on_step_compensate_local(message.payload, message.mechanism)

    def _on_step_compensate_local(
        self, payload: Mapping[str, Any], mechanism: Mechanism
    ) -> None:
        """StepCompensate WI: compensate the step if this agent executed it."""
        instance_id = payload["instance_id"]
        if not self.agdb.has_fragment(instance_id):
            return
        runtime = self._runtime(payload["schema_name"], instance_id)
        step = payload["step"]
        record = runtime.fragment.steps.get(step)
        if record is None or record.status is not StepStatus.DONE:
            return
        if record.agent != self.name:
            return
        step_def = runtime.compiled.schema.steps[step]
        self._compensate_local(
            runtime, step, payload.get("kind", "complete"),
            step_def.effective_compensation_cost, mechanism,
        )

    def _compensate_local(
        self,
        runtime: AgentRuntime,
        step: str,
        kind: str,
        cost: float,
        mechanism: Mechanism,
    ) -> None:
        compiled = runtime.compiled
        step_def = compiled.schema.steps[step]
        record = runtime.fragment.record(step)
        program = self.system.programs.get(step_def.program, step_def.outputs)
        ctx = ExecutionContext(
            schema_name=compiled.name,
            instance_id=runtime.fragment.instance_id,
            step=step,
            attempt=record.executions,
            now=self.simulator.now,
            node=self.name,
        )
        program.compensate(record, ctx)
        self.network.metrics.record_work(self.name, "compensate", cost)
        token = record_compensation(runtime.fragment, step_def, kind)
        runtime.engine.post_event(token, self.simulator.now,
                                  runtime.fragment.invalidation_round)
        self._persist(runtime)
        self.trace.record(self.simulator.now, self.name, "step.compensated",
                          instance=runtime.fragment.instance_id, step=step,
                          comp=kind)

    def _forward_compensate_set(
        self,
        runtime: AgentRuntime,
        instance_id: str,
        chain: list[str],
        origin_step: str,
        mechanism: Mechanism,
        partial_kind: str | None,
    ) -> None:
        """Send (or locally process) the next hop of a CompensateSet chain."""
        payload = {
            "schema_name": runtime.fragment.schema_name,
            "instance_id": instance_id,
            "step_list": list(chain),
            "origin_step": origin_step,
            "initiator": self.name,
            "mechanism": mechanism.value,
            "partial_kind": partial_kind,
            "executors": dict(runtime.executors),
            # Hop agents apply these before deciding, so a chain racing
            # ahead of the HaltThread probes still sees the stale state.
            "invalidations": dict(runtime.known_invalidations),
        }
        self._process_compensate_set(payload)

    def _on_compensate_set(self, message: Message) -> None:
        self._process_compensate_set(dict(message.payload))

    def _process_compensate_set(self, payload: dict[str, Any]) -> None:
        instance_id = payload["instance_id"]
        step_list: list[str] = list(payload["step_list"])
        origin_step = payload["origin_step"]
        mechanism = Mechanism(payload["mechanism"])
        if not step_list:
            return
        step = step_list[0]
        executors = dict(payload["executors"])
        target = executors.get(step)
        if target is None:
            compiled = self.system.compiled(payload["schema_name"])
            target = self._elect(compiled, instance_id, step)
        if target != self.name:
            payload["step_list"] = step_list
            self.send(target, WI.COMPENSATE_SET.value, payload, mechanism)
            return
        # This agent is responsible for the head of the list: compensate it
        # if it was executed here *and* its completion is stale (a valid
        # done event means the step was already re-established and keeps
        # its effects — e.g. an OCR reuse).
        runtime = self._runtime(payload["schema_name"], instance_id)
        invalidations = dict(payload.get("invalidations", {}))
        if invalidations:
            runtime.engine.apply_invalidations(invalidations)
            absorb_invalidations(runtime, invalidations)
        record = runtime.fragment.steps.get(step)
        occurrence = runtime.engine.events.occurrence(step_done(step))
        stale = occurrence is None or not occurrence.valid
        if record is not None and record.status is StepStatus.DONE and stale:
            step_def = runtime.compiled.schema.steps[step]
            is_origin = step == origin_step
            kind = (
                payload.get("partial_kind") or "complete" if is_origin else "complete"
            )
            cost = step_def.effective_compensation_cost
            if kind == "partial":
                policy = runtime.compiled.schema.cr_policies.get(step, DEFAULT_POLICY)
                cost *= policy.incremental_fraction
            self._compensate_local(runtime, step, kind, cost, mechanism)
        step_list.pop(0)
        if step_list:
            payload["step_list"] = step_list
            self._process_compensate_set(payload)
            return
        # Chain finished.  If the origin step's agent stashed a pending
        # re-execution, resume it (the origin is the last chain element, so
        # we are at its agent — or the chain ended elsewhere and the
        # initiator resumes via this final hop).
        initiator = payload["initiator"]
        if initiator != self.name:
            self.send(initiator, WI.COMPENSATE_SET.value,
                      {**payload, "step_list": []}, mechanism)
            return
        runtime = self.runtimes.get(instance_id)
        if runtime is None:
            return
        pending = runtime.pending_exec.pop(origin_step, None)
        if pending is not None:
            plan, inputs, exec_mechanism = pending
            self._launch_program(instance_id, origin_step, plan.execution_cost,
                                 exec_mechanism, inputs)

    def _start_compensate_thread(
        self,
        runtime: AgentRuntime,
        instance_id: str,
        steps: list[str],
        mechanism: Mechanism,
    ) -> None:
        """CompensateThread WI chain over an abandoned if-then-else branch."""
        payload = {
            "schema_name": runtime.fragment.schema_name,
            "instance_id": instance_id,
            "step_list": list(steps),
            "mechanism": mechanism.value,
            "executors": dict(runtime.executors),
            "invalidations": dict(runtime.known_invalidations),
        }
        self.trace.record(self.simulator.now, self.name, "compensate.thread",
                          instance=instance_id, steps=",".join(steps))
        self._process_compensate_thread(payload)

    def _on_compensate_thread(self, message: Message) -> None:
        self._process_compensate_thread(dict(message.payload))

    def _process_compensate_thread(self, payload: dict[str, Any]) -> None:
        step_list: list[str] = list(payload["step_list"])
        if not step_list:
            return
        instance_id = payload["instance_id"]
        mechanism = Mechanism(payload["mechanism"])
        step = step_list[0]
        executors = dict(payload["executors"])
        target = executors.get(step)
        if target is None:
            compiled = self.system.compiled(payload["schema_name"])
            target = self._elect(compiled, instance_id, step)
        if target != self.name:
            self.send(target, WI.COMPENSATE_THREAD.value, payload, mechanism)
            return
        runtime = self._runtime(payload["schema_name"], instance_id)
        invalidations = dict(payload.get("invalidations", {}))
        if invalidations:
            runtime.engine.apply_invalidations(invalidations)
            absorb_invalidations(runtime, invalidations, bump_round=False)
        record = runtime.fragment.steps.get(step)
        occurrence = runtime.engine.events.occurrence(step_done(step))
        stale = occurrence is None or not occurrence.valid
        if record is not None and record.status is StepStatus.DONE and stale:
            step_def = runtime.compiled.schema.steps[step]
            self._compensate_local(
                runtime, step, "complete", step_def.effective_compensation_cost,
                mechanism,
            )
        step_list.pop(0)
        if step_list:
            payload["step_list"] = step_list
            self._process_compensate_thread(payload)

    # ------------------------------------------------------------------ inputs changed

    def _on_inputs_changed(self, message: Message) -> None:
        self._on_inputs_changed_local(message.payload)

    def _on_inputs_changed_local(self, payload: Mapping[str, Any]) -> None:
        """InputsChanged WI at the origin step's agent: apply the new input
        values, then run the standard rollback machinery from the origin."""
        instance_id = payload["instance_id"]
        runtime = self._runtime(payload["schema_name"], instance_id)
        changes = dict(payload["changes"])
        overrides = {f"WF.{name}": value for name, value in changes.items()}
        runtime.input_overrides.update(overrides)
        runtime.fragment.merge_data(overrides)
        for name, value in changes.items():
            if name in runtime.fragment.inputs:
                runtime.fragment.inputs[name] = value
        rollback_payload = {
            "schema_name": payload["schema_name"],
            "instance_id": instance_id,
            "origin": payload["origin"],
            "failed_step": None,
            "epoch": payload["epoch"],
            "mechanism": Mechanism.INPUT_CHANGE.value,
        }
        self._apply_workflow_rollback(rollback_payload)
