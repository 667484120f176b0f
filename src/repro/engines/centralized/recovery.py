"""Failure handling at the central engine.

Rollback + OCR re-execution, Saga-style unhandled failures, abort and
input-change processing, loop re-entry and the agent-round-trip
compensation chains — all engine-local mechanisms in centralized
control.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.recovery import RecoveryTokens
from repro.engines.base import MAX_LOOP_ITERATIONS, record_compensation
from repro.engines.runtime import CompensationChain, EngineRuntime
from repro.errors import SimulationError
from repro.obs.profile import profiled
from repro.rules.engine import RuleInstance
from repro.runtime.metrics import Mechanism
from repro.runtime.messages import Message
from repro.storage.tables import InstanceStatus, StepStatus

__all__ = ["EngineRecoveryMixin"]


class EngineRecoveryMixin:
    """Failure/abort/compensation behavior of :class:`CentralEngineNode`."""

    # ------------------------------------------------------------ abort

    def workflow_abort(self, instance_id: str) -> None:
        """WorkflowAbort WI: reject if committed, else compensate + halt."""
        status = self.wfdb.status(instance_id)
        if status is InstanceStatus.COMMITTED:
            # "any request for aborting the workflow ... after a workflow
            # commit will be rejected."
            self.emit("abort.rejected", instance=instance_id, reason="committed")
            return
        if status is InstanceStatus.ABORTED:
            return
        runtime = self.runtime(instance_id)
        self.emit("workflow.abort.request", instance=instance_id)
        self._charge(Mechanism.ABORT)
        self._halt(runtime)
        self.emit("abort.halt", instance=instance_id,
                  epoch=runtime.state.recovery_epoch)
        schema = runtime.compiled.schema
        to_compensate = [
            s
            for s in schema.abort_compensation_steps
            if runtime.state.step_status(s) is StepStatus.DONE
        ]
        ordered = sorted(
            to_compensate,
            key=lambda s: runtime.state.steps[s].exec_seq or 0,
            reverse=True,
        )
        self._compensate_chain(
            runtime,
            ordered,
            Mechanism.ABORT,
            on_done=lambda: self._finish_abort(instance_id),
        )

    def _halt(self, runtime: EngineRuntime) -> None:
        """Halt every thread of an instance about to abort: a new epoch,
        in-flight results stale from now on (their records stay until the
        abort ends and cancels them), and no pending load probe left to
        dispatch anything new."""
        instance_id = runtime.state.instance_id
        runtime.state.recovery_epoch += 1
        for key, inflight in self._inflight.items():
            if key[0] == instance_id:
                inflight.halted = True
        self._retire_probes(instance_id)

    def _finish_abort(self, instance_id: str) -> None:
        runtime = self.runtimes.pop(instance_id, None)
        if runtime is None:
            return
        for key in [k for k in self._inflight if k[0] == instance_id]:
            retired = self._inflight.pop(key)
            self._agent_load_view[retired.agent] -= 1
            self.emit("step.cancel", instance=instance_id, step=key[1])
        self.wfdb.set_status(instance_id, InstanceStatus.ABORTED)
        self._release_coordination(runtime, aborted=True)
        self.wfdb.archive(instance_id)
        self.emit("workflow.aborted", instance=instance_id,
                  schema=runtime.state.schema_name, outputs={})

    # ------------------------------------------------------------ input changes

    def workflow_change_inputs(
        self, instance_id: str, changes: Mapping[str, Any]
    ) -> None:
        """WorkflowChangeInputs WI: partial rollback to the earliest step
        consuming a changed input, then OCR re-execution."""
        status = self.wfdb.status(instance_id)
        if status is not InstanceStatus.RUNNING:
            self.emit("change_inputs.rejected", instance=instance_id,
                      reason=status.value)
            return
        runtime = self.runtime(instance_id)
        self._charge(Mechanism.INPUT_CHANGE)
        changed_refs = {f"WF.{name}" for name in changes}
        origin = None
        for step in runtime.compiled.graph.topo_order:
            step_def = runtime.compiled.schema.steps[step]
            if not changed_refs.intersection(step_def.inputs):
                continue
            if runtime.state.step_status(step) in (StepStatus.DONE, StepStatus.RUNNING):
                origin = step
                break
        runtime.state.apply_input_changes(changes)
        self.emit("workflow.change_inputs", instance=instance_id,
                  origin=origin or "-")
        if origin is not None:
            self._rollback(instance_id, origin, Mechanism.INPUT_CHANGE)

    # ------------------------------------------------------------ failure handling

    @profiled("recovery.ocr")
    def _handle_failure(self, instance_id: str, failed_step: str) -> None:
        runtime = self.runtimes.get(instance_id)
        if runtime is None:
            return
        origin = runtime.compiled.schema.rollback_origin(failed_step)
        if origin is None:
            # No rollback point: Saga-style default — compensate everything
            # executed (reverse order) and abort the workflow.
            self._halt(runtime)
            self.emit("failure.unhandled", instance=instance_id, step=failed_step,
                      epoch=runtime.state.recovery_epoch)
            executed = [
                s
                for s in reversed(runtime.state.executed_steps_in_order())
                if runtime.compiled.schema.steps[s].compensable
            ]
            self._compensate_chain(
                runtime, executed, Mechanism.FAILURE,
                on_done=lambda: self._finish_abort(instance_id),
            )
            return
        self._rollback(instance_id, origin, Mechanism.FAILURE)

    @profiled("recovery.rollback")
    def _rollback(
        self,
        instance_id: str,
        origin: str,
        mechanism: Mechanism,
        from_rd: bool = False,
    ) -> None:
        """Partial rollback to ``origin`` followed by OCR re-execution."""
        runtime = self.runtimes.get(instance_id)
        if runtime is None or runtime.state.status is not InstanceStatus.RUNNING:
            return
        state = runtime.state
        compiled = runtime.compiled
        state.recovery_epoch += 1
        runtime.recovery_mechanism = mechanism
        recovery = RecoveryTokens(compiled, origin)
        self.emit("rollback", instance=instance_id, origin=origin,
                  epoch=state.recovery_epoch, mechanism=mechanism.value)
        # Halting threads is local work in centralized control; one unit of
        # navigation load per affected step.
        self._charge(mechanism, len(recovery.steps))
        runtime.engine.invalidate_events(recovery.tokens)
        runtime.engine.reset_rules_for_steps(recovery.steps)
        for step in recovery.steps:
            record = state.steps.get(step)
            if record is not None and record.status is StepStatus.RUNNING:
                record.status = StepStatus.NOT_STARTED
            retired = self._inflight.pop((instance_id, step), None)
            if retired is not None:
                self._agent_load_view[retired.agent] -= 1
                self.emit("step.cancel", instance=instance_id, step=step)
        self._retire_probes(instance_id, recovery.steps)
        runtime.reported -= recovery.steps
        self.wfdb.persist(state)

        # Rollback dependency triggers (single-hop to avoid ping-pong).
        if not from_rd:
            self._coord_on_rollback(runtime, recovery.steps)

        runtime.engine.reevaluate()

    # ------------------------------------------------------------ loops

    def _fire_loop(self, instance_id: str, rule: RuleInstance) -> None:
        runtime = self.runtimes.get(instance_id)
        if runtime is None or runtime.state.status is not InstanceStatus.RUNNING:
            return
        fires = runtime.table("loop_fires")
        iteration = fires[rule.rule_id] = fires.get(rule.rule_id, 0) + 1
        if iteration > MAX_LOOP_ITERATIONS:
            raise SimulationError(
                f"loop {rule.rule_id} exceeded {MAX_LOOP_ITERATIONS} "
                f"iterations in instance {instance_id}"
            )
        body = rule.loop_body
        self.emit("loop.iterate", instance=instance_id, rule=rule.rule_id,
                  iteration=iteration)
        from repro.core.recovery import invalidation_tokens

        runtime.engine.invalidate_events(invalidation_tokens(body))
        runtime.engine.reset_rules_for_steps(body)
        for step in body:
            record = runtime.state.steps.get(step)
            if record is not None:
                record.status = StepStatus.NOT_STARTED
        runtime.reported -= set(body)
        runtime.engine.reevaluate()

    # ------------------------------------------------------------ compensation

    def _compensate_chain(
        self,
        runtime: EngineRuntime,
        steps: list[str],
        mechanism: Mechanism,
        on_done,
        partial_for: set[str] | None = None,
    ) -> None:
        """Compensate ``steps`` strictly in order via agent round-trips.

        Each step is marked COMPENSATED in the authoritative state as its
        request is issued; the ack drives the chain forward, preserving the
        reverse-execution-order requirement of compensation dependent sets.
        """
        if not steps:
            on_done()
            return
        chain_id = next(self._ids)
        self._chains[chain_id] = CompensationChain(
            instance_id=runtime.state.instance_id,
            steps=list(steps),
            mechanism=mechanism,
            on_done=on_done,
        )
        self._advance_chain(chain_id, partial_for or set())

    def _advance_chain(self, chain_id: int, partial_for: set[str] | None = None) -> None:
        chain = self._chains.get(chain_id)
        if chain is None:
            return
        if not chain.steps:
            del self._chains[chain_id]
            chain.on_done()
            return
        runtime = self.runtimes.get(chain.instance_id)
        if runtime is None:
            del self._chains[chain_id]
            return
        step = chain.steps.pop(0)
        record = runtime.state.steps.get(step)
        step_def = runtime.compiled.schema.steps[step]
        if record is None or record.status is not StepStatus.DONE:
            self._advance_chain(chain_id, partial_for)
            return
        kind = "partial" if partial_for and step in partial_for else "complete"
        cost = step_def.effective_compensation_cost
        if kind == "partial":
            policy = runtime.compiled.schema.cr_policies.get(step)
            fraction = policy.incremental_fraction if policy is not None else 0.3
            cost *= fraction
        token = record_compensation(runtime.state, step_def, kind)
        runtime.engine.post_event(token, self.simulator.now)
        self._charge(chain.mechanism)
        agent = record.agent or self.system.assignment.eligible(
            runtime.state.schema_name, step
        )[0]
        self.emit("step.compensate", instance=chain.instance_id, step=step,
                  comp=kind, agent=agent)
        self.send(
            agent,
            "StepCompensate",
            {
                "instance_id": chain.instance_id,
                "schema_name": runtime.state.schema_name,
                "step": step,
                "kind": kind,
                "cost": cost,
                "chain_id": chain_id,
                "mechanism": chain.mechanism.value,
            },
            chain.mechanism,
        )

    def _on_compensate_ack(self, message: Message) -> None:
        self._advance_chain(message.payload["chain_id"])
