"""Packet forwarding, executor election and step execution.

Navigation in distributed control is packet-driven: every eligible agent
of a successor step receives the workflow packet carrying the accumulated
data/event state, and the deterministically *elected* executor runs the
step.  This module holds that forward path — packet ingestion, rule
firing, program execution, successor selection (including the paper's
two-phase StateInformation load probes), loop re-entry and nested
workflow launch.
"""

from __future__ import annotations

import zlib
from typing import Any, Mapping

from repro.core.interfaces import WI
from repro.core.ocr import plan_step_action
from repro.core.packets import WorkflowPacket
from repro.core.programs import ExecutionContext
from repro.core.recovery import invalidation_tokens
from repro.engines.base import (
    record_execution_failure,
    record_execution_success,
    record_reuse,
)
from repro.engines.runtime import (
    AgentRuntime,
    absorb_invalidations,
    compensate_set_chain,
    open_invalidation_round,
    reverse_topo_order,
)
from repro.errors import SchemaError, SimulationError
from repro.model.policies import DEFAULT_POLICY
from repro.obs.profile import profiled
from repro.rules.engine import RuleInstance
from repro.rules.events import step_done
from repro.runtime.metrics import Mechanism
from repro.runtime.messages import Message
from repro.storage.tables import InstanceStatus, StepStatus

__all__ = ["AgentNavigationMixin", "VERB_NESTED_DONE", "elect_executor"]

VERB_NESTED_DONE = "NestedDone"


def elect_executor(
    eligible: tuple[str, ...],
    schema_name: str,
    instance_id: str,
    step: str,
    is_up=None,
) -> str:
    """Deterministic executor election among eligible agents.

    All agents (senders and receivers alike) compute the same permutation
    from a hash of ``(schema, instance, step)``; the first *up* agent in
    that order executes.  Epoch-independent so that a re-execution after
    rollback lands on the agent holding the previous execution's data —
    the precondition for OCR reuse.
    """
    if len(eligible) == 1:
        return eligible[0]
    seed = zlib.crc32(f"{schema_name}|{instance_id}|{step}".encode("utf-8"))
    start = seed % len(eligible)
    order = [eligible[(start + i) % len(eligible)] for i in range(len(eligible))]
    if is_up is not None:
        for agent in order:
            if is_up(agent):
                return agent
    return order[0]


class AgentNavigationMixin:
    """Forward-path behavior of :class:`~repro.engines.distributed.WorkflowAgentNode`."""

    # ------------------------------------------------------------------ packets

    def _on_step_execute(self, message: Message) -> None:
        packet = WorkflowPacket.from_payload(message.payload)
        self._ingest_packet(packet)

    def _ingest_packet(self, packet: WorkflowPacket) -> None:
        instance_id = packet.instance_id
        runtime = self._runtime(packet.schema_name, instance_id,
                                parent_link=packet.parent_link)
        fragment = runtime.fragment
        if fragment.status is not InstanceStatus.RUNNING:
            return
        if packet.recovery_epoch < fragment.recovery_epoch:
            self.trace.record(self.simulator.now, self.name, "packet.stale",
                              instance=instance_id, step=packet.target_step)
            return
        if packet.recovery_epoch > fragment.recovery_epoch:
            fragment.recovery_epoch = packet.recovery_epoch
            if packet.mechanism in (Mechanism.FAILURE, Mechanism.INPUT_CHANGE):
                runtime.recovery_mechanism = packet.mechanism
        if runtime.governed:
            self.charge(float(runtime.governed), Mechanism.COORDINATION)
        # Invalidations first, then state merge, then events (which may fire
        # rules against the merged data).  The fragment adopts the highest
        # round it hears about so its own re-executions outlive the cutoffs.
        absorb_invalidations(runtime, packet.invalidations)
        runtime.engine.apply_invalidations(packet.invalidations)
        fragment.merge_data(packet.data)
        if runtime.input_overrides:
            fragment.merge_data(runtime.input_overrides)
        runtime.executors.update(packet.executors)
        runtime.ro_info.update(packet.ro_info)
        if packet.assigned_agent is not None:
            runtime.assigned[packet.target_step] = packet.assigned_agent
        if (
            self.config.agent_failure_recovery
            and packet.assigned_agent not in (None, self.name)
            and packet.target_step not in runtime.watchdogs
        ):
            runtime.watchdogs.add(packet.target_step)
            self.simulator.schedule(
                self.config.step_status_timeout,
                self._watchdog, instance_id, packet.target_step,
            )
        # Mutual-exclusion region head arriving: the assigned executor asks
        # the authority for the region lock.
        if packet.assigned_agent == self.name:
            for spec in self.spec_index.mx_region_first(
                packet.schema_name, packet.target_step
            ):
                self._mx_request(runtime, instance_id, spec)
        # Merge without pumping, then re-apply everything this agent knows
        # to be invalidated (a stale packet may carry — and revive — an
        # occurrence this agent already invalidated), and only then fire.
        runtime.engine.events.merge(packet.events, self.simulator.now)
        runtime.engine.apply_invalidations(runtime.known_invalidations)
        runtime.engine.reevaluate()
        self._persist(runtime)

    # ------------------------------------------------------------------ rule firing

    def _on_rule(self, instance_id: str, rule: RuleInstance) -> None:
        runtime = self.runtimes.get(instance_id)
        if runtime is None or runtime.fragment.status is not InstanceStatus.RUNNING:
            return
        if rule.kind == "loop":
            self._fire_loop(instance_id, rule)
            return
        step = rule.step
        assigned = runtime.assigned.get(step) or self._elect(
            runtime.compiled, instance_id, step
        )
        if assigned != self.name:
            return  # another eligible agent executes; we just hold state
        entered_via_split = False
        split = runtime.compiled.branch_first_map.get(step)
        if split is not None and step_done(split) in rule.required:
            entered_via_split = True
        self._execute_step(instance_id, step, entered_via_split=entered_via_split)

    @profiled("dispatch.step")
    def _execute_step(
        self, instance_id: str, step: str, entered_via_split: bool = False
    ) -> None:
        runtime = self.runtimes.get(instance_id)
        if runtime is None or runtime.fragment.status is not InstanceStatus.RUNNING:
            return
        compiled = runtime.compiled
        fragment = runtime.fragment
        step_def = compiled.schema.steps[step]
        record = fragment.record(step)
        if record.status is StepStatus.RUNNING:
            return  # already executing locally
        mechanism = runtime.step_mechanism(step)
        self.charge(1.0, mechanism)

        # CompensateThread: abandoning the previously executed branch.  The
        # agent entering the new branch cannot know which abandoned steps
        # actually ran (their completions never flowed here), so the chain
        # carries the *static* member list in reverse topological order and
        # each hop agent checks locally — mirroring CompensateSet().
        if entered_via_split:
            split = compiled.branch_first_map[step]
            index = compiled.graph.topo_index
            abandoned = reverse_topo_order(
                (
                    m
                    for m in compiled.abandoned_branch_members(split, step)
                    if compiled.schema.steps[m].compensable
                ),
                index,
            )
            if abandoned:
                self._start_compensate_thread(runtime, instance_id, abandoned,
                                              runtime.recovery_mechanism)

        new_inputs = fragment.gather_inputs(step_def.inputs)
        policy = compiled.schema.cr_policies.get(step, DEFAULT_POLICY)
        plan = plan_step_action(step_def, record, new_inputs, policy)
        if plan.decision is not None:
            self.system.obs_ocr_planned(
                instance_id, self.name, self.simulator.now, plan
            )

        if plan.reuse_outputs:
            token = record_reuse(fragment, step_def, self.simulator.now)
            self.trace.record(self.simulator.now, self.name, "step.reuse",
                              instance=instance_id, step=step)
            self.system.obs_step_done(instance_id, step, self.simulator.now)
            runtime.executors[step] = self.name
            self._persist(runtime)
            runtime.engine.post_event(token, self.simulator.now,
                                      runtime.fragment.invalidation_round)
            self._after_step_done(instance_id, step, mechanism)
            return

        if plan.compensate:
            members = compiled.schema.compensation_set_of(step)
            if members is not None:
                # The initiator cannot know which downstream members ran
                # (packets only flow forward), so the StepList is the static
                # member list in reverse topological order; each hop agent
                # checks locally whether its step "has been executed" (and
                # is stale) before compensating — exactly the paper's
                # CompensateSet() procedure.
                chain = compensate_set_chain(
                    members, step, compiled.graph.topo_index
                )
                runtime.pending_exec[step] = (plan, new_inputs, mechanism)
                self.trace.record(self.simulator.now, self.name, "compensate.set",
                                  instance=instance_id, step=step,
                                  chain=",".join(chain))
                self._forward_compensate_set(
                    runtime, instance_id, chain, step, mechanism,
                    partial_kind=plan.compensation_kind,
                )
                return
            # Not in a dependent set: the step was executed here, so the
            # compensation is local.
            self._compensate_local(runtime, step, plan.compensation_kind or "complete",
                                   plan.compensation_cost, mechanism)

        self._launch_program(instance_id, step, plan.execution_cost, mechanism,
                             new_inputs)

    def _launch_program(
        self,
        instance_id: str,
        step: str,
        cost: float,
        mechanism: Mechanism,
        inputs: dict[str, Any],
    ) -> None:
        runtime = self.runtimes.get(instance_id)
        if runtime is None or runtime.fragment.status is not InstanceStatus.RUNNING:
            return
        compiled = runtime.compiled
        step_def = compiled.schema.steps[step]
        if step_def.subworkflow is not None:
            self._launch_nested(runtime, instance_id, step, inputs)
            return
        record = runtime.fragment.record(step)
        record.status = StepStatus.RUNNING
        record.agent = self.name
        attempt = record.executions + 1
        epoch = runtime.fragment.recovery_epoch
        runtime.running_exec[step] = epoch
        stale_span = runtime.exec_spans.pop(step, None)
        if stale_span is not None:
            self.system.tracer.end(
                stale_span, self.simulator.now, status="cancelled"
            )
        runtime.exec_spans[step] = self.system.obs_step_dispatched(
            instance_id, step, self.name, self.simulator.now,
            attempt=attempt, epoch=epoch, mechanism=mechanism.value,
        )
        self.trace.record(self.simulator.now, self.name, "step.execute",
                          instance=instance_id, step=step, attempt=attempt,
                          epoch=epoch)
        delay = cost * self.config.work_time_scale
        self.schedule_causal(
            delay, self._complete_program, instance_id, step, epoch, attempt,
            mechanism, inputs, cost,
        )

    def _complete_program(
        self,
        instance_id: str,
        step: str,
        epoch: int,
        attempt: int,
        mechanism: Mechanism,
        inputs: dict[str, Any],
        cost: float,
    ) -> None:
        runtime = self.runtimes.get(instance_id)
        if runtime is None or runtime.fragment.status is not InstanceStatus.RUNNING:
            return
        fragment = runtime.fragment
        if runtime.running_exec.get(step) != epoch or fragment.recovery_epoch != epoch:
            # Stale completion from before a rollback; the halt already
            # reset the step record and a newer execution may be in flight.
            self.trace.record(self.simulator.now, self.name, "step.stale_result",
                              instance=instance_id, step=step)
            if runtime.running_exec.get(step) == epoch:
                # This *was* the step's latest local launch — it raced an
                # epoch bump (a delayed pre-rollback packet started it just
                # before the invalidation arrived).  The current epoch's
                # navigation skipped the step as "already executing", so
                # nobody else will ever complete it: release the record and
                # re-drive the step under the current epoch.
                runtime.running_exec.pop(step, None)
                record = fragment.steps.get(step)
                if record is not None and record.status is StepStatus.RUNNING:
                    record.status = StepStatus.NOT_STARTED
                    self._persist(runtime)
                    if any(r.fired for r in runtime.engine.rules_for_step(step)):
                        self._execute_step(instance_id, step)
            return
        runtime.running_exec.pop(step, None)
        compiled = runtime.compiled
        step_def = compiled.schema.steps[step]
        program = self.system.programs.get(step_def.program, step_def.outputs)
        ctx = ExecutionContext(
            schema_name=compiled.name,
            instance_id=instance_id,
            step=step,
            attempt=attempt,
            now=self.simulator.now,
            node=self.name,
            rng=self.system.rng.stream(f"prog:{instance_id}:{step}"),
        )
        result = program.execute(inputs, ctx)
        self.network.metrics.record_work(self.name, "execute", cost)
        runtime.executors[step] = self.name
        exec_span = runtime.exec_spans.pop(step, None)
        if result.success:
            token = record_execution_success(
                fragment, step_def, inputs, result.outputs, self.simulator.now,
                self.name,
            )
            self.trace.record(self.simulator.now, self.name, "step.done",
                              instance=instance_id, step=step)
            if exec_span is not None:
                self.system.obs_step_finished(
                    exec_span, self.simulator.now, status="done"
                )
            self.system.obs_step_done(instance_id, step, self.simulator.now)
            self._persist(runtime)
            runtime.engine.post_event(token, self.simulator.now,
                                      runtime.fragment.invalidation_round)
            self._after_step_done(instance_id, step, mechanism)
        else:
            token = record_execution_failure(
                fragment, step_def, inputs, self.simulator.now, self.name
            )
            self.trace.record(self.simulator.now, self.name, "step.fail",
                              instance=instance_id, step=step,
                              error=result.error or "-")
            self.dump_flight("step.fail", instance=instance_id, step=step)
            if exec_span is not None:
                self.system.obs_step_finished(
                    exec_span, self.simulator.now, status="failed",
                    error=result.error or "-",
                )
            self._persist(runtime)
            runtime.engine.post_event(token, self.simulator.now,
                                      runtime.fragment.invalidation_round)
            self._handle_failure(instance_id, step)

    # ------------------------------------------------------------------ navigation

    def _after_step_done(
        self, instance_id: str, step: str, mechanism: Mechanism
    ) -> None:
        runtime = self.runtimes.get(instance_id)
        if runtime is None or runtime.fragment.status is not InstanceStatus.RUNNING:
            return
        compiled = runtime.compiled
        self._coord_on_step_done(runtime, instance_id, step)
        if step in compiled.terminal_steps and not runtime.loop_continues(step):
            self._report_completion(runtime, instance_id, step, mechanism)
            return
        self._navigate(runtime, instance_id, step, mechanism)

    def _navigate(
        self,
        runtime: AgentRuntime,
        instance_id: str,
        step: str,
        mechanism: Mechanism,
        only_to: str | None = None,
    ) -> None:
        compiled = runtime.compiled
        runtime.forwarded.add(step)
        for successor in compiled.graph.successors(step):
            eligible = self.agdb.eligible_agents(compiled.name, successor)
            if (
                self.config.successor_selection == "load"
                and len(eligible) > 1
                and only_to is None
            ):
                # Paper's two-phase selection: probe eligible successors
                # with StateInformation(), dispatch to the least loaded.
                self._probe_then_dispatch(runtime, instance_id, successor,
                                          mechanism, eligible)
                continue
            assigned = self._elect(compiled, instance_id, successor)
            self._send_step_packets(runtime, instance_id, successor, mechanism,
                                    eligible, assigned, only_to)

    @profiled("dispatch.packet")
    def _send_step_packets(
        self,
        runtime: AgentRuntime,
        instance_id: str,
        successor: str,
        mechanism: Mechanism,
        eligible: tuple[str, ...],
        assigned: str,
        only_to: str | None = None,
    ) -> None:
        packet = self._build_packet(runtime, instance_id, successor, mechanism,
                                    assigned)
        for agent in eligible:
            if only_to is not None and agent != only_to:
                continue
            if agent == self.name:
                self._ingest_packet(packet)
            else:
                self.send(agent, WI.STEP_EXECUTE.value, packet.to_payload(),
                          mechanism)

    # -- load-based successor selection (config.successor_selection="load") --

    def _local_executing_count(self) -> int:
        return sum(
            1
            for runtime in self.runtimes.values()
            for record in runtime.fragment.steps.values()
            if record.status is StepStatus.RUNNING and record.agent == self.name
        )

    def _probe_then_dispatch(
        self,
        runtime: AgentRuntime,
        instance_id: str,
        successor: str,
        mechanism: Mechanism,
        eligible: tuple[str, ...],
    ) -> None:
        probe_id = next(self._probe_ids)
        others = [agent for agent in eligible if agent != self.name]
        loads = {}
        if self.name in eligible:
            loads[self.name] = self._local_executing_count()
        self._load_probes[probe_id] = {
            "instance_id": instance_id,
            "successor": successor,
            "mechanism": mechanism,
            "eligible": eligible,
            "waiting": set(others),
            "loads": loads,
        }
        for agent in others:
            self.send(agent, WI.STATE_INFORMATION.value,
                      {"probe_id": probe_id, "mechanism": mechanism.value},
                      mechanism)
        if not others:
            self._finish_load_probe(probe_id)

    def _on_state_information_reply(self, message: Message) -> None:
        probe_id = message.payload.get("probe_id")
        pending = self._load_probes.get(probe_id)
        if pending is None:
            return
        pending["waiting"].discard(message.src)
        pending["loads"][message.src] = message.payload["load"]
        if not pending["waiting"]:
            self._finish_load_probe(probe_id)

    def _finish_load_probe(self, probe_id: int) -> None:
        pending = self._load_probes.pop(probe_id, None)
        if pending is None:
            return
        runtime = self.runtimes.get(pending["instance_id"])
        if runtime is None or runtime.fragment.status is not InstanceStatus.RUNNING:
            return
        loads = pending["loads"]
        assigned = min(loads, key=lambda agent: (loads[agent], agent))
        self._send_step_packets(
            runtime, pending["instance_id"], pending["successor"],
            pending["mechanism"], pending["eligible"], assigned,
        )

    def _build_packet(
        self,
        runtime: AgentRuntime,
        instance_id: str,
        target_step: str,
        mechanism: Mechanism,
        assigned: str,
    ) -> WorkflowPacket:
        fragment = runtime.fragment
        return WorkflowPacket(
            schema_name=fragment.schema_name,
            instance_id=instance_id,
            action="execute",
            target_step=target_step,
            data=dict(fragment.data),
            events=runtime.engine.events.export_versioned(),
            invalidations=dict(runtime.known_invalidations),
            recovery_epoch=fragment.recovery_epoch,
            recovery_origin=None,
            mechanism=mechanism,
            ro_info=tuple(sorted(runtime.ro_info)),
            executors=dict(runtime.executors),
            assigned_agent=assigned,
            parent_link=runtime.parent_link,
        )

    # ------------------------------------------------------------------ loops

    def _fire_loop(self, instance_id: str, rule: RuleInstance) -> None:
        runtime = self.runtimes.get(instance_id)
        if runtime is None or runtime.fragment.status is not InstanceStatus.RUNNING:
            return
        # Only the agent that executed the loop source navigates the loop.
        if runtime.executors.get(rule.step) != self.name:
            return
        runtime.loop_fires[rule.rule_id] += 1
        if runtime.loop_fires[rule.rule_id] > self.config.max_loop_iterations:
            raise SimulationError(
                f"loop {rule.rule_id} exceeded {self.config.max_loop_iterations} "
                f"iterations in {instance_id}"
            )
        body = rule.loop_body
        now = self.simulator.now
        self.trace.record(now, self.name, "loop.iterate",
                          instance=instance_id, rule=rule.rule_id,
                          iteration=runtime.loop_fires[rule.rule_id])
        tokens = invalidation_tokens(body)
        open_invalidation_round(runtime, tokens)
        runtime.engine.invalidate_events(tokens)
        runtime.engine.reset_rules_for_steps(body)
        for member in body:
            record = runtime.fragment.steps.get(member)
            if record is not None and member in runtime.hosted:
                record.status = StepStatus.NOT_STARTED
        target = rule.loop_target
        assert target is not None
        compiled = runtime.compiled
        eligible = self.agdb.eligible_agents(compiled.name, target)
        assigned = self._elect(compiled, instance_id, target)
        packet = self._build_packet(runtime, instance_id, target,
                                    Mechanism.NORMAL, assigned)
        # Loop re-entry: the target's trigger events (predecessors outside
        # the body) are still valid and travel inside the packet.
        for agent in eligible:
            if agent == self.name:
                self._ingest_packet(packet)
            else:
                self.send(agent, WI.STEP_EXECUTE.value, packet.to_payload(),
                          Mechanism.NORMAL)
        runtime.engine.reevaluate()

    # ------------------------------------------------------------------ nested workflows

    def _launch_nested(
        self, runtime: AgentRuntime, instance_id: str, step: str,
        inputs: dict[str, Any],
    ) -> None:
        compiled = runtime.compiled
        step_def = compiled.schema.steps[step]
        child_compiled = self.system.compiled(step_def.subworkflow)
        record = runtime.fragment.record(step)
        record.status = StepStatus.RUNNING
        record.agent = self.name
        record.last_inputs = dict(inputs)
        child_inputs = dict(zip(child_compiled.schema.inputs, inputs.values()))
        child_id = f"{instance_id}.{step}#{record.executions + 1}"
        coordination_agent = self._coordination_agent_of(child_compiled)
        self.trace.record(self.simulator.now, self.name, "nested.start",
                          instance=instance_id, step=step, child=child_id)
        payload = {
            "schema_name": child_compiled.name,
            "instance_id": child_id,
            "inputs": child_inputs,
            "parent_link": [instance_id, step],
        }
        if coordination_agent == self.name:
            self.workflow_start(child_compiled.name, child_id, child_inputs,
                                parent_link=(instance_id, step))
        else:
            self.send(coordination_agent, WI.WORKFLOW_START.value, payload,
                      Mechanism.NORMAL)

    def _on_nested_done(self, message: Message) -> None:
        self._apply_nested_done(message.payload)

    def _apply_nested_done(self, payload: Mapping[str, Any]) -> None:
        parent_id = payload["parent_id"]
        parent_step = payload["parent_step"]
        runtime = self.runtimes.get(parent_id)
        if runtime is None or runtime.fragment.status is not InstanceStatus.RUNNING:
            return
        step_def = runtime.compiled.schema.steps[parent_step]
        child_outputs = payload["outputs"]
        missing = [o for o in step_def.outputs if o not in child_outputs]
        if missing:
            raise SchemaError(
                f"nested workflow for {parent_id}.{parent_step} missing outputs "
                f"{missing}"
            )
        record = runtime.fragment.record(parent_step)
        inputs = record.last_inputs
        outputs = {o: child_outputs[o] for o in step_def.outputs}
        runtime.executors[parent_step] = self.name
        token = record_execution_success(
            runtime.fragment, step_def, inputs, outputs, self.simulator.now,
            self.name,
        )
        self._persist(runtime)
        runtime.engine.post_event(token, self.simulator.now,
                                  runtime.fragment.invalidation_round)
        self._after_step_done(parent_id, parent_step, Mechanism.NORMAL)

    # ------------------------------------------------------------------ state info

    def _on_state_information(self, message: Message) -> None:
        executing = self._local_executing_count()
        self.send(message.src, "StateInformationReply",
                  {"probe_id": message.payload.get("probe_id"), "load": executing},
                  Mechanism.NORMAL)
