"""The central workflow engine node."""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Any, Mapping

from repro.core.ocr import plan_step_action, stale_compensation_chain
from repro.core.recovery import abandoned_branch_compensation
from repro.engines.base import (
    ControlSystem,
    governed_step_count,
    record_execution_failure,
    record_execution_success,
    record_reuse,
)
from repro.engines.centralized.agents import (
    VERB_COMPENSATE_ACK,
    VERB_STATE_INFO_REPLY,
    VERB_STEP_RESULT,
)
from repro.engines.centralized.coordination import EngineCoordinationMixin
from repro.engines.centralized.recovery import EngineRecoveryMixin
from repro.engines.coord import AuthorityBundle, SpecIndex
from repro.engines.runtime import EngineRuntime, InflightStep, ProbeWait
from repro.errors import FrontEndError, SchemaError, SimulationError
from repro.model.coordination_spec import CoordinationSpec
from repro.rules.engine import RuleEngine, RuleInstance
from repro.rules.events import WF_START, step_done
from repro.runtime.metrics import Mechanism
from repro.runtime.messages import Message
from repro.runtime.node import Node
from repro.storage.tables import InstanceStatus, StepStatus
from repro.storage.wfdb import WorkflowDatabase

__all__ = ["CentralEngineNode"]


class CentralEngineNode(EngineCoordinationMixin, EngineRecoveryMixin, Node):
    """The central workflow engine: owns the WFDB and navigates everything."""

    def __init__(self, name: str, system):
        super().__init__(name, system.simulator, system.network)
        self.system = system
        self.config = system.config
        self.wfdb = WorkflowDatabase()
        self.spec_index = SpecIndex()
        self.authorities = AuthorityBundle()
        self.runtimes: dict[str, EngineRuntime] = {}
        self._inflight: dict[tuple[str, str], InflightStep] = {}
        self._probes: dict[int, ProbeWait] = {}
        self._chains: dict[int, Any] = {}
        self._ids = itertools.count(1)
        self._agent_load_view: Counter = Counter()
        self.handlers.update({
            VERB_STEP_RESULT: self._on_step_result,
            VERB_COMPENSATE_ACK: self._on_compensate_ack,
            VERB_STATE_INFO_REPLY: self._on_state_info_reply,
        })

    # ------------------------------------------------------------------ helpers

    def _charge(self, mechanism: Mechanism, units: float = 1.0) -> None:
        self.charge(units, mechanism)

    def add_spec(self, spec: CoordinationSpec) -> None:
        """Install a coordination spec; the engine is its authority."""
        self.spec_index.add(spec)
        self.authorities.host(spec)

    def runtime(self, instance_id: str) -> EngineRuntime:
        try:
            return self.runtimes[instance_id]
        except KeyError:
            raise FrontEndError(f"unknown or finished instance {instance_id!r}") from None

    # ------------------------------------------------------- front-end operations

    def workflow_start(
        self,
        schema_name: str,
        instance_id: str,
        inputs: Mapping[str, Any],
        parent_link: tuple[str, str] | None = None,
    ) -> None:
        """WorkflowStart WI (invoked locally by the front-end database)."""
        compiled = self.system.compiled(schema_name)
        state = self.wfdb.create_instance(schema_name, instance_id, inputs)
        engine = RuleEngine(
            compiled,
            action=lambda rule, iid=instance_id: self._on_rule(iid, rule),
            env_provider=state.env,
            fire_hook=self.system.rule_fire_hook(self.name, instance_id),
        )
        runtime = EngineRuntime(
            state=state,
            compiled=compiled,
            engine=engine,
            governed=governed_step_count(compiled, self.spec_index.specs_for(schema_name)),
            parent_link=parent_link,
        )
        self.runtimes[instance_id] = runtime
        self._install_preconditions(runtime)
        self.emit("workflow.start", instance=instance_id, schema=schema_name,
                  parent=parent_link[0] if parent_link else None)
        self._charge(Mechanism.NORMAL)
        # Mutual-exclusion regions opening at the start step are acquired now.
        for spec in self.spec_index.mx_region_first(schema_name, compiled.start_step):
            self._mx_acquire(runtime, spec)
        engine.post_event(WF_START, self.simulator.now)

    def workflow_status(self, instance_id: str) -> InstanceStatus:
        # Status reads are summary-table lookups; the paper charges no
        # navigation load for them.
        return self.wfdb.status(instance_id)

    # ------------------------------------------------------------ rule actions

    def _on_rule(self, instance_id: str, rule: RuleInstance) -> None:
        if rule.kind == "execute":
            self._begin_step(instance_id, rule.step, rule)
        elif rule.kind == "loop":
            self._fire_loop(instance_id, rule)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"engine cannot run rule kind {rule.kind!r}")

    def _begin_step(
        self, instance_id: str, step: str, rule: RuleInstance | None = None
    ) -> None:
        runtime = self.runtimes.get(instance_id)
        if runtime is None or runtime.state.status is not InstanceStatus.RUNNING:
            return
        compiled = runtime.compiled
        step_def = compiled.schema.steps[step]
        mechanism = runtime.step_mechanism(step)
        self._charge(mechanism)
        if runtime.governed:
            self._charge(Mechanism.COORDINATION, runtime.governed)

        # CompensateThread: entering a different if-then-else branch than the
        # previous execution pass compensates the abandoned branch.  Only a
        # rule triggered by the *split's* completion is a branch entry — a
        # step can simultaneously be a branch head and the confluence of the
        # other branches (it then also has rules fed by those branches).
        split = compiled.branch_first_map.get(step)
        entered_via_split = (
            split is not None
            and (rule is None or step_done(split) in rule.required)
        )
        if split is not None and entered_via_split:
            abandoned = abandoned_branch_compensation(
                compiled, runtime.state, split, step
            )
            if abandoned:
                self.emit("compensate.thread", instance=instance_id, split=split,
                          steps=",".join(abandoned))
                self._compensate_chain(
                    runtime, abandoned, runtime.recovery_mechanism,
                    on_done=lambda: None,
                )

        record = runtime.state.record(step)
        new_inputs = runtime.state.gather_inputs(step_def.inputs)
        policy = compiled.schema.cr_policies.get(step)
        if policy is None:
            from repro.model.policies import DEFAULT_POLICY as policy  # type: ignore[no-redef]
        plan = plan_step_action(step_def, record, new_inputs, policy)
        if plan.decision is not None:
            self.emit("ocr.plan", instance=instance_id, plan=plan)

        if plan.reuse_outputs:
            record.reuses += 0  # updated inside record_reuse
            token = record_reuse(runtime.state, step_def, self.simulator.now)
            self.emit("step.reuse", instance=instance_id, step=step)
            self.wfdb.persist(runtime.state)
            runtime.engine.post_event(token, self.simulator.now)
            self._after_step_done(instance_id, step)
            return

        def proceed() -> None:
            self._launch_execution(
                instance_id, step, plan.execution_cost, mechanism, new_inputs
            )

        if plan.compensate:
            members = compiled.schema.compensation_set_of(step)
            if members is not None:
                # Only members whose done event is *invalid* (their effects
                # belong to the rolled back pass) join the chain; ordering
                # uses their pre-rollback completion times.
                stale_times: dict[str, float] = {}
                for member in members:
                    occurrence = runtime.engine.events.occurrence(step_done(member))
                    record_m = runtime.state.steps.get(member)
                    if (
                        occurrence is not None
                        and not occurrence.valid
                        and record_m is not None
                        and record_m.status is StepStatus.DONE
                    ):
                        stale_times[member] = occurrence.time
                ordered = stale_compensation_chain(members, stale_times, step)
            else:
                ordered = [step]
            self.emit("ocr.compensate", instance=instance_id, step=step,
                      comp=plan.compensation_kind or "-", chain=",".join(ordered))
            partial = {step} if plan.compensation_kind == "partial" else None
            self._compensate_chain(runtime, ordered, mechanism, on_done=proceed,
                                   partial_for=partial)
        else:
            proceed()

    # ------------------------------------------------------------ dispatch

    def _launch_execution(
        self,
        instance_id: str,
        step: str,
        cost: float,
        mechanism: Mechanism,
        inputs: dict[str, Any],
    ) -> None:
        runtime = self.runtimes.get(instance_id)
        if runtime is None or runtime.state.status is not InstanceStatus.RUNNING:
            return
        step_def = runtime.compiled.schema.steps[step]
        if step_def.subworkflow is not None:
            self._launch_nested(runtime, instance_id, step, inputs)
            return
        record = runtime.state.record(step)
        record.status = StepStatus.RUNNING
        attempt = record.executions + 1
        eligible = self.system.assignment.eligible(runtime.state.schema_name, step)
        if len(eligible) > 1:
            probe_id = next(self._ids)
            wait = ProbeWait(
                instance_id=instance_id,
                step=step,
                waiting=set(eligible[1:]),
                loads={eligible[0]: self._agent_load_view[eligible[0]]},
                cost=cost,
                mechanism=mechanism,
                inputs=inputs,
                attempt=attempt,
            )
            self._probes[probe_id] = wait
            for agent in eligible[1:]:
                self.send(
                    agent,
                    "StateInformation",
                    {"probe_id": probe_id, "mechanism": mechanism.value},
                    mechanism,
                )
        else:
            self._send_execute(instance_id, step, eligible[0], cost, mechanism,
                               inputs, attempt)

    def _on_state_info_reply(self, message: Message) -> None:
        probe_id = message.payload["probe_id"]
        wait = self._probes.get(probe_id)
        if wait is None:
            return
        wait.waiting.discard(message.src)
        wait.loads[message.src] = message.payload["load"]
        if wait.waiting:
            return
        del self._probes[probe_id]
        agent = min(wait.loads, key=lambda a: (wait.loads[a], a))
        self._send_execute(
            wait.instance_id, wait.step, agent, wait.cost, wait.mechanism,
            wait.inputs, wait.attempt,
        )

    def _retire_probes(self, instance_id: str, steps: frozenset[str] | None = None) -> None:
        """Forget the instance's pending load probes (those of ``steps``
        only, on a rollback): their replies must not dispatch a step that
        was halted."""
        self._probes = {
            probe_id: wait for probe_id, wait in self._probes.items()
            if wait.instance_id != instance_id
            or (steps is not None and wait.step not in steps)
        }

    def _send_execute(
        self,
        instance_id: str,
        step: str,
        agent: str,
        cost: float,
        mechanism: Mechanism,
        inputs: dict[str, Any],
        attempt: int,
        retry: int = 1,
    ) -> None:
        runtime = self.runtimes.get(instance_id)
        if runtime is None or runtime.state.status is not InstanceStatus.RUNNING:
            return
        record = runtime.state.record(step)
        record.agent = agent
        self._inflight[(instance_id, step)] = InflightStep(
            epoch=runtime.state.recovery_epoch,
            inputs=inputs,
            attempt=attempt,
            mechanism=mechanism,
            agent=agent,
            cost=cost,
        )
        self._agent_load_view[agent] += 1
        self.emit("step.dispatch", instance=instance_id, step=step, agent=agent,
                  epoch=runtime.state.recovery_epoch, attempt=attempt,
                  mechanism=mechanism.value)
        self.send(
            agent,
            "StepExecute",
            {
                "instance_id": instance_id,
                "schema_name": runtime.state.schema_name,
                "step": step,
                "inputs": inputs,
                "attempt": attempt,
                "cost": cost,
                "epoch": runtime.state.recovery_epoch,
                "mechanism": mechanism.value,
            },
            mechanism,
        )
        if self.system.faults is not None:
            self._arm_step_watchdog(
                instance_id, step, runtime.state.recovery_epoch, retry
            )

    # ------------------------------------------------------------ step-retry watchdog

    #: Watchdog re-arms before giving up on a step whose executors never
    #: answer; bounded so a hostile fault plan cannot keep the simulation
    #: alive forever (the wedged instance then surfaces as a liveness
    #: violation instead).
    MAX_STEP_RETRIES = 25

    def _arm_step_watchdog(
        self, instance_id: str, step: str, epoch: int, retry: int
    ) -> None:
        """Under fault injection, dispatched steps get a timeout: in-flight
        work on a crashed application agent is volatile and would otherwise
        wedge the instance (the reliable-transport assumption only covers
        messages, not the agent's work)."""
        self.simulator.schedule(
            self.config.step_status_timeout, self._step_watchdog,
            instance_id, step, epoch, retry,
        )

    def _step_watchdog(
        self, instance_id: str, step: str, epoch: int, retry: int
    ) -> None:
        if not self.is_up:
            return  # a recovered engine re-dispatches via rule re-firing
        inflight = self._inflight.get((instance_id, step))
        runtime = self.runtimes.get(instance_id)
        if (
            self._invalidated(inflight, epoch)
            or runtime is None
            or runtime.state.status is not InstanceStatus.RUNNING
        ):
            return  # completed, rolled back, or finished in the meantime
        if retry > self.MAX_STEP_RETRIES:
            self.emit("step.retry_exhausted", instance=instance_id, step=step)
            return
        eligible = self.system.assignment.eligible(runtime.state.schema_name, step)
        agent = next((a for a in eligible if self.network.is_up(a)), None)
        if agent is None:
            # Every eligible agent is down: wait for a recovery.
            self.simulator.schedule(
                self.config.step_status_poll_interval, self._step_watchdog,
                instance_id, step, epoch, retry + 1,
            )
            return
        self.emit("step.redispatch", instance=instance_id, step=step, agent=agent,
                  was=inflight.agent, retry=retry)
        self._agent_load_view[inflight.agent] -= 1
        del self._inflight[(instance_id, step)]
        # Re-dispatch (a late duplicate result is discarded by the
        # stale-result guard once the retried execution's result lands
        # first — the inflight record is popped, keeping commits
        # at-most-once).
        self._send_execute(
            instance_id, step, agent, inflight.cost, inflight.mechanism,
            inflight.inputs, inflight.attempt, retry=retry + 1,
        )

    @staticmethod
    def _invalidated(inflight: InflightStep | None, epoch: int) -> bool:
        """Whether the dispatch at ``epoch`` this record stood for no longer
        counts: a rollback over its step retired the record, a re-dispatch
        replaced it, or an abort of its instance halted it.  A rollback
        elsewhere in the instance leaves it current."""
        return inflight is None or inflight.halted or inflight.epoch != epoch

    def _on_step_result(self, message: Message) -> None:
        payload = message.payload
        instance_id, step = payload["instance_id"], payload["step"]
        key = (instance_id, step)
        inflight = self._inflight.get(key)
        runtime = self.runtimes.get(instance_id)
        if runtime is None or self._invalidated(inflight, payload["epoch"]):
            # Stale result: discard.  A rollback that invalidated it already
            # reset the step's status, and an abort ends the instance.
            self.emit("step.stale_result", instance=instance_id, step=step)
            return
        del self._inflight[key]
        self._agent_load_view[inflight.agent] -= 1
        state = runtime.state
        step_def = runtime.compiled.schema.steps[step]
        if payload["success"]:
            token = record_execution_success(
                state, step_def, inflight.inputs, payload["outputs"],
                self.simulator.now, inflight.agent,
            )
            self.emit("step.done", instance=instance_id, step=step)
            self.wfdb.persist(state)
            runtime.engine.post_event(token, self.simulator.now)
            self._after_step_done(instance_id, step)
        else:
            token = record_execution_failure(
                state, step_def, inflight.inputs, self.simulator.now, inflight.agent
            )
            self.emit("step.fail", instance=instance_id, step=step,
                      error=payload.get("error") or "-")
            self.wfdb.persist(state)
            runtime.engine.post_event(token, self.simulator.now)
            self._handle_failure(instance_id, step)

    # ------------------------------------------------------------ nested workflows

    def _launch_nested(
        self, runtime: EngineRuntime, instance_id: str, step: str, inputs: dict[str, Any]
    ) -> None:
        step_def = runtime.compiled.schema.steps[step]
        child_schema = self.system.compiled(step_def.subworkflow)
        record = runtime.state.record(step)
        record.status = StepStatus.RUNNING
        child_values = list(inputs.values())
        child_inputs = dict(zip(child_schema.schema.inputs, child_values))
        child_id = f"{instance_id}.{step}#{record.executions + 1}"
        self.emit("nested.start", instance=instance_id, step=step, child=child_id)
        self.workflow_start(
            child_schema.name, child_id, child_inputs,
            parent_link=(instance_id, step),
        )

    def _on_nested_done(
        self, parent_id: str, parent_step: str, child_outputs: Mapping[str, Any]
    ) -> None:
        runtime = self.runtimes.get(parent_id)
        if runtime is None:
            return
        step_def = runtime.compiled.schema.steps[parent_step]
        missing = [o for o in step_def.outputs if o not in child_outputs]
        if missing:
            raise SchemaError(
                f"nested workflow for {parent_id}.{parent_step} did not produce "
                f"outputs {missing}"
            )
        record = runtime.state.record(parent_step)
        inputs = record.last_inputs or runtime.state.gather_inputs(step_def.inputs)
        outputs = {o: child_outputs[o] for o in step_def.outputs}
        token = record_execution_success(
            runtime.state, step_def, inputs, outputs, self.simulator.now, self.name
        )
        self.emit("nested.done", instance=parent_id, step=parent_step)
        self.wfdb.persist(runtime.state)
        runtime.engine.post_event(token, self.simulator.now)
        self._after_step_done(parent_id, parent_step)

    # ------------------------------------------------------------ after-done hooks

    def _after_step_done(self, instance_id: str, step: str) -> None:
        runtime = self.runtimes.get(instance_id)
        if runtime is None or runtime.state.status is not InstanceStatus.RUNNING:
            return
        compiled = runtime.compiled
        self._coord_on_step_done(runtime, step)

        # Termination: terminal steps report unless a loop continues.
        if step in compiled.terminal_steps and not runtime.loop_continues(step):
            runtime.reported.add(step)
            if compiled.commit_ready(runtime.reported):
                self._commit(instance_id)

    # ------------------------------------------------------------ commit

    def _commit(self, instance_id: str) -> None:
        runtime = self.runtimes.pop(instance_id, None)
        if runtime is None:
            return
        self.wfdb.set_status(instance_id, InstanceStatus.COMMITTED)
        outputs = ControlSystem.workflow_outputs(runtime.compiled, runtime.state)
        self._release_coordination(runtime, aborted=False)
        self.emit("workflow.commit", instance=instance_id,
                  schema=runtime.state.schema_name, outputs=outputs)
        if runtime.parent_link is not None:
            parent_id, parent_step = runtime.parent_link
            self._on_nested_done(parent_id, parent_step, outputs)
        self.wfdb.archive(instance_id)

    # ------------------------------------------------------------ crash/recovery

    def on_crash(self) -> None:
        """Engine crash loses volatile rule engines; WFDB WAL survives."""
        self.runtimes.clear()
        self._inflight.clear()
        self._probes.clear()
        self._chains.clear()

    def on_recover(self) -> None:
        """Forward recovery: rebuild instance tables from the WAL.

        Rule-engine state is reconstructed from the recovered event history
        recorded in step records; in-flight executions at crash time are
        re-dispatched by re-firing their rules.
        """
        restored = self.wfdb.recover()
        # Recorded before the rules re-fire: what they re-dispatch follows it.
        self.emit("engine.recovered", instances=restored)
        for state in list(self.wfdb.instances()):
            if state.status is not InstanceStatus.RUNNING:
                continue
            compiled = self.system.compiled(state.schema_name)
            engine = RuleEngine(
                compiled,
                action=lambda rule, iid=state.instance_id: self._on_rule(iid, rule),
                env_provider=state.env,
                fire_hook=self.system.rule_fire_hook(self.name, state.instance_id),
            )
            runtime = EngineRuntime(
                state=state,
                compiled=compiled,
                engine=engine,
                governed=governed_step_count(
                    compiled, self.spec_index.specs_for(state.schema_name)
                ),
            )
            self.runtimes[state.instance_id] = runtime
            self._install_preconditions(runtime)
            # Replay history into the event table without re-running actions:
            # mark done steps' rules as fired by posting their events after
            # pre-marking records.  RUNNING steps (in flight at crash) are
            # reset so their rules re-fire and re-dispatch.
            for record in state.steps.values():
                if record.status is StepStatus.RUNNING:
                    record.status = StepStatus.NOT_STARTED
            self._coord_on_recover(runtime)
            engine.post_event(WF_START, self.simulator.now)
