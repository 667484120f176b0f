"""Agent failure detection and repair (paper Section 6).

Step failures route a WorkflowRollback() to the rollback origin's agent
(or an UnhandledFailure abort to the coordination agent).  Crashed-peer
handling uses StepStatus polling, eligible-peer watchdogs (query steps
relocate via :func:`elect_executor`; update steps wait for recovery) and
the paper's chain-of-probe status location.  Terminal instances are
garbage-collected with a batched purge broadcast.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.interfaces import WI
from repro.core.programs import program_stream_name
from repro.engines.distributed.navigation import elect_executor
from repro.engines.runtime import member_done_times
from repro.model.schema import StepType
from repro.obs.profile import profiled
from repro.rules.events import step_done
from repro.runtime.metrics import Mechanism
from repro.runtime.messages import Message
from repro.storage.tables import InstanceStatus, StepStatus

__all__ = [
    "AgentFailureMixin",
    "PURGE_BATCH",
    "VERB_PURGE",
    "VERB_STATUS_PROBE",
    "VERB_STATUS_PROBE_REPORT",
    "VERB_STEP_STATUS_REPLY",
    "VERB_UNHANDLED_FAILURE",
]

VERB_STEP_STATUS_REPLY = "StepStatusReply"
VERB_STATUS_PROBE = "WorkflowStatusProbe"
VERB_STATUS_PROBE_REPORT = "WorkflowStatusProbeReport"
VERB_PURGE = "PurgeNotice"
VERB_UNHANDLED_FAILURE = "UnhandledFailure"

#: A coordination agent broadcasts its terminal ids as soon as it holds
#: this many, whatever the purge timer says: what every agent keeps for
#: finished instances is bounded by a count at any arrival rate, and a
#: saturated coordinator pays (agents - 1) / PURGE_BATCH messages per
#: instance for it.
PURGE_BATCH = 32


class AgentFailureMixin:
    """Failure-handling behavior of :class:`~repro.engines.distributed.WorkflowAgentNode`."""

    # ------------------------------------------------------------------ step failure

    @profiled("recovery.ocr")
    def _handle_failure(self, instance_id: str, failed_step: str) -> None:
        runtime = self.runtimes.get(instance_id)
        if runtime is None:
            return
        compiled = runtime.compiled
        origin = compiled.schema.rollback_origin(failed_step)
        if origin is None:
            # Unhandled failure: tell the coordination agent to abort.
            coordination_agent = self._coordination_agent_of(compiled)
            payload = {
                "schema_name": compiled.name,
                "instance_id": instance_id,
                "failed_step": failed_step,
                "executors": dict(runtime.executors),
                "done_times": member_done_times(
                    runtime.engine, runtime.fragment,
                    compiled.schema.steps,
                ),
            }
            self._invoke(coordination_agent, VERB_UNHANDLED_FAILURE, payload,
                         Mechanism.FAILURE)
            return
        new_epoch = runtime.fragment.recovery_epoch + 1
        target = runtime.executors.get(origin) or self._elect(
            compiled, instance_id, origin
        )
        payload = {
            "schema_name": compiled.name,
            "instance_id": instance_id,
            "origin": origin,
            "failed_step": failed_step,
            "epoch": new_epoch,
            "mechanism": Mechanism.FAILURE.value,
        }
        self.emit("rollback.request", instance=instance_id, origin=origin,
                  target=target)
        self._invoke(target, WI.WORKFLOW_ROLLBACK.value, payload, Mechanism.FAILURE)

    def _apply_unhandled_failure(self, payload: Mapping[str, Any]) -> None:
        """Coordination agent aborts after an unhandled step failure,
        compensating every reported executed step in reverse order."""
        instance_id = payload["instance_id"]
        tracker = self.trackers.get(instance_id)
        if tracker is None or tracker.finished:
            return
        runtime = self.runtimes.get(instance_id)
        compiled = self.system.compiled(payload["schema_name"])
        schema = compiled.schema
        tracker.executors.update(payload["executors"])
        done_times = dict(payload["done_times"])
        ordered = [
            step
            for step in sorted(done_times, key=lambda s: -done_times[s])
            if schema.steps[step].compensable
        ]
        # Halt every thread first: the probes invalidate all completions, and
        # the compensation chain carries those invalidations so hop agents
        # see the staleness regardless of message arrival order.
        epoch = None if runtime is None else runtime.fragment.recovery_epoch + 1
        self.emit("failure.unhandled", instance=instance_id,
                  step=payload["failed_step"], epoch=epoch)
        invalidations: dict[str, int] = {}
        if runtime is not None:
            runtime.fragment.recovery_epoch = epoch
            self._halt_from(runtime, instance_id, compiled.start_step, epoch,
                            Mechanism.FAILURE, include_origin_agent=True)
            invalidations = dict(runtime.known_invalidations)
        if ordered:
            # Saga-style default: compensate everything executed in strict
            # reverse execution order via a CompensateThread chain.
            self._walk_compensation(WI.COMPENSATE_THREAD.value, {
                "schema_name": schema.name,
                "instance_id": instance_id,
                "step_list": ordered,
                "mechanism": Mechanism.FAILURE.value,
                "executors": dict(tracker.executors),
                "invalidations": invalidations,
            })
        tracker.finished = True
        self.agdb.set_summary(instance_id, InstanceStatus.ABORTED)
        if runtime is not None:
            runtime.fragment.status = InstanceStatus.ABORTED
            self._persist(runtime)
        self._withdraw_coordination(instance_id, runtime, aborted=True)
        self.emit("failure.aborted", instance=instance_id, schema=schema.name,
                  outputs={})
        self._queue_purge(instance_id, aborted=True)

    # ------------------------------------------------------------------ step-status polling

    def _on_step_status(self, message: Message) -> None:
        """StepStatus WI: report what this agent knows about a step."""
        payload = message.payload
        instance_id = payload["instance_id"]
        step = payload["step"]
        status = "unknown"
        if self.agdb.has_fragment(instance_id):
            runtime = self._runtime(payload["schema_name"], instance_id)
            record = runtime.fragment.steps.get(step)
            if record is None:
                status = "not_executed"
            elif record.status is StepStatus.RUNNING:
                status = "executing" if record.agent == self.name else "unknown"
            elif record.status is StepStatus.DONE and record.agent == self.name:
                status = "done"
                # Repair: re-send the packet flow for the requester.
                self._navigate(runtime, instance_id, step,
                               Mechanism.FAILURE, only_to=message.src)
            else:
                status = "not_executed"
        self.send(
            message.src,
            VERB_STEP_STATUS_REPLY,
            {"instance_id": instance_id, "step": step, "status": status},
            Mechanism.FAILURE,
        )

    def _apply_step_status_reply(self, payload: Mapping[str, Any]) -> None:
        # Replies are informational; the packet resend (when status=done)
        # repairs the flow.  Recorded for tests/observability.
        self.emit("step.status_reply", instance=payload["instance_id"],
                  step=payload["step"], status=payload["status"])

    def poll_step_status(self, schema_name: str, instance_id: str, step: str) -> None:
        """Poll the eligible agents of ``step`` (paper's predecessor-failure
        handling for pending rules that time out)."""
        for agent in self.agdb.eligible_agents(schema_name, step):
            if agent == self.name:
                continue
            self.send(agent, WI.STEP_STATUS.value,
                      {"schema_name": schema_name, "instance_id": instance_id,
                       "step": step}, Mechanism.FAILURE)

    # ------------------------------------------------------------------ status probes

    def workflow_status_probe(self, instance_id: str) -> int:
        """Launch the paper's probe chain to locate a workflow's current steps.

        "To determine which step of a workflow is being performed at a
        given instant, a chain of probe messages has to be sent starting
        from the agent responsible for performing the first step until the
        message reaches the agent that is performing the current step."

        Returns the probe id; reports accumulate in ``probe_reports``.
        """
        probe_id = next(self._probe_ids)
        if self._purged_late(instance_id, VERB_STATUS_PROBE):
            return probe_id
        self._probe_reports.setdefault(instance_id, [])
        self._apply_status_probe({
            "instance_id": instance_id,
            "probe_id": probe_id,
            "origin": self.name,
        })
        return probe_id

    def probe_reports(self, instance_id: str) -> list[dict]:
        """Reports received so far for probes of ``instance_id``."""
        return list(self._probe_reports.get(instance_id, []))

    def _apply_status_probe(self, payload: dict[str, Any]) -> None:
        instance_id = payload["instance_id"]
        seen = self._seen_status_probes.setdefault(instance_id, set())
        if payload["probe_id"] in seen:
            return
        seen.add(payload["probe_id"])
        runtime = self.runtimes.get(instance_id)
        if runtime is None:
            return
        running = sorted(
            record.step
            for record in runtime.fragment.steps.values()
            if record.status is StepStatus.RUNNING and record.agent == self.name
        )
        waiting = sorted(
            rule.step
            for rule in runtime.engine.pending_rules()
            if rule.kind == "execute" and rule.step in runtime.hosted
        )
        if running or waiting:
            report = {
                "instance_id": instance_id,
                "probe_id": payload["probe_id"],
                "agent": self.name,
                "running": running,
                "waiting": waiting,
            }
            self._invoke(payload["origin"], VERB_STATUS_PROBE_REPORT, report,
                         Mechanism.NORMAL)
        # Chain onward through the steps this agent executed and forwarded.
        compiled = runtime.compiled
        targets: set[str] = set()
        for step in runtime.forwarded:
            for successor in compiled.graph.successors(step):
                for agent in self.agdb.eligible_agents(compiled.name, successor):
                    if agent != self.name:
                        targets.add(agent)
        for agent in sorted(targets):
            self.send(agent, VERB_STATUS_PROBE, dict(payload), Mechanism.NORMAL)

    def _apply_status_probe_report(self, report: dict[str, Any]) -> None:
        self._probe_reports.setdefault(report["instance_id"], []).append(report)
        self.emit("status.probe_report", instance=report["instance_id"],
                  agent=report["agent"],
                  running=",".join(report["running"]) or "-",
                  waiting=",".join(report["waiting"]) or "-")

    # ------------------------------------------------------------------ watchdogs

    def _watchdog(self, instance_id: str, step: str) -> None:
        """Eligible-peer watchdog: take over a query step whose assigned
        executor crashed; wait (re-arming) for update steps."""
        runtime = self.runtimes.get(instance_id)
        if runtime is None or runtime.fragment.status is not InstanceStatus.RUNNING:
            return
        runtime.drop("watchdogs", step)
        if step_done(step) in runtime.engine.events:
            return  # completed normally
        record = runtime.fragment.steps.get(step)
        if record is not None and record.status in (StepStatus.DONE, StepStatus.RUNNING):
            return
        assigned = runtime.assigned.get(step)
        if assigned is None or assigned == self.name:
            return
        if self.network.is_up(assigned):
            return  # executor alive: reliable messaging will get it done
        compiled = runtime.compiled
        step_def = compiled.schema.steps[step]
        if step_def.step_type is StepType.UPDATE:
            # "the successor agent has to wait for the failed agent to come
            # up" — re-arm the watchdog until it recovers.
            runtime.table("watchdogs")[step] = assigned
            self.simulator.schedule(
                self.config.step_status_poll_interval, self._watchdog,
                instance_id, step,
            )
            return
        # Query step: deterministic takeover by the first *up* eligible agent.
        eligible = self.agdb.eligible_agents(compiled.name, step)
        takeover = elect_executor(eligible, compiled.name, instance_id, step,
                                  is_up=self.network.is_up)
        if takeover != self.name:
            return
        # Only take over if the step's rule actually fired here (we have the
        # trigger events) — otherwise keep waiting for state.
        rules = runtime.engine.rules_for_step(step)
        if not any(rule.fired for rule in rules):
            runtime.table("watchdogs")[step] = assigned
            self.simulator.schedule(
                self.config.step_status_poll_interval, self._watchdog,
                instance_id, step,
            )
            return
        self.emit("step.takeover", instance=instance_id, step=step, was=assigned)
        runtime.assigned[step] = self.name
        self._execute_step(instance_id, step)

    # ------------------------------------------------------------------ purge

    def _queue_purge(self, instance_id: str, aborted: bool = False) -> None:
        """Coordination agent: a terminal instance enters the next purge
        broadcast — sent when :data:`PURGE_BATCH` ids wait or the purge
        timer fires, whichever is first."""
        interval = self.config.purge_interval
        if interval is None:
            return
        if aborted:
            # The compensation and halt chains of the abort are still
            # hopping from agent to agent, and a purge that overtook one
            # would drop the fragment saying what to compensate: the id
            # joins the batch an interval from now.
            self.simulator.schedule(interval, self._queue_purge, instance_id)
            return
        self._purge_pending.append(instance_id)
        if len(self._purge_pending) == PURGE_BATCH:
            # Its own event, not a call: the stack above still holds the
            # runtime of the instance that filled the batch.
            if self._purge_timer is not None:
                self._purge_timer.cancel()
            self._purge_timer = self.simulator.schedule(0.0, self._broadcast_purge)
        elif self._purge_timer is None:
            self._purge_timer = self.simulator.schedule(interval, self._broadcast_purge)

    def _broadcast_purge(self) -> None:
        self._purge_timer = None
        batch, self._purge_pending = self._purge_pending, []
        if not batch:
            return
        payload = {"instance_ids": batch}
        for agent in self.system.agent_names():
            self._invoke(agent, VERB_PURGE, payload, Mechanism.NORMAL)
        self.emit("purge.broadcast", count=len(batch))

    def _apply_purge(self, payload: Mapping[str, Any]) -> None:
        self._retire(list(payload["instance_ids"]))

    def _retire(self, instance_ids: list[str]) -> None:
        """Forget everything this agent holds for terminal instances: the
        fragment with its log chain, the rule engine, the commit tracker,
        probe bookkeeping, what its hosted authorities registered, and a
        ``prog:`` stream a step that outran the outcome re-created.  What
        stays per instance is its id among the purged and, where this
        agent coordinated it, the summary row."""
        self.agdb.purge_instances(instance_ids)
        self.emit("instances.retired", instances=instance_ids)
        for instance_id in instance_ids:
            runtime = self.runtimes.pop(instance_id, None)
            if runtime is not None:
                self.system.rng.retire(
                    program_stream_name(instance_id, step) for step in runtime.hosted
                )
            self.trackers.pop(instance_id, None)
            self._probe_reports.pop(instance_id, None)
            self._seen_status_probes.pop(instance_id, None)
            self._withdraw_from_authorities(instance_id)
