"""Parallel workflow control: several central engines sharing the load.

"A parallel workflow control architecture is an extension of the
centralized architecture where several central engines work in parallel to
share the load of workflow scheduling. ... Each workflow instance however
is controlled by only one workflow engine."  (paper, Sections 4 and 6)

Normal execution, failure handling, aborts and input changes are exactly
the centralized mechanisms, run by the instance's *owner* engine against
the shared agent pool — which is why Table 5's message rows equal Table 4
and its load rows are the centralized loads divided by ``e``.

Coordinated execution is where parallel control pays: conflicting
instances may live on different engines, so every governed-step event
(completions, lock requests/releases, rollback-dependency triggers) is
**broadcast to all engines** and each engine maintains a replica of the
coordination state, granting clearances to the instances it owns.  That
is the paper's ``(me+ro+rd)·e·s`` message term.  Replica convergence is
timestamp-based: all ordering decisions use the originating simulation
time with the instance id as tie-breaker, and mutual-exclusion grants are
deferred by two network latencies so that any earlier-stamped in-flight
request is accounted for before a grant is issued (Lamport-style mutual
exclusion).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Hashable, Mapping

from repro.core.coordination import (
    RelativeOrderAuthority,
    RollbackDependencyAuthority,
    mx_clearance_token,
)
from repro.engines.base import ControlSystem, SystemConfig
from repro.engines.centralized import ApplicationAgentNode, CentralEngineNode
from repro.engines.coord import SpecIndex
from repro.engines.runtime import EngineRuntime
from repro.errors import FrontEndError, SchemaError
from repro.model.compiler import CompiledSchema
from repro.model.coordination_spec import CoordinationSpec
from repro.runtime.metrics import Mechanism
from repro.runtime.messages import Message
from repro.storage.tables import InstanceStatus

__all__ = ["ParallelControlSystem", "ParallelEngineNode", "TimestampMutex"]

VERB_COORD_OP = "AddEvent"  # engine-to-engine coordination broadcast verb


class TimestampMutex:
    """Replicated timestamp-ordered lock (Lamport mutual exclusion).

    Every engine applies the same request/release broadcasts; the holder is
    the earliest-stamped outstanding requester, so all replicas agree
    without a central lock manager.  Only outstanding requests are kept:
    a release forgets its instance, so a later request (a region
    re-executed after rollback) takes effect with its new stamp, and a
    repeated request keeps the first stamp.
    """

    def __init__(self) -> None:
        #: Outstanding requests as ``(stamp, instance, schema)``, sorted.
        self._queue: list[tuple[Any, str, str]] = []

    def request(self, stamp: Any, schema: str, instance: str) -> None:
        if all(entry[1] != instance for entry in self._queue):
            bisect.insort(self._queue, (stamp, instance, schema))

    def release(self, instance: str) -> None:
        self._queue = [entry for entry in self._queue if entry[1] != instance]

    def holder(self) -> tuple[str, str] | None:
        if not self._queue:
            return None
        __, instance, schema = self._queue[0]
        return (schema, instance)

    def waiting(self) -> int:
        return len(self._queue)


@dataclass
class _CoordReplica:
    """Per-engine replica of the global coordination state."""

    ro: dict[str, RelativeOrderAuthority] = field(default_factory=dict)
    #: ``(spec name, conflict key value)`` -> a mutex somebody waits on.
    mx: dict[tuple[str, Hashable], TimestampMutex] = field(default_factory=dict)
    rd: dict[str, RollbackDependencyAuthority] = field(default_factory=dict)

    def mx_release(self, lock: tuple[str, Hashable], instance: str) -> None:
        """Release, and forget the mutex once nobody waits on it."""
        mutex = self.mx.get(lock)
        if mutex is not None:
            mutex.release(instance)
            if not mutex.waiting():
                del self.mx[lock]


class ParallelEngineNode(CentralEngineNode):
    """A central engine participating in a parallel deployment."""

    def __init__(self, name: str, system: "ParallelControlSystem"):
        super().__init__(name, system)
        self.replica = _CoordReplica()
        self._mx_granted: set[tuple[str, str]] = set()  # (spec, instance)
        self.handlers[VERB_COORD_OP] = self._on_coord_op

    # -- plumbing ---------------------------------------------------------------

    def _peers(self) -> list[str]:
        return [n for n in self.system.engine_nodes() if n != self.name]

    def _owns(self, instance_id: str) -> bool:
        return self.system.owner_of(instance_id) == self.name

    def _broadcast(self, payload: dict[str, Any]) -> None:
        """Send a coordination op to every peer engine and apply locally."""
        peers = self._peers()
        for peer in peers:
            self.send(peer, VERB_COORD_OP, payload, Mechanism.COORDINATION)
        self.system.obs_coordination(
            payload.get("instance"), self.name, self.simulator.now,
            f"broadcast.{payload['op']}", spec_name=payload.get("spec"),
            peers=len(peers),
        )
        self._apply_coord_op(payload)

    def _on_coord_op(self, message: Message) -> None:
        self._charge(Mechanism.COORDINATION)
        self._apply_coord_op(dict(message.payload))

    # -- overridden coordination hooks ---------------------------------------------

    def _coord_on_step_done(self, runtime: EngineRuntime, step: str) -> None:
        schema_name = runtime.state.schema_name
        instance_id = runtime.state.instance_id
        now = self.simulator.now
        for spec, pair_index in self.spec_index.ro_roles(schema_name, step):
            key = SpecIndex.conflict_key_value(spec, runtime.state)
            self._broadcast({
                "op": "ro_report",
                "spec": spec.name,
                "schema": schema_name,
                "instance": instance_id,
                "pair_index": pair_index,
                "key": key,
                "time": now,
            })
        for spec in self.spec_index.mx_region_last(schema_name, step):
            self._mx_release(runtime, spec)
        for successor in runtime.compiled.graph.successors(step):
            for spec in self.spec_index.mx_region_first(schema_name, successor):
                self._mx_acquire(runtime, spec)
        for spec in self.spec_index.rd_targets(schema_name, step):
            key = SpecIndex.conflict_key_value(spec, runtime.state)
            self._broadcast({
                "op": "rd_report",
                "spec": spec.name,
                "instance": instance_id,
                "key": key,
            })

    def _coord_on_recover(self, runtime: EngineRuntime) -> None:
        # Tokens recorded as delivered died with the volatile event table;
        # forget them so the holder check re-delivers after re-acquisition.
        instance_id = runtime.state.instance_id
        for spec in self.spec_index.mx_specs(runtime.state.schema_name):
            self._mx_granted.discard((spec.name, instance_id))
        super()._coord_on_recover(runtime)

    def _mx_acquire(self, runtime: EngineRuntime, spec: CoordinationSpec) -> None:
        current = runtime.mx_state.get(spec.name, "none")
        if current in ("requested", "held"):
            return
        runtime.mx_state[spec.name] = "requested"
        key = SpecIndex.conflict_key_value(spec, runtime.state)
        self._broadcast({
            "op": "mx_request",
            "spec": spec.name,
            "schema": runtime.state.schema_name,
            "instance": runtime.state.instance_id,
            "key": key,
            "time": self.simulator.now,
        })

    def _mx_release(self, runtime: EngineRuntime, spec: CoordinationSpec) -> None:
        if runtime.mx_state.get(spec.name) not in ("held", "requested"):
            return
        runtime.mx_state[spec.name] = "released"
        key = SpecIndex.conflict_key_value(spec, runtime.state)
        self._broadcast({
            "op": "mx_release",
            "spec": spec.name,
            "instance": runtime.state.instance_id,
            "key": key,
        })

    def _coord_on_rollback(self, runtime: EngineRuntime, inval_steps) -> None:
        state = runtime.state
        for spec in self.spec_index.rd_triggers(state.schema_name):
            if spec.trigger_step_a not in inval_steps:
                continue
            key = SpecIndex.conflict_key_value(spec, state)
            self._broadcast({
                "op": "rd_trigger",
                "spec": spec.name,
                "instance": state.instance_id,
                "key": key,
            })

    def _release_coordination(self, runtime: EngineRuntime, aborted: bool) -> None:
        schema_name = runtime.state.schema_name
        for spec in self.spec_index.mx_specs(schema_name):
            self._mx_release(runtime, spec)
        self._broadcast({
            "op": "withdraw",
            "instance": runtime.state.instance_id,
            "aborted": aborted,
        })

    # -- replica application -----------------------------------------------------------

    def _apply_coord_op(self, payload: Mapping[str, Any]) -> None:
        op = payload["op"]
        if op == "ro_report":
            self._apply_ro_report(payload)
        elif op == "mx_request":
            lock = (payload["spec"], payload["key"])
            if lock not in self.replica.mx:
                self.replica.mx[lock] = TimestampMutex()
            self.replica.mx[lock].request(
                (payload["time"], payload["instance"]),
                payload["schema"],
                payload["instance"],
            )
            self._schedule_mx_check(payload["spec"], payload["key"])
        elif op == "mx_release":
            self.replica.mx_release((payload["spec"], payload["key"]),
                                    payload["instance"])
            self._mx_granted.discard((payload["spec"], payload["instance"]))
            self._schedule_mx_check(payload["spec"], payload["key"])
        elif op == "rd_report":
            replica = self._rd_replica(payload["spec"])
            replica.report_target_executed(payload["instance"], payload["key"])
        elif op == "rd_trigger":
            replica = self._rd_replica(payload["spec"])
            spec = next(s for s in self.spec_index.rd if s.name == payload["spec"])
            for dependent in replica.dependents_of(payload["instance"], payload["key"]):
                if self._owns(dependent) and dependent in self.runtimes:
                    self.trace.record(self.simulator.now, self.name,
                                      "rollback.dependency",
                                      trigger=payload["instance"],
                                      dependent=dependent, spec=spec.name)
                    self._rollback(
                        dependent, spec.rollback_to_b, Mechanism.FAILURE, from_rd=True
                    )
        elif op == "withdraw":
            instance = payload["instance"]
            for replica in self.replica.rd.values():
                replica.withdraw(instance)
            for authority in self.replica.ro.values():
                if payload.get("aborted"):
                    for grant in authority.withdraw(instance):
                        if self._owns(grant.instance):
                            self._deliver_grant(grant.instance, grant.token)
                else:
                    authority.retire(instance)
        else:  # pragma: no cover - defensive
            raise FrontEndError(f"unknown coordination op {op!r}")

    def _ro_replica(self, spec_name: str) -> RelativeOrderAuthority:
        replica = self.replica.ro.get(spec_name)
        if replica is None:
            spec = next(s for s in self.spec_index.ro if s.name == spec_name)
            replica = RelativeOrderAuthority(spec)
            self.replica.ro[spec_name] = replica
        return replica

    def _rd_replica(self, spec_name: str) -> RollbackDependencyAuthority:
        replica = self.replica.rd.get(spec_name)
        if replica is None:
            spec = next(s for s in self.spec_index.rd if s.name == spec_name)
            replica = RollbackDependencyAuthority(spec)
            self.replica.rd[spec_name] = replica
        return replica

    def _apply_ro_report(self, payload: Mapping[str, Any]) -> None:
        authority = self._ro_replica(payload["spec"])
        instance = payload["instance"]
        grants = authority.report_completion(
            payload["schema"],
            instance,
            payload["pair_index"],
            payload["key"],
            order_key=(payload["time"], instance),
        )
        # Registration: the owner engine queues clearances for the
        # remaining pairs of its own instance — deferred by two broadcast
        # latencies so an earlier-stamped registration broadcast still in
        # flight settles leadership first.
        if payload["pair_index"] == 0 and self._owns(instance):
            self.schedule_causal(
                2 * self.config.latency + 0.001,
                self._ro_request_clearances,
                payload["spec"], payload["schema"], instance, payload["key"],
            )
        for grant in grants:
            if self._owns(grant.instance):
                self._deliver_grant(grant.instance, grant.token)

    def _ro_request_clearances(self, spec_name, schema_name, instance, key) -> None:
        authority = self._ro_replica(spec_name)
        if not authority.is_registered(instance):
            return  # withdrawn (abort) or retired (commit) since the report
        for later in range(1, len(authority.spec.steps_a)):
            grant = authority.request_clearance(schema_name, instance, later, key)
            if grant is not None and self._owns(grant.instance):
                self._deliver_grant(grant.instance, grant.token)

    # -- replicated mutual exclusion ----------------------------------------------------

    def _schedule_mx_check(self, spec_name: str, key: Hashable | None) -> None:
        # Two latencies: any earlier-stamped request is in flight for at
        # most one broadcast latency; the second covers scheduling skew.
        # Causal scheduling: a check pending across a crash must die with
        # the node, or it releases locks of instances recovery is about to
        # rebuild.
        self.schedule_causal(
            2 * self.config.latency + 0.001, self._mx_check, spec_name, key
        )

    def _mx_check(self, spec_name: str, key: Hashable | None) -> None:
        mutex = self.replica.mx.get((spec_name, key))
        holder = None if mutex is None else mutex.holder()
        if holder is None:
            return
        __, instance = holder
        if not self._owns(instance) or (spec_name, instance) in self._mx_granted:
            return
        runtime = self.runtimes.get(instance)
        if runtime is None:
            # Owner engine no longer runs the instance (finished): release.
            self.replica.mx_release((spec_name, key), instance)
            return
        self._mx_granted.add((spec_name, instance))
        runtime.mx_state[spec_name] = "held"
        self._deliver_grant(instance, mx_clearance_token(spec_name, instance))


class ParallelControlSystem(ControlSystem):
    """Public facade for parallel workflow control (``e`` engines)."""

    architecture = "parallel"

    def __init__(
        self,
        config: SystemConfig | None = None,
        num_engines: int = 2,
        num_agents: int = 4,
        agents_per_step: int = 1,
        runtime=None,
    ):
        super().__init__(config, runtime=runtime)
        if num_engines < 1:
            raise SchemaError("parallel control needs at least one engine")
        self.agents_per_step = agents_per_step
        self.engines = [
            ParallelEngineNode(f"engine-{i:02d}", self) for i in range(num_engines)
        ]
        self.agents = [
            ApplicationAgentNode(f"agent-{i:03d}", self) for i in range(num_agents)
        ]
        self._owners: dict[str, str] = {}
        self._next_engine = 0

    # -- wiring ---------------------------------------------------------------------

    def agent_names(self) -> list[str]:
        return [agent.name for agent in self.agents]

    def engine_nodes(self) -> list[str]:
        return [engine.name for engine in self.engines]

    def _on_schema_registered(self, compiled: CompiledSchema) -> None:
        self.assignment.assign_round_robin(
            compiled, self.agent_names(), self.agents_per_step
        )
        for engine in self.engines:
            engine.wfdb.register_class(compiled)

    def _on_spec_added(self, spec: CoordinationSpec) -> None:
        for engine in self.engines:
            engine.spec_index.add(spec)

    # -- ownership ---------------------------------------------------------------------

    def owner_of(self, instance_id: str) -> str:
        try:
            return self._owners[instance_id]
        except KeyError:
            raise FrontEndError(f"unknown instance {instance_id!r}") from None

    def _note_owner(self, instance_id: str, engine_name: str) -> None:
        self._owners[instance_id] = engine_name

    def _owner_engine(self, instance_id: str) -> ParallelEngineNode:
        name = self.owner_of(instance_id)
        return next(e for e in self.engines if e.name == name)

    # -- front-end database operations ----------------------------------------------------

    def start_workflow(
        self, schema_name: str, inputs: Mapping[str, Any], delay: float = 0.0
    ) -> str:
        self.compiled(schema_name)
        instance_id = self.new_instance_id(schema_name)
        engine = self.engines[self._next_engine % len(self.engines)]
        self._next_engine += 1
        self._note_owner(instance_id, engine.name)
        self.schedule_frontend(
            delay, engine, engine.workflow_start,
            schema_name, instance_id, dict(inputs),
        )
        return instance_id

    def abort_workflow(self, instance_id: str, delay: float = 0.0) -> None:
        engine = self._owner_engine(instance_id)
        self.schedule_frontend(delay, engine, engine.workflow_abort, instance_id)

    def change_inputs(
        self, instance_id: str, changes: Mapping[str, Any], delay: float = 0.0
    ) -> None:
        engine = self._owner_engine(instance_id)
        self.schedule_frontend(
            delay, engine, engine.workflow_change_inputs,
            instance_id, dict(changes),
        )

    def workflow_status(self, instance_id: str) -> InstanceStatus:
        return self._owner_engine(instance_id).workflow_status(instance_id)
