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

Structurally, :class:`ParallelControlSystem` is the centralized facade
with ``e`` engines and round-robin ownership, and
:class:`ParallelEngineNode` is the central engine with the coordination
walk of :mod:`repro.engines.centralized.coordination` unchanged: it
overrides only the walk's leaves (where an op lands), broadcasting each
one instead of applying it locally.
"""

from __future__ import annotations

import bisect
from typing import Any, Hashable, Mapping

from repro.core.coordination import mx_clearance_token
from repro.engines.base import SystemConfig
from repro.engines.centralized import CentralEngineNode, CentralizedControlSystem
from repro.engines.coord import SpecIndex, later_pair_clearances
from repro.engines.runtime import EngineRuntime
from repro.errors import SchemaError
from repro.model.coordination_spec import CoordinationSpec, MutualExclusionSpec
from repro.runtime.metrics import Mechanism
from repro.runtime.messages import Message

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


class ParallelEngineNode(CentralEngineNode):
    """A central engine participating in a parallel deployment.

    Its RO and RD replicas are its own ``authorities``; mutexes are
    replicated per conflict key as :class:`TimestampMutex`.
    """

    def __init__(self, name: str, system: "ParallelControlSystem"):
        super().__init__(name, system)
        #: ``(spec name, conflict key value)`` -> a mutex somebody waits on.
        self.mutexes: dict[tuple[str, Hashable], TimestampMutex] = {}
        self._mx_granted: set[tuple[str, str]] = set()  # (spec, instance)
        self.handlers[VERB_COORD_OP] = self._on_coord_op

    def add_spec(self, spec: CoordinationSpec) -> None:
        if isinstance(spec, MutualExclusionSpec):
            self.spec_index.add(spec)  # replicated in ``mutexes`` instead
        else:
            super().add_spec(spec)

    def workflow_start(self, schema_name: str, instance_id: str, inputs: Mapping[str, Any],
                       parent_link: tuple[str, str] | None = None) -> None:
        # A nested instance starts here, not at the front door: note it too.
        self.system._note_owner(instance_id, self.name)
        super().workflow_start(schema_name, instance_id, inputs, parent_link)

    # -- plumbing ---------------------------------------------------------------

    def _peers(self) -> list[str]:
        return [n for n in self.system.engine_nodes() if n != self.name]

    def _owns(self, instance_id: str) -> bool:
        return self.system._noted_owner(instance_id) == self.name

    def _broadcast(self, payload: dict[str, Any]) -> None:
        """Send a coordination op to every peer engine and apply locally."""
        peers = self._peers()
        for peer in peers:
            self.send(peer, VERB_COORD_OP, payload, Mechanism.COORDINATION)
        self.emit("coord", op=f"broadcast.{payload['op']}",
                  instance=payload.get("instance"), spec=payload.get("spec"),
                  peers=len(peers))
        self._apply_coord_op(payload)

    def _on_coord_op(self, message: Message) -> None:
        self._charge(Mechanism.COORDINATION)
        self._apply_coord_op(dict(message.payload))

    def _coord_on_recover(self, runtime: EngineRuntime) -> None:
        # Tokens recorded as delivered died with the volatile event table;
        # forget them so the holder check re-delivers after re-acquisition.
        instance_id = runtime.state.instance_id
        for spec in self.spec_index.mx_specs(runtime.state.schema_name):
            self._mx_granted.discard((spec.name, instance_id))
        super()._coord_on_recover(runtime)

    # -- the leaves, broadcast ----------------------------------------------------------

    def _ro_report(
        self, runtime: EngineRuntime, spec: CoordinationSpec, step: str, pair_index: int
    ) -> None:
        self._broadcast({
            "op": "ro_report",
            "spec": spec.name,
            "schema": runtime.state.schema_name,
            "instance": runtime.state.instance_id,
            "pair_index": pair_index,
            "key": SpecIndex.conflict_key_value(spec, runtime.state),
            "time": self.simulator.now,
        })

    def _mx_request(self, runtime: EngineRuntime, spec: CoordinationSpec) -> None:
        self._broadcast({
            "op": "mx_request",
            "spec": spec.name,
            "schema": runtime.state.schema_name,
            "instance": runtime.state.instance_id,
            "key": SpecIndex.conflict_key_value(spec, runtime.state),
            "time": self.simulator.now,
        })

    def _mx_free(self, runtime: EngineRuntime, spec: CoordinationSpec) -> None:
        self._broadcast({
            "op": "mx_release",
            "spec": spec.name,
            "instance": runtime.state.instance_id,
            "key": SpecIndex.conflict_key_value(spec, runtime.state),
        })

    def _rd_report(self, runtime: EngineRuntime, spec: CoordinationSpec, step: str) -> None:
        self._broadcast({
            "op": "rd_report",
            "spec": spec.name,
            "instance": runtime.state.instance_id,
            "key": SpecIndex.conflict_key_value(spec, runtime.state),
        })

    def _rd_trigger(self, runtime: EngineRuntime, spec: CoordinationSpec) -> None:
        self._broadcast({
            "op": "rd_trigger",
            "spec": spec.name,
            "instance": runtime.state.instance_id,
            "key": SpecIndex.conflict_key_value(spec, runtime.state),
        })

    def _withdraw(self, instance_id: str, aborted: bool) -> None:
        self._broadcast({"op": "withdraw", "instance": instance_id, "aborted": aborted})

    # -- replica application -----------------------------------------------------------

    def _apply_coord_op(self, payload: Mapping[str, Any]) -> None:
        op = payload["op"]
        if op == "ro_report":
            self._apply_ro_report(payload)
        elif op == "mx_request":
            lock = (payload["spec"], payload["key"])
            if lock not in self.mutexes:
                self.mutexes[lock] = TimestampMutex()
            self.mutexes[lock].request(
                (payload["time"], payload["instance"]),
                payload["schema"],
                payload["instance"],
            )
            self._schedule_mx_check(payload["spec"], payload["key"])
        elif op == "mx_release":
            self._mx_forget((payload["spec"], payload["key"]), payload["instance"])
            self._mx_granted.discard((payload["spec"], payload["instance"]))
            self._schedule_mx_check(payload["spec"], payload["key"])
        elif op == "rd_report":
            self.authorities.rd[payload["spec"]].report_target_executed(
                payload["instance"], payload["key"]
            )
        elif op == "rd_trigger":
            authority = self.authorities.rd[payload["spec"]]
            spec = authority.spec
            for dependent in authority.dependents_of(payload["instance"], payload["key"]):
                if self._owns(dependent) and dependent in self.runtimes:
                    self.emit("rollback.dependency", instance=dependent,
                              trigger=payload["instance"], dependent=dependent,
                              spec=spec.name)
                    self._rollback(
                        dependent, spec.rollback_to_b, Mechanism.FAILURE, from_rd=True
                    )
        elif op == "withdraw":
            super()._withdraw(payload["instance"], payload["aborted"])
        else:  # pragma: no cover - defensive
            raise FrontEndError(f"unknown coordination op {op!r}")

    def _apply_ro_report(self, payload: Mapping[str, Any]) -> None:
        authority = self.authorities.ro[payload["spec"]]
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
                authority, payload["schema"], instance, payload["key"],
            )
        for grant in grants:
            self._deliver_grant(grant.instance, grant.token)

    def _ro_request_clearances(self, authority, schema_name, instance, key) -> None:
        for grant in later_pair_clearances(authority, schema_name, instance, key):
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

    def _mx_forget(self, lock: tuple[str, Hashable], instance: str) -> None:
        """Release, and forget the mutex once nobody waits on it."""
        mutex = self.mutexes.get(lock)
        if mutex is not None:
            mutex.release(instance)
            if not mutex.waiting():
                del self.mutexes[lock]

    def _mx_check(self, spec_name: str, key: Hashable | None) -> None:
        mutex = self.mutexes.get((spec_name, key))
        holder = None if mutex is None else mutex.holder()
        if holder is None:
            return
        __, instance = holder
        if not self._owns(instance) or (spec_name, instance) in self._mx_granted:
            return
        runtime = self.runtimes.get(instance)
        if runtime is None:
            # Owner engine no longer runs the instance (finished): release.
            self._mx_forget((spec_name, key), instance)
            return
        self._mx_granted.add((spec_name, instance))
        runtime.table("mx_state")[spec_name] = "held"
        self._deliver_grant(instance, mx_clearance_token(spec_name, instance))


class ParallelControlSystem(CentralizedControlSystem):
    """Public facade for parallel workflow control (``e`` engines).

    Centralized control with ``e`` engines: new instances go to the
    engines round-robin, and every WI for an instance goes to its owner.
    """

    architecture = "parallel"

    def __init__(
        self,
        config: SystemConfig | None = None,
        num_engines: int = 2,
        num_agents: int = 4,
        agents_per_step: int = 1,
        runtime=None,
    ):
        if num_engines < 1:
            raise SchemaError("parallel control needs at least one engine")
        self.num_engines = num_engines
        self._next_engine = 0
        super().__init__(config, num_agents, agents_per_step, runtime)

    def _new_engines(self) -> list[ParallelEngineNode]:
        return [
            ParallelEngineNode(f"engine-{i:02d}", self) for i in range(self.num_engines)
        ]

    # -- where a WI lands: round-robin, then the owner map ------------------------------

    def _place(self, schema_name: str, instance_id: str) -> ParallelEngineNode:
        engine = self.engines[self._next_engine % len(self.engines)]
        self._next_engine += 1
        self._note_owner(instance_id, engine.name)
        return engine

    def _owner_node(self, instance_id: str) -> ParallelEngineNode:
        name = self._noted_owner(instance_id)
        return next(e for e in self.engines if e.name == name)
