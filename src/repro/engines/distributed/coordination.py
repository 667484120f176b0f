"""Inter-workflow coordination duties of a distributed agent.

Coordination specs (relative ordering, mutual exclusion, rollback
dependency) are hosted by *authority agents*; every agent both reports
conflicting-step completions to the authorities of the specs it touches
and, when it is itself an authority, resolves those reports into
AddEvent clearance grants, mutex handoffs and dependent rollbacks.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.coordination import mx_clearance_token
from repro.core.interfaces import WI
from repro.engines.coord import SpecIndex, later_pair_clearances
from repro.engines.runtime import AgentRuntime
from repro.errors import SimulationError
from repro.model.coordination_spec import CoordinationSpec
from repro.runtime.metrics import Mechanism

__all__ = ["AgentCoordinationMixin"]


class AgentCoordinationMixin:
    """Coordination behavior of :class:`~repro.engines.distributed.WorkflowAgentNode`."""

    def _coord_on_step_done(
        self, runtime: AgentRuntime, instance_id: str, step: str
    ) -> None:
        schema_name = runtime.fragment.schema_name
        for spec, pair_index in self.spec_index.ro_roles(schema_name, step):
            payload = {
                "op": "ro_report",
                "spec": spec.name,
                "schema": schema_name,
                "instance_id": instance_id,
                "pair_index": pair_index,
                "key": SpecIndex.conflict_key_value(spec, runtime.fragment),
                # Leadership is decided by when the conflicting step
                # *executed*, not when its report reaches the authority.
                "time": self.simulator.now,
            }
            self._to_authority(spec, payload)
        for spec in self.spec_index.mx_region_last(schema_name, step):
            self._mx_release(runtime, instance_id, spec)
        for spec in self.spec_index.rd_targets(schema_name, step):
            payload = {
                "op": "rd_report",
                "spec": spec.name,
                "instance_id": instance_id,
                "key": SpecIndex.conflict_key_value(spec, runtime.fragment),
            }
            self._to_authority(spec, payload)

    def _to_authority(self, spec: CoordinationSpec, payload: dict[str, Any]) -> None:
        authority = self.system.authority_agent_for(spec)
        self.emit("coord", op=payload["op"], instance=payload.get("instance_id"),
                  spec=spec.name, authority=authority)
        self._invoke(authority, WI.ADD_RULE.value, payload, Mechanism.COORDINATION)

    def _mx_request(
        self, runtime: AgentRuntime, instance_id: str, spec: CoordinationSpec
    ) -> None:
        current = runtime.mx_state.get(spec.name, "none")
        if current in ("requested", "held"):
            return
        runtime.table("mx_state")[spec.name] = "requested"
        payload = {
            "op": "mx_request",
            "spec": spec.name,
            "schema": runtime.fragment.schema_name,
            "instance_id": instance_id,
            "key": SpecIndex.conflict_key_value(spec, runtime.fragment),
            "reply_to": self.name,
        }
        self._to_authority(spec, payload)

    def _mx_release(
        self, runtime: AgentRuntime, instance_id: str, spec: CoordinationSpec
    ) -> None:
        payload = {
            "op": "mx_release",
            "spec": spec.name,
            "schema": runtime.fragment.schema_name,
            "instance_id": instance_id,
            "key": SpecIndex.conflict_key_value(spec, runtime.fragment),
        }
        runtime.table("mx_state")[spec.name] = "released"
        self._to_authority(spec, payload)

    # ------------------------------------------------------------------ authority side

    def _apply_add_rule(self, payload: dict[str, Any]) -> None:
        """AddRule WI at an authority agent: one authority op."""
        op = payload["op"]
        if op == "ro_report":
            self._apply_ro_report(payload)
        elif op == "mx_request":
            self._apply_mx_request(payload)
        elif op == "mx_release":
            self._apply_mx_release(payload)
        elif op == "rd_report":
            authority = self.authorities.rd[payload["spec"]]
            authority.report_target_executed(payload["instance_id"], payload["key"])
        elif op == "rd_trigger":
            self._apply_rd_trigger(payload)
        elif op == "withdraw":
            self._apply_withdraw(payload)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown authority op {op!r}")

    def _apply_ro_report(self, payload: dict[str, Any]) -> None:
        authority = self.authorities.ro[payload["spec"]]
        instance_id = payload["instance_id"]
        time = payload.get("time", self.simulator.now)
        grants = authority.report_completion(
            payload["schema"], instance_id, payload["pair_index"], payload["key"],
            order_key=(time, instance_id),
        )
        if payload["pair_index"] == 0:
            # Defer this registrant's clearance requests by two network
            # latencies: a report of an *earlier* first-pair completion is
            # at most one latency away, so by then leadership is settled.
            self.simulator.schedule(
                2 * self.config.latency + 0.001,
                self._ro_request_clearances,
                payload["spec"], payload["schema"], instance_id, payload["key"],
            )
        self._deliver_ro_grants(authority, grants)

    def _ro_request_clearances(
        self, spec_name: str, schema_name: str, instance_id: str, key
    ) -> None:
        authority = self.authorities.ro[spec_name]
        grants = later_pair_clearances(authority, schema_name, instance_id, key)
        self._deliver_ro_grants(authority, grants)

    def _deliver_ro_grants(self, authority, grants) -> None:
        spec = authority.spec
        for grant in grants:
            step = spec.ordered_steps(grant.schema)[grant.pair_index]
            orders = [
                [spec.name, leading, lagging]
                for leading, lagging in authority.pairs_of(grant.instance)
            ]
            self._send_grant(grant.schema, grant.instance, step, grant.token,
                             orders=orders)

    def _send_grant(
        self, schema_name: str, instance_id: str, step: str, token: str,
        orders: list | None = None,
    ) -> None:
        """AddEvent WI: deliver a clearance token to the eligible agents of
        the governed step (piggybacking any established leading/lagging
        pairs — the Figure 7 "R.O." lines)."""
        payload = {
            "schema_name": schema_name,
            "instance_id": instance_id,
            "token": token,
            "orders": orders or [],
        }
        for agent in self.agdb.eligible_agents(schema_name, step):
            self._invoke(agent, WI.ADD_EVENT.value, payload, Mechanism.COORDINATION)

    def _apply_add_event(self, payload: Mapping[str, Any]) -> None:
        instance_id = payload["instance_id"]
        runtime = self._runtime(payload["schema_name"], instance_id)
        if payload["token"].startswith("EXT.MX."):
            spec_name = payload["token"].split(".")[2]
            runtime.table("mx_state")[spec_name] = "held"
        for spec_name, leading, lagging in payload.get("orders", ()):
            runtime.ro_info.add((spec_name, leading, lagging))
        runtime.engine.add_event(payload["token"], self.simulator.now)

    def _apply_mx_request(self, payload: dict[str, Any]) -> None:
        authority = self.authorities.mx[payload["spec"]]
        granted = authority.acquire(
            payload["schema"], payload["instance_id"], payload["key"]
        )
        if granted:
            self._grant_region(authority.spec, payload["schema"], payload["instance_id"])

    def _apply_mx_release(self, payload: dict[str, Any]) -> None:
        authority = self.authorities.mx[payload["spec"]]
        grantee = authority.release(
            payload["schema"], payload["instance_id"], payload["key"]
        )
        if grantee is not None:
            self._grant_region(authority.spec, *grantee)

    def _grant_region(self, spec, schema_name: str, instance_id: str) -> None:
        first, __ = spec.region_of(schema_name)
        self._send_grant(
            schema_name, instance_id, first,
            mx_clearance_token(spec.name, instance_id),
        )

    def _apply_rd_trigger(self, payload: dict[str, Any]) -> None:
        authority = self.authorities.rd[payload["spec"]]
        spec = authority.spec
        for dependent in authority.dependents_of(
            payload["instance_id"], payload["key"]
        ):
            compiled = self.system.compiled(spec.schema_b)
            target = self._elect(compiled, dependent, spec.rollback_to_b)
            rollback_payload = {
                "schema_name": spec.schema_b,
                "instance_id": dependent,
                "origin": spec.rollback_to_b,
                "failed_step": None,
                "epoch": -1,  # resolved at the target from its fragment
                "mechanism": Mechanism.FAILURE.value,
                "from_rd": True,
            }
            self.emit("rollback.dependency", instance=dependent,
                      trigger=payload["instance_id"], dependent=dependent,
                      spec=spec.name)
            self._invoke(target, WI.WORKFLOW_ROLLBACK.value, rollback_payload,
                         Mechanism.FAILURE)

    def _withdraw_coordination(
        self, instance_id: str, runtime: AgentRuntime | None, aborted: bool
    ) -> None:
        if runtime is None:
            return
        schema_name = runtime.fragment.schema_name
        for spec in self.spec_index.mx_specs(schema_name):
            if runtime.mx_state.get(spec.name) in ("held", "requested"):
                self._mx_release(runtime, instance_id, spec)
        for spec in self.spec_index.rd:
            if spec.schema_b == schema_name:
                self._to_authority(spec, {
                    "op": "withdraw", "spec": spec.name, "instance_id": instance_id,
                    "kind": "rd",
                })
        if aborted:
            for spec in self.spec_index.ro:
                if spec.involves(schema_name):
                    self._to_authority(spec, {
                        "op": "withdraw", "spec": spec.name,
                        "instance_id": instance_id, "kind": "ro",
                    })

    def _apply_withdraw(self, payload: dict[str, Any]) -> None:
        spec_name = payload["spec"]
        instance_id = payload["instance_id"]
        if payload["kind"] == "rd":
            authority = self.authorities.rd.get(spec_name)
            if authority is not None:
                authority.withdraw(instance_id)
            return
        authority_ro = self.authorities.ro.get(spec_name)
        if authority_ro is not None:
            self._ro_withdraw(authority_ro, instance_id)

    def _ro_withdraw(self, authority, instance_id: str) -> None:
        for grant in authority.withdraw(instance_id):
            step = authority.spec.ordered_steps(grant.schema)[grant.pair_index]
            self._send_grant(grant.schema, grant.instance, step, grant.token)

    def _withdraw_from_authorities(self, instance_id: str) -> None:
        """Authority side of a purge.  A terminal instance runs no more
        steps, so whatever it still has here — an ordering registration
        (it committed around a governed step, or its last report is the
        message the purge overtook), a region lock, a rollback-dependency
        target — binds nobody: withdrawn, not merely retired.  The purge
        is the message that tells the authority so."""
        for authority in self.authorities.ro.values():
            self._ro_withdraw(authority, instance_id)
        for authority in self.authorities.mx.values():
            for schema_name, grantee in authority.withdraw(instance_id):
                self._grant_region(authority.spec, schema_name, grantee)
        for authority in self.authorities.rd.values():
            authority.withdraw(instance_id)
