"""Engine-local coordination for centralized control.

Relative-order, mutual-exclusion and rollback-dependency authorities all
live inside the engine, so coordinated execution costs navigation load
but zero messages.

The mixin is two layers.  The *walk* (``_coord_on_step_done``, the MX
state guard of ``_mx_acquire``/``_mx_release``, ``_coord_on_rollback``
and ``_release_coordination``) decides which coordination ops a
navigation event issues; it calls one *leaf* per op (``_ro_report``,
``_mx_request``, ``_mx_free``, ``_rd_report``, ``_rd_trigger``,
``_withdraw``), which here applies the op to the engine's own
authorities.  Parallel control keeps the walk and overrides only the
leaves, broadcasting each op to every engine's replica.
"""

from __future__ import annotations

from repro.core.coordination import mx_clearance_token, ro_clearance_token
from repro.engines.coord import SpecIndex, later_pair_clearances
from repro.engines.runtime import EngineRuntime
from repro.model.coordination_spec import CoordinationSpec
from repro.runtime.metrics import Mechanism
from repro.storage.tables import StepStatus

__all__ = ["EngineCoordinationMixin"]


class EngineCoordinationMixin:
    """Coordination behavior of :class:`CentralEngineNode`."""

    def _coord_on_recover(self, runtime: EngineRuntime) -> None:
        """Re-acquire clearances whose token events died with the crash.

        MX grants live in the volatile event table, while the authority
        still considers them granted — so a recovered instance must ask
        again for every region its replayed rules will re-enter: regions
        opening at the start step (acquired by ``workflow_start``, which
        recovery does not re-run) and regions whose first step already
        completed (the token gates that step's re-fire).  Re-acquisition
        is idempotent at the authority.  RO clearances re-request
        themselves when the pair-0 step re-fires through the REUSE path.
        """
        schema_name = runtime.state.schema_name
        for spec in self.spec_index.mx_specs(schema_name):
            first, __ = spec.region_of(schema_name)
            record = runtime.state.steps.get(first)
            if first == runtime.compiled.start_step or (
                record is not None and record.status is StepStatus.DONE
            ):
                self._mx_acquire(runtime, spec)

    def _deliver_grant(self, instance_id: str, token: str) -> None:
        runtime = self.runtimes.get(instance_id)
        if runtime is None:
            return
        runtime.engine.add_event(token, self.simulator.now)

    # -- the walk: which coordination ops a navigation event issues ----------------

    def _coord_on_step_done(self, runtime: EngineRuntime, step: str) -> None:
        """Coordination side effects of a step completion.

        Relative ordering: report the completion (a first-pair completion
        also registers the instance and requests its later clearances).
        Mutual exclusion: release at the region's last step; acquire for
        successor steps that open a region.  Rollback dependency: register
        target-step completion.
        """
        schema_name = runtime.state.schema_name
        for spec, pair_index in self.spec_index.ro_roles(schema_name, step):
            self._ro_report(runtime, spec, step, pair_index)
        for spec in self.spec_index.mx_region_last(schema_name, step):
            self._mx_release(runtime, spec)
        for successor in runtime.compiled.graph.successors(step):
            for spec in self.spec_index.mx_region_first(schema_name, successor):
                self._mx_acquire(runtime, spec)
        for spec in self.spec_index.rd_targets(schema_name, step):
            self._rd_report(runtime, spec, step)

    def _mx_acquire(self, runtime: EngineRuntime, spec: CoordinationSpec) -> None:
        if runtime.mx_state.get(spec.name, "none") in ("requested", "held"):
            return
        runtime.table("mx_state")[spec.name] = "requested"
        self._mx_request(runtime, spec)

    def _mx_release(self, runtime: EngineRuntime, spec: CoordinationSpec) -> None:
        if runtime.mx_state.get(spec.name) not in ("held", "requested"):
            return
        runtime.table("mx_state")[spec.name] = "released"
        self._mx_free(runtime, spec)

    def _coord_on_rollback(self, runtime: EngineRuntime, inval_steps) -> None:
        """Rollback-dependency propagation of an invalidated trigger step."""
        for spec in self.spec_index.rd_triggers(runtime.state.schema_name):
            if spec.trigger_step_a in inval_steps:
                self._rd_trigger(runtime, spec)

    def _release_coordination(self, runtime: EngineRuntime, aborted: bool) -> None:
        """On commit/abort: free MX locks, withdraw RD; RO is withdrawn on
        abort and retired (forgotten once fully complete) on commit."""
        for spec in self.spec_index.mx_specs(runtime.state.schema_name):
            self._mx_release(runtime, spec)
        self._withdraw(runtime.state.instance_id, aborted)

    # -- the leaves: one op each, applied to the engine's own authorities ----------

    def _ro_report(
        self, runtime: EngineRuntime, spec: CoordinationSpec, step: str, pair_index: int
    ) -> None:
        schema_name = runtime.state.schema_name
        instance_id = runtime.state.instance_id
        authority = self.authorities.ro[spec.name]
        key = SpecIndex.conflict_key_value(spec, runtime.state)
        self.emit("coord", op="ro.report", instance=instance_id,
                  spec=spec.name, step=step, pair=pair_index)
        grants = authority.report_completion(schema_name, instance_id, pair_index, key)
        if pair_index == 0:
            grants += later_pair_clearances(authority, schema_name, instance_id, key)
        for grant in grants:
            self._deliver_grant(grant.instance, grant.token)

    def _mx_request(self, runtime: EngineRuntime, spec: CoordinationSpec) -> None:
        instance_id = runtime.state.instance_id
        key = SpecIndex.conflict_key_value(spec, runtime.state)
        granted = self.authorities.mx[spec.name].acquire(
            runtime.state.schema_name, instance_id, key
        )
        self.emit("coord", op="mx.acquire", instance=instance_id, spec=spec.name,
                  granted=granted)
        if granted:
            runtime.table("mx_state")[spec.name] = "held"
            self._deliver_grant(instance_id, mx_clearance_token(spec.name, instance_id))

    def _mx_free(self, runtime: EngineRuntime, spec: CoordinationSpec) -> None:
        key = SpecIndex.conflict_key_value(spec, runtime.state)
        self.emit("coord", op="mx.release", instance=runtime.state.instance_id,
                  spec=spec.name)
        grantee = self.authorities.mx[spec.name].release(
            runtime.state.schema_name, runtime.state.instance_id, key
        )
        if grantee is not None:
            __, next_instance = grantee
            next_runtime = self.runtimes.get(next_instance)
            if next_runtime is not None:
                next_runtime.table("mx_state")[spec.name] = "held"
                self._deliver_grant(
                    next_instance, mx_clearance_token(spec.name, next_instance)
                )

    def _rd_report(self, runtime: EngineRuntime, spec: CoordinationSpec, step: str) -> None:
        instance_id = runtime.state.instance_id
        self.emit("coord", op="rd.report", instance=instance_id,
                  spec=spec.name, step=step)
        self.authorities.rd[spec.name].report_target_executed(
            instance_id, SpecIndex.conflict_key_value(spec, runtime.state)
        )

    def _rd_trigger(self, runtime: EngineRuntime, spec: CoordinationSpec) -> None:
        instance_id = runtime.state.instance_id
        self._charge(Mechanism.COORDINATION)
        key = SpecIndex.conflict_key_value(spec, runtime.state)
        for dependent in self.authorities.rd[spec.name].dependents_of(instance_id, key):
            self.emit("rollback.dependency", instance=dependent,
                      trigger=instance_id, dependent=dependent, spec=spec.name)
            self.emit("coord", op="rd.propagate", instance=instance_id,
                      spec=spec.name, dependent=dependent)
            self._rollback(
                dependent, spec.rollback_to_b, Mechanism.FAILURE, from_rd=True
            )

    def _withdraw(self, instance_id: str, aborted: bool) -> None:
        for authority in self.authorities.rd.values():
            authority.withdraw(instance_id)
        for authority in self.authorities.ro.values():
            if aborted:
                for grant in authority.withdraw(instance_id):
                    self._deliver_grant(grant.instance, grant.token)
            else:
                authority.retire(instance_id)

    def _install_preconditions(self, runtime: EngineRuntime) -> None:
        schema_name = runtime.state.schema_name
        instance_id = runtime.state.instance_id
        for spec, pair_index, step in self.spec_index.ro_governed_pairs(schema_name):
            if pair_index >= 1:
                runtime.engine.add_step_precondition(
                    step, ro_clearance_token(spec.name, pair_index, instance_id)
                )
        for spec in self.spec_index.mx_specs(schema_name):
            first, __ = spec.region_of(schema_name)
            runtime.engine.add_step_precondition(
                first, mx_clearance_token(spec.name, instance_id)
            )
