"""Engine-local coordination for centralized control.

Relative-order, mutual-exclusion and rollback-dependency authorities all
live inside the engine, so coordinated execution costs navigation load
but zero messages.  Parallel control overrides these hooks with
engine-to-engine broadcasts.
"""

from __future__ import annotations

from repro.core.coordination import mx_clearance_token, ro_clearance_token
from repro.engines.coord import SpecIndex
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

    def _coord_on_step_done(self, runtime: EngineRuntime, step: str) -> None:
        """Coordination side effects of a step completion.

        Centralized control handles everything locally (zero messages);
        parallel control overrides this with engine-to-engine broadcasts.
        """
        schema_name = runtime.state.schema_name
        instance_id = runtime.state.instance_id
        # Relative ordering: report the completion; a first-pair completion
        # also registers the instance and requests clearance for the
        # remaining pairs.
        for spec, pair_index in self.spec_index.ro_roles(schema_name, step):
            authority = self.authorities.ro[spec.name]
            key = SpecIndex.conflict_key_value(spec, runtime.state)
            self.system.obs_coordination(
                instance_id, self.name, self.simulator.now, "ro.report",
                spec_name=spec.name, step=step, pair=pair_index,
            )
            grants = authority.report_completion(schema_name, instance_id, pair_index, key)
            if pair_index == 0:
                n_pairs = len(spec.steps_a)
                for later in range(1, n_pairs):
                    grant = authority.request_clearance(
                        schema_name, instance_id, later, key
                    )
                    if grant is not None:
                        grants.append(grant)
            for grant in grants:
                self._deliver_grant(grant.instance, grant.token)

        # Mutual exclusion: release at the region's last step; acquire for
        # successor steps that open a region.
        for spec in self.spec_index.mx_region_last(schema_name, step):
            self._mx_release(runtime, spec)
        for successor in runtime.compiled.graph.successors(step):
            for spec in self.spec_index.mx_region_first(schema_name, successor):
                self._mx_acquire(runtime, spec)

        # Rollback dependency: register target-step completion.
        for spec in self.spec_index.rd_targets(schema_name, step):
            authority = self.authorities.rd[spec.name]
            self.system.obs_coordination(
                instance_id, self.name, self.simulator.now, "rd.report",
                spec_name=spec.name, step=step,
            )
            authority.report_target_executed(
                instance_id, SpecIndex.conflict_key_value(spec, runtime.state)
            )

    def _mx_acquire(self, runtime: EngineRuntime, spec: CoordinationSpec) -> None:
        current = runtime.mx_state.get(spec.name, "none")
        if current in ("requested", "held"):
            return
        authority = self.authorities.mx[spec.name]
        key = SpecIndex.conflict_key_value(spec, runtime.state)
        instance_id = runtime.state.instance_id
        granted = authority.acquire(runtime.state.schema_name, instance_id, key)
        self.system.obs_coordination(
            instance_id, self.name, self.simulator.now, "mx.acquire",
            spec_name=spec.name, granted=granted,
        )
        if granted:
            runtime.mx_state[spec.name] = "held"
            self._deliver_grant(instance_id, mx_clearance_token(spec.name, instance_id))
        else:
            runtime.mx_state[spec.name] = "requested"

    def _mx_release(self, runtime: EngineRuntime, spec: CoordinationSpec) -> None:
        if runtime.mx_state.get(spec.name) not in ("held", "requested"):
            return
        authority = self.authorities.mx[spec.name]
        key = SpecIndex.conflict_key_value(spec, runtime.state)
        runtime.mx_state[spec.name] = "released"
        self.system.obs_coordination(
            runtime.state.instance_id, self.name, self.simulator.now,
            "mx.release", spec_name=spec.name,
        )
        grantee = authority.release(
            runtime.state.schema_name, runtime.state.instance_id, key
        )
        if grantee is not None:
            __, next_instance = grantee
            next_runtime = self.runtimes.get(next_instance)
            if next_runtime is not None:
                next_runtime.mx_state[spec.name] = "held"
                self._deliver_grant(
                    next_instance, mx_clearance_token(spec.name, next_instance)
                )

    def _release_coordination(self, runtime: EngineRuntime, aborted: bool) -> None:
        """On commit/abort: free MX locks, withdraw RD; RO is withdrawn on
        abort and retired (forgotten once fully complete) on commit."""
        schema_name = runtime.state.schema_name
        instance_id = runtime.state.instance_id
        for spec in self.spec_index.mx_specs(schema_name):
            self._mx_release(runtime, spec)
        for authority in self.authorities.rd.values():
            authority.withdraw(instance_id)
        for authority in self.authorities.ro.values():
            if aborted:
                for grant in authority.withdraw(instance_id):
                    self._deliver_grant(grant.instance, grant.token)
            else:
                authority.retire(instance_id)

    def _coord_on_rollback(self, runtime: EngineRuntime, inval_steps) -> None:
        """Rollback-dependency propagation (local in centralized control)."""
        state = runtime.state
        instance_id = state.instance_id
        for spec in self.spec_index.rd_triggers(state.schema_name):
            if spec.trigger_step_a not in inval_steps:
                continue
            authority = self.authorities.rd.get(spec.name)
            if authority is None:
                continue
            self._charge(Mechanism.COORDINATION)
            key = SpecIndex.conflict_key_value(spec, state)
            for dependent in authority.dependents_of(instance_id, key):
                self.trace.record(self.simulator.now, self.name,
                                  "rollback.dependency",
                                  trigger=instance_id, dependent=dependent,
                                  spec=spec.name)
                self.system.obs_coordination(
                    instance_id, self.name, self.simulator.now,
                    "rd.propagate", spec_name=spec.name, dependent=dependent,
                )
                self._rollback(
                    dependent, spec.rollback_to_b, Mechanism.FAILURE, from_rd=True
                )

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
