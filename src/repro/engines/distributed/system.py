"""Public facade for distributed workflow control."""

from __future__ import annotations

from typing import Any, Mapping

from repro.engines.base import ControlSystem, SystemConfig, governed_step_count
from repro.engines.coord import SpecIndex
from repro.engines.distributed.roles import WorkflowAgentNode
from repro.errors import FrontEndError, SchemaError
from repro.model.compiler import CompiledSchema
from repro.model.coordination_spec import CoordinationSpec
from repro.storage.tables import InstanceStatus

__all__ = ["DistributedControlSystem"]


class DistributedControlSystem(ControlSystem):
    """Public facade for distributed workflow control (``z`` agents)."""

    architecture = "distributed"

    def __init__(
        self,
        config: SystemConfig | None = None,
        num_agents: int = 8,
        agents_per_step: int = 1,
        runtime=None,
    ):
        super().__init__(config, runtime=runtime)
        if num_agents < 1:
            raise SchemaError("distributed control needs at least one agent")
        self.agents_per_step = agents_per_step
        self.spec_index = SpecIndex()
        self.agents = [
            WorkflowAgentNode(f"agent-{i:03d}", self) for i in range(num_agents)
        ]
        self._owners: dict[str, str] = {}
        #: schema name -> :func:`governed_step_count` under the specs so far.
        self._governed: dict[str, int] = {}

    # -- wiring ---------------------------------------------------------------------

    def agent_names(self) -> list[str]:
        return [agent.name for agent in self.agents]

    def engine_nodes(self) -> list[str]:
        """No engine: the agents navigate (same facade as the other two)."""
        return []

    def agent(self, name: str) -> WorkflowAgentNode:
        return next(a for a in self.agents if a.name == name)

    def governed_steps(self, compiled: CompiledSchema) -> int:
        """The schema's ``me + ro + rd`` factor: the same for every agent
        and instance, counted once until a spec or the schema changes."""
        count = self._governed.get(compiled.name)
        if count is None:
            count = self._governed[compiled.name] = governed_step_count(
                compiled, self.spec_index.specs_for(compiled.name)
            )
        return count

    def _on_schema_registered(self, compiled: CompiledSchema) -> None:
        self._governed.pop(compiled.name, None)
        self.assignment.assign_round_robin(
            compiled, self.agent_names(), self.agents_per_step
        )
        # Every agent's AGDB carries the full (static) agent directory.
        for (schema_name, step), eligible in self.assignment.items():
            if schema_name != compiled.name:
                continue
            for agent in self.agents:
                agent.agdb.set_eligible_agents(schema_name, step, eligible)

    def _on_spec_added(self, spec: CoordinationSpec) -> None:
        self.spec_index.add(spec)
        self._governed.clear()
        authority = self.authority_agent_for(spec)
        self.agent(authority).authorities.host(spec)

    def authority_agent_for(self, spec: CoordinationSpec) -> str:
        """Deterministic authority placement: the first eligible agent of
        the spec's anchor step in ``schema_a``."""
        from repro.model.coordination_spec import (
            MutualExclusionSpec,
            RelativeOrderSpec,
            RollbackDependencySpec,
        )

        if isinstance(spec, RelativeOrderSpec):
            anchor = spec.steps_a[0]
        elif isinstance(spec, MutualExclusionSpec):
            anchor = spec.region_a[0]
        elif isinstance(spec, RollbackDependencySpec):
            anchor = spec.trigger_step_a
        else:  # pragma: no cover - defensive
            raise SchemaError(f"unknown spec type {type(spec)!r}")
        return self.assignment.eligible(spec.schema_a, anchor)[0]

    def coordination_agent_for(self, schema_name: str) -> WorkflowAgentNode:
        compiled = self.compiled(schema_name)
        name = self.assignment.eligible(schema_name, compiled.start_step)[0]
        return self.agent(name)

    def _note_owner(self, instance_id: str, node_name: str) -> None:
        self._owners[instance_id] = node_name

    # -- front-end database operations -------------------------------------------------

    def start_workflow(
        self, schema_name: str, inputs: Mapping[str, Any], delay: float = 0.0
    ) -> str:
        self.compiled(schema_name)
        instance_id = self.new_instance_id(schema_name)
        coordination_agent = self.coordination_agent_for(schema_name)
        self._note_owner(instance_id, coordination_agent.name)
        self.schedule_frontend(
            delay, coordination_agent, coordination_agent.workflow_start,
            schema_name, instance_id, dict(inputs),
        )
        return instance_id

    def _coordination_agent_of_instance(self, instance_id: str) -> WorkflowAgentNode:
        try:
            return self.agent(self._owners[instance_id])
        except KeyError:
            raise FrontEndError(f"unknown instance {instance_id!r}") from None

    def abort_workflow(self, instance_id: str, delay: float = 0.0) -> None:
        agent = self._coordination_agent_of_instance(instance_id)
        self.schedule_frontend(delay, agent, agent.workflow_abort, instance_id)

    def change_inputs(
        self, instance_id: str, changes: Mapping[str, Any], delay: float = 0.0
    ) -> None:
        agent = self._coordination_agent_of_instance(instance_id)
        self.schedule_frontend(
            delay, agent, agent.workflow_change_inputs, instance_id, dict(changes)
        )

    def workflow_status(self, instance_id: str) -> InstanceStatus:
        return self._coordination_agent_of_instance(instance_id).workflow_status(
            instance_id
        )

    def probe_workflow(self, instance_id: str, delay: float = 0.0) -> None:
        """Launch the probe chain locating the instance's current steps."""
        agent = self._coordination_agent_of_instance(instance_id)
        self.schedule_frontend(
            delay, agent, agent.workflow_status_probe, instance_id
        )

    def probe_reports(self, instance_id: str) -> list[dict]:
        """Probe reports gathered at the instance's coordination agent."""
        return self._coordination_agent_of_instance(instance_id).probe_reports(
            instance_id
        )
