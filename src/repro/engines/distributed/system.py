"""Public facade for distributed workflow control."""

from __future__ import annotations

from repro.engines.base import ControlSystem, SystemConfig, governed_step_count
from repro.engines.coord import SpecIndex
from repro.engines.distributed.roles import WorkflowAgentNode
from repro.errors import SchemaError
from repro.model.compiler import CompiledSchema
from repro.model.coordination_spec import CoordinationSpec

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
        #: schema name -> :func:`governed_step_count` under the specs so far.
        self._governed: dict[str, int] = {}
        #: schema name -> :meth:`purge_recipients` under the specs so far.
        self._recipients: dict[str, frozenset[str]] = {}

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

    def purge_recipients(self, schema_name: str) -> frozenset[str]:
        """The agents that can hold something of an instance of the schema,
        and so the ones its purge is sent to: the eligible agents of every
        step (fragments, trackers, the coordination agent) and the host of
        every authority of a spec that names the schema (registrations).
        Static: worked out once until a spec or the schema changes."""
        recipients = self._recipients.get(schema_name)
        if recipients is None:
            agents = {agent for (name, __), eligible in self.assignment.items()
                      if name == schema_name for agent in eligible}
            agents.update(self.authority_agent_for(spec)
                          for spec in self.spec_index.specs_for(schema_name))
            recipients = self._recipients[schema_name] = frozenset(agents)
        return recipients

    def _on_schema_registered(self, compiled: CompiledSchema) -> None:
        self._governed.pop(compiled.name, None)
        self._recipients.pop(compiled.name, None)
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
        self._recipients.clear()
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

    # -- where a WI lands: the schema's coordination agent, then the owner map ----------

    def _place(self, schema_name: str, instance_id: str) -> WorkflowAgentNode:
        agent = self.coordination_agent_for(schema_name)
        self._note_owner(instance_id, agent.name)
        return agent

    def _owner_node(self, instance_id: str) -> WorkflowAgentNode:
        return self.agent(self._noted_owner(instance_id))

    # -- status probes ---------------------------------------------------------------

    def probe_workflow(self, instance_id: str, delay: float = 0.0) -> None:
        """Launch the probe chain locating the instance's current steps."""
        agent = self._owner_node(instance_id)
        self.schedule_frontend(delay, agent, agent.workflow_status_probe, instance_id)

    def probe_reports(self, instance_id: str) -> list[dict]:
        """Probe reports gathered at the instance's coordination agent."""
        return self._owner_node(instance_id).probe_reports(instance_id)
