"""Public facade for centralized workflow control."""

from __future__ import annotations

from repro.engines.base import ControlSystem, SystemConfig
from repro.engines.centralized.agents import ApplicationAgentNode
from repro.engines.centralized.engine import CentralEngineNode
from repro.model.compiler import CompiledSchema
from repro.model.coordination_spec import CoordinationSpec

__all__ = ["CentralizedControlSystem"]


class CentralizedControlSystem(ControlSystem):
    """Public facade for centralized workflow control."""

    architecture = "centralized"

    def __init__(
        self,
        config: SystemConfig | None = None,
        num_agents: int = 4,
        agents_per_step: int = 1,
        runtime=None,
    ):
        super().__init__(config, runtime=runtime)
        self.agents_per_step = agents_per_step
        self.engines = self._new_engines()
        self.agents = [
            ApplicationAgentNode(f"agent-{i:03d}", self) for i in range(num_agents)
        ]

    def _new_engines(self) -> list[CentralEngineNode]:
        return [CentralEngineNode("engine", self)]

    @property
    def engine(self) -> CentralEngineNode:
        """The central engine (the first engine, under parallel control)."""
        return self.engines[0]

    # -- wiring ------------------------------------------------------------------

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
            engine.add_spec(spec)

    # -- where a WI lands: the one engine, for every instance ------------------------

    def _place(self, schema_name: str, instance_id: str) -> CentralEngineNode:
        return self.engine

    def _owner_node(self, instance_id: str) -> CentralEngineNode:
        return self.engine
