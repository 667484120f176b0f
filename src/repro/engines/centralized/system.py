"""Public facade for centralized workflow control."""

from __future__ import annotations

from typing import Any, Mapping

from repro.engines.base import ControlSystem, SystemConfig
from repro.engines.centralized.agents import ApplicationAgentNode
from repro.engines.centralized.engine import CentralEngineNode
from repro.model.compiler import CompiledSchema
from repro.model.coordination_spec import CoordinationSpec
from repro.storage.tables import InstanceStatus

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

    # -- ownership: which engine controls an instance --------------------------------

    def _engine_for_new(self) -> CentralEngineNode:
        return self.engine

    def _owner_engine(self, instance_id: str) -> CentralEngineNode:
        return self.engine

    # -- front-end database operations ----------------------------------------------

    def start_workflow(
        self, schema_name: str, inputs: Mapping[str, Any], delay: float = 0.0
    ) -> str:
        self.compiled(schema_name)  # validate registration eagerly
        instance_id = self.new_instance_id(schema_name)
        engine = self._engine_for_new()
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
