"""The three workflow control architectures of the paper (Figure 6).

* :class:`~repro.engines.centralized.CentralizedControlSystem` — one
  engine owning all state; agents only execute steps.
* :class:`~repro.engines.parallel.ParallelControlSystem` — ``e`` engines
  sharing the load, one owner per instance, broadcast coordination.
* :class:`~repro.engines.distributed.DistributedControlSystem` — no
  engine; agents navigate via workflow packets and the 16 workflow
  interfaces of Table 1.

All three expose the same facade (:class:`~repro.engines.base.ControlSystem`),
so examples, tests and benchmarks swap architectures freely, by name
through :data:`CONTROL_SYSTEMS` / :func:`control_system_class`.
"""

from repro.engines.base import (
    AgentAssignment,
    ControlSystem,
    InstanceOutcome,
    SystemConfig,
    governed_step_count,
)
from repro.engines.centralized import (
    ApplicationAgentNode,
    CentralEngineNode,
    CentralizedControlSystem,
)
from repro.engines.coord import AuthorityBundle, SpecIndex
from repro.engines.distributed import (
    CommitTracker,
    DistributedControlSystem,
    WorkflowAgentNode,
    elect_executor,
)
from repro.engines.frontend import FrontEndDatabase
from repro.engines.parallel import (
    ParallelControlSystem,
    ParallelEngineNode,
    TimestampMutex,
)
from repro.engines.runtime import AgentRuntime, EngineRuntime, InstanceRuntime
from repro.errors import ParameterError

#: Architecture name -> control-system class, in the paper's order.
CONTROL_SYSTEMS: dict[str, type[ControlSystem]] = {
    "centralized": CentralizedControlSystem,
    "parallel": ParallelControlSystem,
    "distributed": DistributedControlSystem,
}


def control_system_class(architecture: str) -> type[ControlSystem]:
    """The class for an architecture name; unknown names are refused."""
    try:
        return CONTROL_SYSTEMS[architecture]
    except KeyError:
        raise ParameterError(
            f"unknown architecture {architecture!r}; choose one of "
            f"{list(CONTROL_SYSTEMS)}"
        ) from None


__all__ = [
    "AgentAssignment",
    "AgentRuntime",
    "ApplicationAgentNode",
    "AuthorityBundle",
    "CONTROL_SYSTEMS",
    "CentralEngineNode",
    "CentralizedControlSystem",
    "CommitTracker",
    "ControlSystem",
    "DistributedControlSystem",
    "EngineRuntime",
    "FrontEndDatabase",
    "InstanceOutcome",
    "InstanceRuntime",
    "ParallelControlSystem",
    "ParallelEngineNode",
    "SpecIndex",
    "SystemConfig",
    "TimestampMutex",
    "WorkflowAgentNode",
    "control_system_class",
    "elect_executor",
    "governed_step_count",
]
