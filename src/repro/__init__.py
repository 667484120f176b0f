"""CREW — Coordinated Recovery and Execution of Workflows.

A complete reproduction of *"Failure Handling and Coordinated Execution of
Concurrent Workflows"* (M. Kamath, K. Ramamritham, ICDE 1998) and its
extended technical report (CMPSCI TR 98-28): the rule-based workflow
management system with opportunistic compensation and re-execution (OCR),
coordinated-execution building blocks, and the centralized / parallel /
distributed workflow control architectures, all running on a deterministic
discrete-event simulator.

Quickstart::

    from repro import (
        SchemaBuilder, DistributedControlSystem, SystemConfig,
    )

    system = DistributedControlSystem(SystemConfig(seed=1), num_agents=8)
    builder = SchemaBuilder("Hello", inputs=["x"])
    builder.step("S1", inputs=["WF.x"], outputs=["y"])
    builder.step("S2", inputs=["S1.y"], outputs=["z"])
    builder.sequence("S1", "S2")
    builder.output("z", "S2.z")
    system.register_schema(builder.build())
    instance = system.start_workflow("Hello", {"x": 41})
    system.run()
    print(system.outcome(instance).outputs)
"""

from repro.engines import (
    CentralizedControlSystem,
    ControlSystem,
    DistributedControlSystem,
    FrontEndDatabase,
    InstanceOutcome,
    ParallelControlSystem,
    SystemConfig,
)
from repro.errors import CrewError
from repro.laws import load_laws
from repro.model import (
    AlwaysReexecute,
    CompiledSchema,
    ConditionPolicy,
    CRDecision,
    CRPolicy,
    IncrementalIfInputsChanged,
    JoinKind,
    MutualExclusionSpec,
    RelativeOrderSpec,
    ReuseIfInputsUnchanged,
    RollbackDependencySpec,
    SchemaBuilder,
    StepDef,
    StepType,
    WorkflowSchema,
    compile_schema,
)
from repro.runtime.metrics import Mechanism
from repro.storage import InstanceStatus, StepStatus
from repro.workloads import (
    PAPER_DEFAULTS,
    WorkloadGenerator,
    WorkloadParameters,
    figure3_workflow,
    order_processing,
    travel_booking,
)

#: ``pyproject.toml``'s ``[project] version`` (a test keeps them equal);
#: a constant, so ``import repro`` does not load ``importlib.metadata``.
__version__ = "1.0.0"

__all__ = [
    "AlwaysReexecute",
    "CentralizedControlSystem",
    "CompiledSchema",
    "ConditionPolicy",
    "ControlSystem",
    "CRDecision",
    "CRPolicy",
    "CrewError",
    "DistributedControlSystem",
    "FrontEndDatabase",
    "IncrementalIfInputsChanged",
    "InstanceOutcome",
    "InstanceStatus",
    "JoinKind",
    "Mechanism",
    "MutualExclusionSpec",
    "PAPER_DEFAULTS",
    "ParallelControlSystem",
    "RelativeOrderSpec",
    "ReuseIfInputsUnchanged",
    "RollbackDependencySpec",
    "SchemaBuilder",
    "StepDef",
    "StepStatus",
    "StepType",
    "SystemConfig",
    "WorkflowSchema",
    "WorkloadGenerator",
    "WorkloadParameters",
    "compile_schema",
    "figure3_workflow",
    "load_laws",
    "order_processing",
    "travel_booking",
]
