"""Workflow schema model.

"A workflow schema is essentially a directed graph with nodes representing
the steps to be performed ... The arcs connecting the steps are of two
types: data and control arcs."  (paper, Section 2)

This module defines the immutable schema objects:

* :class:`StepDef` — a step ("black box" program) with declared inputs,
  outputs, resource set, cost and compensation information;
* :class:`ControlArc` — ordering between two steps, optionally conditional
  (if-then-else branch) or a loop-back arc;
* :class:`WorkflowSchema` — the graph plus the failure-handling annotations
  of the paper: per-step rollback points, compensation dependent sets and
  compensation/re-execution (CR) policies.

Data arcs are represented implicitly: a step's ``inputs`` tuple names the
data items it consumes (``"WF.I1"`` for workflow inputs, ``"S2.O1"`` for
step outputs), which both defines the data flow and lets the compiler add
the corresponding ``step.done`` events to the step's triggering rule.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import SchemaError
from repro.model.policies import CRPolicy

__all__ = [
    "ControlArc",
    "JoinKind",
    "StepDef",
    "StepType",
    "WorkflowSchema",
    "workflow_input_ref",
    "step_output_ref",
    "split_ref",
]


class StepType(enum.Enum):
    """Whether a step's program updates shared resources or only queries.

    The distinction drives the paper's predecessor-agent failure handling:
    "if the step is performing a query then the successor agent requests
    the execution of that step [at] one of the available predecessor
    agents"; update steps must wait for the failed agent to recover.
    """

    QUERY = "query"
    UPDATE = "update"


class JoinKind(enum.Enum):
    """How a step with several incoming control arcs is triggered."""

    #: Single incoming arc (or start step) — no join semantics.
    NONE = "none"
    #: Confluence of parallel branches: wait for *all* predecessors.
    AND = "and"
    #: Confluence of if-then-else branches: wait for *any one* predecessor.
    XOR = "xor"


def workflow_input_ref(name: str) -> str:
    """Data reference for a workflow-level input item (``WF.I1``)."""
    return f"WF.{name}"


def step_output_ref(step: str, output: str) -> str:
    """Data reference for a step output item (``S2.O1``)."""
    return f"{step}.{output}"


def split_ref(ref: str) -> tuple[str, str]:
    """Split ``"S2.O1"`` into ``("S2", "O1")``; raises on malformed refs."""
    scope, sep, item = ref.partition(".")
    if not sep or not scope or not item:
        raise SchemaError(f"malformed data reference {ref!r} (expected SCOPE.NAME)")
    return scope, item


@dataclass(frozen=True)
class ControlArc:
    """A control-flow arc between two steps.

    ``condition`` makes the arc an if-then-else branch; ``is_else`` marks
    the fallback branch of an if-then-else split.  ``loop`` marks a
    back-arc whose ``condition`` is the *continue* condition: when it holds
    after ``src`` completes, control returns to ``dst`` and the loop body
    re-executes.
    """

    src: str
    dst: str
    condition: str | None = None
    is_else: bool = False
    loop: bool = False

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise SchemaError(f"self-arc on step {self.src!r}")
        if self.is_else and self.condition is not None:
            raise SchemaError(f"else-arc {self.src}->{self.dst} cannot carry a condition")
        if self.loop and self.is_else:
            raise SchemaError(f"loop arc {self.src}->{self.dst} cannot be an else-arc")

    def describe(self) -> str:
        kind = "loop" if self.loop else ("else" if self.is_else else "arc")
        cond = f" when {self.condition!r}" if self.condition else ""
        return f"{kind} {self.src}->{self.dst}{cond}"


@dataclass(frozen=True)
class StepDef:
    """Definition of one workflow step.

    The WFMS treats the program as a black box; everything it needs to
    know — data flow, resource conflicts, costs, compensability — is
    declared here, exactly as the paper requires ("without any additional
    information a WFMS cannot determine if two steps ... accessed the same
    resources").
    """

    name: str
    program: str = "noop"
    step_type: StepType = StepType.UPDATE
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    resources: frozenset[str] = frozenset()
    cost: float = 1.0
    compensable: bool = True
    compensation_program: str | None = None
    compensation_cost: float | None = None
    join: JoinKind = JoinKind.NONE
    subworkflow: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("step name must be non-empty")
        if "." in self.name or self.name == "WF":
            raise SchemaError(f"illegal step name {self.name!r}")
        if self.cost < 0:
            raise SchemaError(f"step {self.name!r} has negative cost")
        for ref in self.inputs:
            split_ref(ref)  # validates shape
        for out in self.outputs:
            if "." in out:
                raise SchemaError(
                    f"step {self.name!r} output {out!r} must be a bare item name"
                )

    @property
    def effective_compensation_cost(self) -> float:
        """Cost of a *complete* compensation (defaults to the step cost)."""
        if self.compensation_cost is not None:
            return self.compensation_cost
        return self.cost

    def output_refs(self) -> tuple[str, ...]:
        """Fully-qualified references of this step's outputs."""
        return tuple(step_output_ref(self.name, out) for out in self.outputs)

    def input_producer_steps(self) -> frozenset[str]:
        """Names of steps whose outputs this step consumes."""
        producers = set()
        for ref in self.inputs:
            scope, __ = split_ref(ref)
            if scope != "WF":
                producers.add(scope)
        return frozenset(producers)


@dataclass(frozen=True)
class WorkflowSchema:
    """An immutable, validated-on-construction workflow definition.

    Use :class:`repro.model.builder.SchemaBuilder` to construct schemas
    fluently; the raw constructor performs only cheap structural checks —
    full validation lives in :mod:`repro.model.validation` and is invoked
    by the builder and by control systems at registration time.

    Attributes mirror the paper's specification surface:

    * ``rollback_points`` — "the agent where a step failure occurred calls
      the WorkflowRollback() WI of the agent responsible for the step to
      which the workflow is rolled back.  This information is static";
    * ``compensation_sets`` — compensation dependent sets, "to be
      compensated only in the reverse execution order of its member steps";
    * ``cr_policies`` — per-step compensation/re-execution conditions for
      the OCR scheme;
    * ``abort_compensation_steps`` — steps compensated on a user-initiated
      workflow abort "as specified in the workflow schema".
    """

    name: str
    inputs: tuple[str, ...] = ()
    steps: Mapping[str, StepDef] = field(default_factory=dict)
    arcs: tuple[ControlArc, ...] = ()
    compensation_sets: tuple[frozenset[str], ...] = ()
    rollback_points: Mapping[str, str] = field(default_factory=dict)
    cr_policies: Mapping[str, CRPolicy] = field(default_factory=dict)
    abort_compensation_steps: tuple[str, ...] = ()
    outputs: Mapping[str, str] = field(default_factory=dict)
    version: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("workflow name must be non-empty")
        if not self.steps:
            raise SchemaError(f"workflow {self.name!r} has no steps")

    # -- queries -------------------------------------------------------------

    def step(self, name: str) -> StepDef:
        try:
            return self.steps[name]
        except KeyError:
            raise SchemaError(f"workflow {self.name!r} has no step {name!r}") from None

    def forward_arcs(self) -> tuple[ControlArc, ...]:
        return tuple(arc for arc in self.arcs if not arc.loop)

    def loop_arcs(self) -> tuple[ControlArc, ...]:
        return tuple(arc for arc in self.arcs if arc.loop)

    def out_arcs(self, step: str) -> tuple[ControlArc, ...]:
        return tuple(arc for arc in self.arcs if arc.src == step and not arc.loop)

    def in_arcs(self, step: str) -> tuple[ControlArc, ...]:
        return tuple(arc for arc in self.arcs if arc.dst == step and not arc.loop)

    def successors(self, step: str) -> tuple[str, ...]:
        return tuple(arc.dst for arc in self.out_arcs(step))

    def predecessors(self, step: str) -> tuple[str, ...]:
        return tuple(arc.src for arc in self.in_arcs(step))

    def input_refs(self) -> tuple[str, ...]:
        """Fully-qualified references of the workflow-level inputs."""
        return tuple(workflow_input_ref(name) for name in self.inputs)

    def compensation_set_of(self, step: str) -> frozenset[str] | None:
        """The compensation dependent set containing ``step``, if any."""
        for members in self.compensation_sets:
            if step in members:
                return members
        return None

    def rollback_origin(self, failed_step: str) -> str | None:
        """The static rollback origin for a failure at ``failed_step``."""
        return self.rollback_points.get(failed_step)

    def describe(self) -> str:
        """Short multi-line human-readable rendering (used by examples)."""
        lines = [f"workflow {self.name} (inputs: {', '.join(self.inputs) or '-'})"]
        for step in self.steps.values():
            marks = []
            if step.join is not JoinKind.NONE:
                marks.append(f"join={step.join.value}")
            if step.subworkflow:
                marks.append(f"nested={step.subworkflow}")
            suffix = f" [{', '.join(marks)}]" if marks else ""
            lines.append(f"  step {step.name} ({step.program}){suffix}")
        for arc in self.arcs:
            lines.append(f"  {arc.describe()}")
        return "\n".join(lines)
