"""Fluent construction of workflow schemas.

:class:`SchemaBuilder` is the primary public entry point for defining
workflows in code (the LAWS language in :mod:`repro.laws` compiles to
builder calls).  ``build()`` assembles an immutable
:class:`~repro.model.schema.WorkflowSchema` and runs full validation.

Example::

    from repro.model import SchemaBuilder

    b = SchemaBuilder("OrderProcessing", inputs=["qty", "part"])
    b.step("S1", program="check_stock", inputs=["WF.qty"], outputs=["avail"])
    b.step("S2", program="reserve", inputs=["S1.avail"], outputs=["rsv"])
    b.step("S3", program="expedite")
    b.step("S4", program="confirm", join="xor")
    b.arc("S1", "S2")
    b.branch("S2", [("S3", "S1.avail < 5")], otherwise="S4")
    b.arc("S3", "S4")
    b.rollback_point("S2", "S1")
    b.compensation_set("S1", "S2")
    schema = b.build()
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import SchemaError
from repro.model.policies import CRPolicy, DEFAULT_POLICY
from repro.model.schema import ControlArc, JoinKind, StepDef, StepType, WorkflowSchema
from repro.model.validation import validate_schema

__all__ = ["SchemaBuilder"]


def _as_join(value: JoinKind | str) -> JoinKind:
    if isinstance(value, JoinKind):
        return value
    try:
        return JoinKind(value)
    except ValueError:
        raise SchemaError(f"unknown join kind {value!r} (use 'and'/'xor'/'none')") from None


def _as_step_type(value: StepType | str) -> StepType:
    if isinstance(value, StepType):
        return value
    try:
        return StepType(value)
    except ValueError:
        raise SchemaError(f"unknown step type {value!r} (use 'query'/'update')") from None


class SchemaBuilder:
    """Accumulates steps/arcs/annotations and produces a validated schema."""

    def __init__(self, name: str, inputs: Sequence[str] = (), version: int = 1):
        self.name = name
        self.inputs = tuple(inputs)
        self.version = version
        self._steps: dict[str, StepDef] = {}
        self._arcs: list[ControlArc] = []
        self._compensation_sets: list[frozenset[str]] = []
        self._rollback_points: dict[str, str] = {}
        self._cr_policies: dict[str, CRPolicy] = {}
        self._abort_compensation: list[str] = []
        self._outputs: dict[str, str] = {}

    # -- steps -----------------------------------------------------------------

    def step(
        self,
        name: str,
        program: str = "noop",
        *,
        step_type: StepType | str = StepType.UPDATE,
        inputs: Sequence[str] = (),
        outputs: Sequence[str] = (),
        resources: Iterable[str] = (),
        cost: float = 1.0,
        compensable: bool = True,
        compensation_program: str | None = None,
        compensation_cost: float | None = None,
        join: JoinKind | str = JoinKind.NONE,
        subworkflow: str | None = None,
        cr_policy: CRPolicy | None = None,
    ) -> "SchemaBuilder":
        """Add one step definition.  Returns ``self`` for chaining."""
        if name in self._steps:
            raise SchemaError(f"duplicate step {name!r} in workflow {self.name!r}")
        self._steps[name] = StepDef(
            name=name,
            program=program,
            step_type=_as_step_type(step_type),
            inputs=tuple(inputs),
            outputs=tuple(outputs),
            resources=frozenset(resources),
            cost=cost,
            compensable=compensable,
            compensation_program=compensation_program,
            compensation_cost=compensation_cost,
            join=_as_join(join),
            subworkflow=subworkflow,
        )
        if cr_policy is not None:
            self._cr_policies[name] = cr_policy
        return self

    # -- arcs ------------------------------------------------------------------

    def arc(self, src: str, dst: str, condition: str | None = None) -> "SchemaBuilder":
        """Add a (possibly conditional) forward control arc."""
        self._arcs.append(ControlArc(src, dst, condition=condition))
        return self

    def sequence(self, *steps: str) -> "SchemaBuilder":
        """Chain ``steps`` with unconditional arcs: S1 -> S2 -> ... -> Sn."""
        if len(steps) < 2:
            raise SchemaError("sequence() needs at least two steps")
        for src, dst in zip(steps, steps[1:]):
            self.arc(src, dst)
        return self

    def parallel(self, src: str, branches: Sequence[str]) -> "SchemaBuilder":
        """AND-split: unconditional arcs from ``src`` to each branch head."""
        if len(branches) < 2:
            raise SchemaError("parallel() needs at least two branch heads")
        for dst in branches:
            self.arc(src, dst)
        return self

    def branch(
        self,
        src: str,
        conditional: Sequence[tuple[str, str]],
        otherwise: str | None = None,
    ) -> "SchemaBuilder":
        """XOR-split: conditional arcs plus an optional else-arc.

        ``conditional`` is a sequence of ``(dst, condition)`` pairs,
        evaluated in order; ``otherwise`` is taken when none holds.
        """
        if not conditional:
            raise SchemaError("branch() needs at least one conditional arc")
        for dst, condition in conditional:
            if condition is None:
                raise SchemaError(
                    f"branch arc {src}->{dst} must carry a condition "
                    "(use `otherwise=` for the fallback)"
                )
            self._arcs.append(ControlArc(src, dst, condition=condition))
        if otherwise is not None:
            self._arcs.append(ControlArc(src, otherwise, is_else=True))
        return self

    def join(
        self, dst: str, sources: Sequence[str], kind: JoinKind | str = JoinKind.AND
    ) -> "SchemaBuilder":
        """Declare a confluence step fed by ``sources``.

        A convenience over separate :meth:`arc` calls; also (re)declares
        the step's join kind, so the step must already exist.
        """
        if dst not in self._steps:
            raise SchemaError(f"join target {dst!r} must be declared before join()")
        if len(sources) < 2:
            raise SchemaError("join() needs at least two sources")
        for src in sources:
            self.arc(src, dst)
        current = self._steps[dst]
        if current.join is JoinKind.NONE:
            self._steps[dst] = StepDef(
                **{**_stepdef_kwargs(current), "join": _as_join(kind)}
            )
        return self

    def loop(self, src: str, dst: str, while_condition: str) -> "SchemaBuilder":
        """Loop-back arc: when ``while_condition`` holds after ``src`` is
        done, control returns to ``dst`` and the loop body re-executes."""
        self._arcs.append(ControlArc(src, dst, condition=while_condition, loop=True))
        return self

    # -- failure-handling annotations -------------------------------------------

    def rollback_point(self, failed_step: str, origin: str) -> "SchemaBuilder":
        """On failure of ``failed_step``, roll back to ``origin`` and re-execute."""
        self._rollback_points[failed_step] = origin
        return self

    def compensation_set(self, *members: str) -> "SchemaBuilder":
        """Declare a compensation dependent set (reverse-order compensation)."""
        if len(members) < 2:
            raise SchemaError("a compensation dependent set needs at least two members")
        self._compensation_sets.append(frozenset(members))
        return self

    def abort_compensation(self, *steps: str) -> "SchemaBuilder":
        """Steps to compensate on a user-initiated workflow abort."""
        self._abort_compensation.extend(steps)
        return self

    def output(self, name: str, ref: str) -> "SchemaBuilder":
        """Expose a data item as a workflow-level output."""
        self._outputs[name] = ref
        return self

    # -- assembly -----------------------------------------------------------------

    def build(self, validate: bool = True) -> WorkflowSchema:
        """Produce the immutable schema; runs full validation by default."""
        schema = WorkflowSchema(
            name=self.name,
            inputs=self.inputs,
            steps=dict(self._steps),
            arcs=tuple(self._arcs),
            compensation_sets=tuple(self._compensation_sets),
            rollback_points=dict(self._rollback_points),
            cr_policies={
                step: self._cr_policies.get(step, DEFAULT_POLICY) for step in self._steps
            },
            abort_compensation_steps=tuple(self._abort_compensation),
            outputs=dict(self._outputs),
            version=self.version,
        )
        if validate:
            validate_schema(schema)
        return schema


def _stepdef_kwargs(step: StepDef) -> dict:
    """Decompose a StepDef into constructor kwargs (for copy-with-change)."""
    return {
        "name": step.name,
        "program": step.program,
        "step_type": step.step_type,
        "inputs": step.inputs,
        "outputs": step.outputs,
        "resources": step.resources,
        "cost": step.cost,
        "compensable": step.compensable,
        "compensation_program": step.compensation_program,
        "compensation_cost": step.compensation_cost,
        "join": step.join,
        "subworkflow": step.subworkflow,
    }
