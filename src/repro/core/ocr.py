"""Opportunistic compensation and re-execution (OCR) — paper Figure 5.

OCR is the paper's failure-handling contribution: when a partially rolled
back workflow re-executes, each already-executed step is handled by its
compensation/re-execution (CR) condition instead of being blindly
compensated and redone:

    "instead of immediately executing the step, the compensation and
    re-execution condition is checked first to determine the exact course
    of action, i.e., whether the step is to be partially compensated and
    incrementally re-executed or whether a complete compensation and
    re-execution is needed. ... If a re-execution is not necessary then a
    step.done event is generated, else the step is compensated and then
    re-executed."

Compensation dependent sets add an ordering constraint: "a compensation
dependent set is to be compensated only in the reverse execution order of
its member steps", realized in distributed control by the CompensateSet()
chain.

This module is pure logic — no messaging, no clocks — so the central,
parallel and distributed engines all share one OCR implementation and the
property-based tests can drive it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import RecoveryError
from repro.model.policies import CRDecision, CRPolicy
from repro.model.schema import StepDef
from repro.storage.tables import InstanceState, StepRecord, StepStatus

__all__ = [
    "OCRPlan",
    "compensation_set_order",
    "compensation_set_order_from_events",
    "plan_step_action",
    "stale_compensation_chain",
]


@dataclass(frozen=True)
class OCRPlan:
    """What to do when a step is (re)triggered.

    ``decision`` is ``None`` on a first execution (no OCR involvement).
    Costs are in step-cost units, already scaled for partial/incremental
    handling; the engines charge them as program work.
    """

    step: str
    first_execution: bool
    decision: CRDecision | None
    compensate: bool
    compensation_kind: str | None  # "complete" | "partial"
    compensation_cost: float
    reexecute: bool
    execution_kind: str | None  # "complete" | "incremental"
    execution_cost: float
    reuse_outputs: bool

    @property
    def total_cost(self) -> float:
        return self.compensation_cost + self.execution_cost

    def span_attrs(self) -> dict[str, Any]:
        """Observability attributes for rollback/re-execution spans.

        Flat, JSON-safe key/value pairs so every engine annotates its
        recovery and step spans identically — what the OCR condition
        decided, how it will be realized and what it costs.
        """
        return {
            "ocr.step": self.step,
            "ocr.first_execution": self.first_execution,
            "ocr.decision": self.decision.name if self.decision else "NONE",
            "ocr.compensation": self.compensation_kind or "none",
            "ocr.execution": self.execution_kind or "none",
            "ocr.reuse": self.reuse_outputs,
            "ocr.cost": self.total_cost,
        }


def _forward_plans(step_def: StepDef) -> tuple[OCRPlan, OCRPlan]:
    """The plans of a step executed without OCR, indexed by
    ``first_execution``.

    They depend on the step definition alone, so the first call builds
    them and leaves them on the (frozen) definition for every later one.
    """
    plans = step_def.__dict__.get("_forward_plans")
    if plans is None:
        plans = tuple(
            OCRPlan(
                step=step_def.name,
                first_execution=first,
                decision=None,
                compensate=False,
                compensation_kind=None,
                compensation_cost=0.0,
                reexecute=True,
                execution_kind="complete",
                execution_cost=step_def.cost,
                reuse_outputs=False,
            )
            for first in (False, True)
        )
        object.__setattr__(step_def, "_forward_plans", plans)
    return plans


def plan_step_action(
    step_def: StepDef,
    record: StepRecord,
    new_inputs: Mapping[str, Any],
    policy: CRPolicy,
) -> OCRPlan:
    """Evaluate the CR condition for one (re)triggered step.

    ``record`` is the step-status row (including the previous execution's
    inputs/outputs, which the OCR scheme requires the node to retain);
    ``new_inputs`` are the input values the step would see now.
    """
    if record.status in (StepStatus.NOT_STARTED, StepStatus.COMPENSATED):
        return _forward_plans(step_def)[record.executions == 0]

    if record.status is StepStatus.FAILED:
        # A failed step left no effects to undo; simply execute again.
        return _forward_plans(step_def)[False]

    if record.status is StepStatus.RUNNING:
        raise RecoveryError(
            f"step {step_def.name!r} re-triggered while still running — the "
            "thread was not quiesced before re-execution"
        )

    # Previously DONE: consult the CR condition.
    decision = policy.decide(record.last_inputs, new_inputs, record.last_outputs)
    if decision is CRDecision.REUSE:
        return OCRPlan(
            step=step_def.name,
            first_execution=False,
            decision=decision,
            compensate=False,
            compensation_kind=None,
            compensation_cost=0.0,
            reexecute=False,
            execution_kind=None,
            execution_cost=0.0,
            reuse_outputs=True,
        )

    if decision is CRDecision.INCREMENTAL:
        fraction = policy.incremental_fraction
        can_compensate = step_def.compensable
        return OCRPlan(
            step=step_def.name,
            first_execution=False,
            decision=decision,
            compensate=can_compensate,
            compensation_kind="partial" if can_compensate else None,
            compensation_cost=(
                step_def.effective_compensation_cost * fraction if can_compensate else 0.0
            ),
            reexecute=True,
            execution_kind="incremental",
            execution_cost=step_def.cost * fraction,
            reuse_outputs=False,
        )

    # COMPLETE
    can_compensate = step_def.compensable
    return OCRPlan(
        step=step_def.name,
        first_execution=False,
        decision=decision,
        compensate=can_compensate,
        compensation_kind="complete" if can_compensate else None,
        compensation_cost=step_def.effective_compensation_cost if can_compensate else 0.0,
        reexecute=True,
        execution_kind="complete",
        execution_cost=step_def.cost,
        reuse_outputs=False,
    )


def compensation_set_order(
    members: frozenset[str], state: InstanceState, up_to: str | None = None
) -> list[str]:
    """Reverse-execution-order compensation list for a dependent set.

    Returns the *executed* members of ``members``, latest execution first
    (the paper's StepList for the CompensateSet() chain).  When ``up_to``
    is given, the list stops at (and includes) that step: members executed
    *before* it keep their effects — only steps executed after the
    re-executing member, plus the member itself, must be undone.
    """
    executed = [
        state.steps[m]
        for m in members
        if m in state.steps and state.steps[m].status is StepStatus.DONE
    ]
    ordered = sorted(executed, key=lambda r: r.exec_seq or 0, reverse=True)
    result = [r.step for r in ordered]
    if up_to is not None:
        if up_to not in result:
            raise RecoveryError(
                f"step {up_to!r} is not an executed member of the compensation set"
            )
        result = result[: result.index(up_to) + 1]
    return result


def compensation_set_order_from_events(
    members: frozenset[str],
    done_times: Mapping[str, float],
    up_to: str | None = None,
) -> list[str]:
    """Distributed-control variant of :func:`compensation_set_order`.

    An agent's fragment only holds step records for steps executed locally;
    the *event table* (assembled from workflow packets) holds ``step.done``
    times for everything upstream, so the CompensateSet StepList is derived
    from those.  ``done_times`` maps step name -> done-event time.
    """
    executed = [(time, step) for step, time in done_times.items() if step in members]
    executed.sort(key=lambda pair: (-pair[0], pair[1]))
    result = [step for __, step in executed]
    if up_to is not None:
        if up_to not in result:
            raise RecoveryError(
                f"step {up_to!r} has no valid done event among the set members"
            )
        result = result[: result.index(up_to) + 1]
    return result


def stale_compensation_chain(
    members: frozenset[str],
    stale_done_times: Mapping[str, float],
    initiator: str,
) -> list[str]:
    """The CompensateSet StepList for a re-triggered set member.

    ``stale_done_times`` maps members to the done-times of their *rolled
    back* (invalidated) executions — members whose current done event is
    valid were already re-established and must not be compensated.  Per the
    paper, "the other members of the set that executed after the step are
    also compensated in the reverse execution order before the step is
    compensated and re-executed": the chain is the stale members executed
    at-or-after the initiator, latest first, ending with the initiator
    itself.
    """
    cutoff = stale_done_times.get(initiator, float("-inf"))
    later = [
        m
        for m in members
        if m != initiator and m in stale_done_times and stale_done_times[m] >= cutoff
    ]
    later.sort(key=lambda m: (-stale_done_times[m], m))
    return [*later, initiator]
