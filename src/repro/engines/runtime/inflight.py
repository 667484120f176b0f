"""Wait-state records for dispatched steps and load probes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.runtime.metrics import Mechanism

__all__ = ["InflightStep", "LoadProbe", "ProbeWait"]


@dataclass
class InflightStep:
    """A step execution dispatched to an agent, awaiting its StepResult.

    Its step span is not here: the engine's ``step.*`` events open and
    close it in the control system (``engines/base.py``).
    """

    epoch: int
    inputs: dict[str, Any]
    attempt: int
    mechanism: Mechanism
    agent: str
    cost: float = 0.0  # execution cost, kept for watchdog re-dispatch
    #: An abort (or unhandled failure) of the instance halted the step: its
    #: result is stale, and the abort's end retires the record.
    halted: bool = False


@dataclass
class ProbeWait:
    """Engine-side StateInformation fan-out pending its load replies.

    The engine probes every eligible agent of a step and dispatches the
    execution to the least loaded once all replies are in.  A rollback
    over the step, or an abort of its instance, retires the wait first.
    """

    instance_id: str
    step: str
    waiting: set[str]
    loads: dict[str, int]
    cost: float
    mechanism: Mechanism
    inputs: dict[str, Any]
    attempt: int


@dataclass
class LoadProbe:
    """Agent-side successor-selection probe (distributed two-phase dispatch).

    The navigating agent probes the successor step's eligible peers and
    sends the workflow packets once all replies are in.  Packets are built
    when sent, so a probe that outlives a rollback carries the new epoch
    and the invalidated events: the successor cannot fire from the
    rolled-back completion.
    """

    instance_id: str
    successor: str
    mechanism: Mechanism
    eligible: tuple[str, ...]
    waiting: set[str]
    loads: dict[str, int]
