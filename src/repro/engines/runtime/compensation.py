"""Compensation-chain records and chain-ordering helpers.

Compensation dependent sets must be undone strictly in reverse execution
order (paper Section 3.2).  A centralized engine walks the chain itself
(:class:`CompensationChain`); distributed agents forward a static member
list hop by hop — :func:`compensate_set_chain` and
:func:`reverse_topo_order` build those lists, and the ``*_times`` helpers
identify which members' completions are stale (belong to a rolled back
pass) versus re-established.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.rules.engine import RuleEngine
from repro.runtime.metrics import Mechanism
from repro.rules.events import step_done
from repro.storage.tables import InstanceState, StepStatus

__all__ = [
    "CompensationChain",
    "compensate_set_chain",
    "member_done_times",
    "reverse_topo_order",
]


class CompensationChain:
    """An in-order compensation walk with a continuation on completion."""

    __slots__ = ("instance_id", "steps", "mechanism", "on_done")

    def __init__(
        self,
        instance_id: str,
        steps: list[str],
        mechanism: Mechanism,
        on_done: Any,  # zero-arg callable
    ) -> None:
        self.instance_id = instance_id
        self.steps = steps
        self.mechanism = mechanism
        self.on_done = on_done


def compensate_set_chain(
    members: Iterable[str], origin_step: str, topo_index
) -> list[str]:
    """Static CompensateSet StepList: the members downstream of
    ``origin_step`` in reverse topological order, ending at the origin.

    The initiator cannot know which downstream members actually ran
    (packets only flow forward), so the list is static and each hop agent
    checks locally whether its step "has been executed" (and is stale)
    before compensating — exactly the paper's CompensateSet() procedure.
    """
    later = [
        m
        for m in members
        if m != origin_step and topo_index(m) > topo_index(origin_step)
    ]
    later.sort(key=lambda m: -topo_index(m))
    return [*later, origin_step]


def reverse_topo_order(members: Iterable[str], topo_index) -> list[str]:
    """Members in reverse topological order (CompensateThread chains)."""
    return sorted(members, key=lambda m: -topo_index(m))


def member_done_times(
    engine: RuleEngine, state: InstanceState, members: Iterable[str]
) -> dict[str, float]:
    """Best-known completion times of ``members`` (valid occurrences first,
    falling back to the step table for completions merged via packets)."""
    done_times: dict[str, float] = {}
    for member in members:
        occurrence = engine.events.occurrence(step_done(member))
        if occurrence is not None and occurrence.valid:
            done_times[member] = occurrence.time
        else:
            record = state.steps.get(member)
            if record is not None and record.status is StepStatus.DONE:
                done_times[member] = record.done_at or 0.0
    return done_times
