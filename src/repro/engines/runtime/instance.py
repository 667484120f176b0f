"""Volatile per-instance runtime records.

Every control architecture pairs an :class:`~repro.storage.tables.InstanceState`
(the durable table row) with a rule engine and some volatile enactment
bookkeeping.  :class:`InstanceRuntime` is that shared pairing;
:class:`EngineRuntime` adds the engine-side extras (centralized and
parallel control) and :class:`AgentRuntime` the agent-side extras
(distributed control, where the state is a *fragment* assembled from
workflow packets).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.model.compiler import CompiledSchema
from repro.rules.engine import RuleEngine
from repro.runtime.metrics import Mechanism
from repro.storage.tables import InstanceState

__all__ = ["AgentRuntime", "EngineRuntime", "InstanceRuntime"]


@dataclass
class InstanceRuntime:
    """Volatile enactment state for one instance at one node."""

    state: InstanceState
    compiled: CompiledSchema
    engine: RuleEngine
    recovery_mechanism: Mechanism = Mechanism.NORMAL
    loop_fires: Counter = field(default_factory=Counter)
    mx_state: dict[str, str] = field(default_factory=dict)  # spec -> none/requested/held/released
    governed: int = 0
    parent_link: tuple[str, str] | None = None

    def step_mechanism(self, step: str) -> Mechanism:
        """Mechanism to account a (re-)execution of ``step`` under.

        A step touched in a previous pass (executed or compensated)
        re-executes under the active recovery mechanism; a first
        execution is normal navigation.
        """
        record = self.state.steps.get(step)
        if record is not None and (record.executions > 0 or record.compensations > 0):
            return self.recovery_mechanism
        return Mechanism.NORMAL

    def loop_continues(self, step: str) -> bool:
        """Does a loop template anchored at ``step`` still iterate?"""
        for template in self.compiled.loop_templates_for(step):
            condition = self.compiled.condition_for(template.rule_id)
            if condition is None:
                return True
            try:
                if condition.evaluate(self.state.env()):
                    return True
            except Exception:
                continue
        return False


@dataclass
class EngineRuntime(InstanceRuntime):
    """Engine-side per-instance runtime (centralized/parallel control)."""

    reported: set[str] = field(default_factory=set)
    nested_children: dict[str, str] = field(default_factory=dict)  # step -> child id


@dataclass
class AgentRuntime(InstanceRuntime):
    """An agent's volatile enactment state for one instance fragment."""

    recovery_mechanism: Mechanism = Mechanism.FAILURE
    hosted: frozenset[str] = frozenset()
    executors: dict[str, str] = field(default_factory=dict)
    assigned: dict[str, str] = field(default_factory=dict)  # step -> agent
    #: Steps this agent executed and navigated onward (HaltThread must
    #: propagate through them).
    forwarded: set[str] = field(default_factory=set)
    origin_history: dict[int, str] = field(default_factory=dict)
    #: Established (spec, leading, lagging) orders this agent has learned —
    #: piggybacked on outgoing packets (Figure 7's "R.O." lines).
    ro_info: set[tuple[str, str, str]] = field(default_factory=set)
    #: step -> epoch of the execution currently in flight on this agent;
    #: guards stale completions from before a rollback.
    running_exec: dict[str, int] = field(default_factory=dict)
    input_overrides: dict[str, Any] = field(default_factory=dict)
    pending_exec: dict[str, tuple] = field(default_factory=dict)
    watchdogs: set[str] = field(default_factory=set)

    @property
    def fragment(self) -> InstanceState:
        """The durable fragment this runtime enacts (alias of ``state``)."""
        return self.state

    @property
    def known_invalidations(self) -> dict[str, int]:
        """token -> invalidation round: occurrences from earlier rounds are
        stale.  Piggybacked on every outgoing packet (harmless to carry
        forever: a round-R cutoff cannot kill a round>=R occurrence) and
        persisted with the fragment so crash+recovery keeps the cutoffs.
        """
        return self.state.known_invalidations
