"""Volatile per-instance runtime records.

Every control architecture pairs an :class:`~repro.storage.tables.InstanceState`
(the durable table row) with a rule engine and some volatile enactment
bookkeeping.  :class:`InstanceRuntime` is that shared pairing;
:class:`EngineRuntime` adds the engine-side extras (centralized and
parallel control) and :class:`AgentRuntime` the agent-side extras
(distributed control, where the state is a *fragment* assembled from
workflow packets).

A table that almost every instance leaves empty (loop counts, mutex
states, the agent's in-flight bookkeeping) holds the one shared
:data:`IDLE` mapping until its first write: reads work on it unchanged,
:meth:`InstanceRuntime.table` gives the field a dict of its own, and
:meth:`InstanceRuntime.drop` hands an emptied field back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping

from repro.model.compiler import CompiledSchema
from repro.rules.engine import RuleEngine
from repro.runtime.metrics import Mechanism
from repro.storage.tables import InstanceState

__all__ = ["IDLE", "AgentRuntime", "EngineRuntime", "InstanceRuntime"]

#: What an idle table field holds: one read-only empty mapping shared by
#: every runtime (``get``, ``in``, iteration and truth work on it).
IDLE: Mapping[Any, Any] = MappingProxyType({})


def _idle() -> Mapping[Any, Any]:
    """Default factory of a table field (a mapping proxy is no plain
    dataclass default)."""
    return IDLE


@dataclass(slots=True)
class InstanceRuntime:
    """Volatile enactment state for one instance at one node."""

    state: InstanceState
    compiled: CompiledSchema
    engine: RuleEngine
    recovery_mechanism: Mechanism = Mechanism.NORMAL
    #: loop rule id -> iterations so far
    loop_fires: Mapping[str, int] = field(default_factory=_idle)
    #: spec -> none/requested/held/released
    mx_state: Mapping[str, str] = field(default_factory=_idle)
    governed: int = 0
    parent_link: tuple[str, str] | None = None

    def table(self, name: str) -> dict:
        """Table field ``name`` as a dict of its own, made on first write."""
        table = getattr(self, name)
        if table is IDLE:
            table = {}
            setattr(self, name, table)
        return table

    def drop(self, name: str, key: Any) -> Any:
        """Remove ``key`` from table field ``name`` and return its value
        (``None`` when absent); an emptied field goes back to :data:`IDLE`."""
        table = getattr(self, name)
        if key not in table:
            return None
        value = table.pop(key)
        if not table:
            setattr(self, name, IDLE)
        return value

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


@dataclass(slots=True)
class EngineRuntime(InstanceRuntime):
    """Engine-side per-instance runtime (centralized/parallel control)."""

    reported: set[str] = field(default_factory=set)


@dataclass(slots=True)
class AgentRuntime(InstanceRuntime):
    """An agent's volatile enactment state for one instance fragment."""

    recovery_mechanism: Mechanism = Mechanism.FAILURE
    hosted: frozenset[str] = frozenset()
    executors: dict[str, str] = field(default_factory=dict)
    assigned: dict[str, str] = field(default_factory=dict)  # step -> agent
    #: Steps this agent executed and navigated onward (HaltThread must
    #: propagate through them).
    forwarded: set[str] = field(default_factory=set)
    #: epoch -> origin step of that epoch's rollback
    origin_history: Mapping[int, str] = field(default_factory=_idle)
    #: Established (spec, leading, lagging) orders this agent has learned —
    #: piggybacked on outgoing packets (Figure 7's "R.O." lines).
    ro_info: set[tuple[str, str, str]] = field(default_factory=set)
    #: step -> epoch of the execution currently in flight on this agent;
    #: guards stale completions from before a rollback.
    running_exec: Mapping[str, int] = field(default_factory=_idle)
    input_overrides: Mapping[str, Any] = field(default_factory=_idle)
    #: step -> (plan, inputs, mechanism) of a re-execution waiting for its
    #: compensation set to finish.
    pending_exec: Mapping[str, tuple] = field(default_factory=_idle)
    #: step -> the agent whose execution of it a watchdog timer checks on.
    watchdogs: Mapping[str, str] = field(default_factory=_idle)

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
