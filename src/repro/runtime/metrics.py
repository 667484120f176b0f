"""Metric accounting matching the paper's evaluation methodology.

Section 6 of the paper reports, for each control architecture, two numbers
per *mechanism*:

* **load at a node** — "the estimated number of steps or other actions that
  would be performed at the engine ... [or] at an agent", expressed in
  multiples of ``l``, the "navigation and other load per step
  (# of instructions)" (Table 3);
* **physical messages exchanged** — counted per instance and split by the
  mechanism that caused them.

The five mechanisms are the row labels of Tables 4-6:
normal execution, workflow input change, workflow abort, failure handling
and coordinated execution.  A sixth, the purge, is the distributed
agents' broadcast of finished instances, which the paper describes but
its tables do not cost.  :class:`Mechanism` encodes them; every message
sent through :mod:`repro.runtime.transport` and every unit of load charged
on a :class:`repro.runtime.node.Node` carries one — identically under the
simulated and wall-clock runtimes.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

__all__ = ["Mechanism", "MetricsCollector", "MetricsSnapshot"]


class Mechanism(enum.Enum):
    """The five cost-attribution categories of the paper's Tables 4-6, and
    the purge broadcast, which those tables leave out."""

    NORMAL = "normal_execution"
    INPUT_CHANGE = "workflow_input_change"
    ABORT = "workflow_abort"
    FAILURE = "failure_handling"
    COORDINATION = "coordinated_execution"
    PURGE = "purge"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class MetricsSnapshot:
    """An immutable copy of the collector state, for before/after diffing."""

    messages: Counter
    messages_by_interface: Counter
    load: Counter

    def messages_for(self, mechanism: Mechanism) -> int:
        return self.messages.get(mechanism, 0)


class MetricsCollector:
    """Accumulates message and load counters during a simulation run.

    Messages are attributed ``(mechanism, interface)``; load is attributed
    ``(node, mechanism)`` in units of ``l`` (the per-step navigation load of
    Table 3).  Benchmarks normalize by the number of completed instances to
    obtain the paper's "per instance" rows.
    """

    def __init__(self) -> None:
        self.messages: Counter = Counter()
        self.messages_by_interface: Counter = Counter()
        self.load: Counter = Counter()
        #: Program work units by (node, kind) with kind in
        #: {"execute", "compensate"} — the OCR-savings benchmark's currency.
        self.work: Counter = Counter()
        self.instances_started = 0
        self.instances_committed = 0
        self.instances_aborted = 0

    # -- recording ---------------------------------------------------------

    def record_message(self, mechanism: Mechanism, interface: str) -> None:
        """Count one physical message attributed to ``mechanism``."""
        self.messages[mechanism] += 1
        self.messages_by_interface[(mechanism, interface)] += 1

    def record_load(self, node: str, mechanism: Mechanism, units: float) -> None:
        """Charge ``units`` of navigation load (multiples of ``l``) to a node."""
        self.load[(node, mechanism)] += units

    def record_work(self, node: str, kind: str, units: float) -> None:
        """Charge program work (step execution or compensation cost)."""
        self.work[(node, kind)] += units

    def total_work(self, kind: str | None = None) -> float:
        if kind is None:
            return sum(self.work.values())
        return sum(v for (__, k), v in self.work.items() if k == kind)

    # -- queries -----------------------------------------------------------

    def total_messages(self, mechanism: Mechanism | None = None) -> int:
        if mechanism is None:
            return sum(self.messages.values())
        return self.messages.get(mechanism, 0)

    def interface_messages(self, interface: str) -> int:
        """Total messages sent through a given workflow interface."""
        return sum(
            count
            for (__, iface), count in self.messages_by_interface.items()
            if iface == interface
        )

    def node_load(self, node: str, mechanism: Mechanism | None = None) -> float:
        if mechanism is None:
            return sum(v for (n, __), v in self.load.items() if n == node)
        return self.load.get((node, mechanism), 0.0)

    def nodes(self) -> list[str]:
        """All nodes that have been charged any load, sorted."""
        return sorted({node for (node, __) in self.load})

    def max_node_load(self, mechanism: Mechanism, nodes: Iterable[str] | None = None) -> float:
        """The heaviest per-node load for a mechanism (the paper's 'load at engine')."""
        pool = list(nodes) if nodes is not None else self.nodes()
        if not pool:
            return 0.0
        return max(self.node_load(node, mechanism) for node in pool)

    def mean_node_load(self, mechanism: Mechanism, nodes: Iterable[str]) -> float:
        """Average per-node load over ``nodes`` for a mechanism."""
        pool = list(nodes)
        if not pool:
            return 0.0
        return sum(self.node_load(node, mechanism) for node in pool) / len(pool)

    # -- combination -------------------------------------------------------

    def merge(self, other: "MetricsCollector") -> "MetricsCollector":
        """Fold another collector's counts into this one (in place).

        The distributed engine keeps one logical collector today, but
        per-node collectors (e.g. sharded simulations, or registries
        rebuilt from per-agent WALs) combine into a single report with
        ``fleet = MetricsCollector(); fleet.merge(a).merge(b)``.
        Returns ``self`` for chaining.
        """
        self.messages.update(other.messages)
        self.messages_by_interface.update(other.messages_by_interface)
        self.load.update(other.load)
        self.work.update(other.work)
        self.instances_started += other.instances_started
        self.instances_committed += other.instances_committed
        self.instances_aborted += other.instances_aborted
        return self

    # -- lifecycle ---------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            messages=Counter(self.messages),
            messages_by_interface=Counter(self.messages_by_interface),
            load=Counter(self.load),
        )

    def reset(self) -> None:
        self.messages.clear()
        self.messages_by_interface.clear()
        self.load.clear()
        self.work.clear()
        self.instances_started = 0
        self.instances_committed = 0
        self.instances_aborted = 0

    def per_instance_messages(self, mechanism: Mechanism) -> float:
        """Messages per *started* instance — the unit used by Tables 4-6."""
        if self.instances_started == 0:
            return 0.0
        return self.messages.get(mechanism, 0) / self.instances_started

    def per_instance_load(self, mechanism: Mechanism, nodes: Iterable[str]) -> float:
        """Mean per-node load per started instance, in units of ``l``."""
        if self.instances_started == 0:
            return 0.0
        return self.mean_node_load(mechanism, nodes) / self.instances_started

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MetricsCollector msgs={self.total_messages()} "
            f"instances={self.instances_started}/{self.instances_committed}>"
        )
