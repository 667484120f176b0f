"""The scan implementation of the relative-order authority, kept as the
test oracle.

This is the class ``repro.core.coordination.RelativeOrderAuthority`` was
before it was rebuilt around the conflict key: every question is answered
by walking all registrations, which makes it slow and obviously right.
The body is verbatim; only the class name changed, and ``retire`` was
added with the meaning the indexed class gives it (forget a fully
completed instance, drain nothing).  ``tests/core/test_ro_differential.py``
drives both with the same operations.

The questions only tests ask of the indexed authority — its leaders of
an instance, who leads whom, every established pair — are answered here
too, by :func:`leaders_of`, :func:`is_leading` and
:func:`established_pairs`, from the indexed class's own registrations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Hashable

from repro.core.coordination import (
    ClearanceGrant,
    RelativeOrderAuthority,
    ro_clearance_token,
)
from repro.errors import CoordinationError
from repro.model.coordination_spec import RelativeOrderSpec

__all__ = [
    "ScanRelativeOrderAuthority",
    "Shadowed",
    "established_pairs",
    "is_leading",
    "leaders_of",
]


def leaders_of(authority: RelativeOrderAuthority, schema: str, instance: str) -> list:
    """Conflicting instances registered before ``instance``."""
    mine = authority._registration(instance)
    return [
        other for other in authority._conflicting_members(mine.key)
        if other.seq < mine.seq and authority._orders(schema, other)
    ]


def is_leading(authority: RelativeOrderAuthority, instance: str, other: str) -> bool | None:
    """True if ``instance`` leads ``other`` (None when undetermined)."""
    a = authority._registrations.get(instance)
    b = authority._registrations.get(other)
    if a is None or b is None:
        return None
    return a.seq < b.seq


def established_pairs(authority: RelativeOrderAuthority) -> list[tuple[str, str]]:
    """All (leading, lagging) conflicting instance pairs so far."""
    regs = sorted(authority._registrations.values(), key=lambda r: r.seq)
    pairs = []
    for i, lead in enumerate(regs):
        for lag in regs[i + 1 :]:
            if authority._orders(lead.schema, lag) and _conflicts(lead.key, lag.key):
                pairs.append((lead.instance, lag.instance))
    return pairs


def _conflicts(key_a: Hashable | None, key_b: Hashable | None) -> bool:
    """Key-based conflict binding; a ``None`` key conflicts with everything."""
    if key_a is None or key_b is None:
        return True
    return key_a == key_b


@dataclass(frozen=True)
class _Registration:
    schema: str
    instance: str
    key: Hashable | None
    seq: Any


class ScanRelativeOrderAuthority:
    """Serialization point for one :class:`RelativeOrderSpec`.

    Protocol (mirrors the paper's Figure 4 exchange):

    1. When an instance completes its *first* governed pair step, the
       executing agent reports it (:meth:`report_completion` with pair
       index 0).  Registration order establishes leading/lagging between
       conflicting instances: earlier registrant leads.
    2. Before executing pair step ``k >= 1``, the executor requests
       clearance.  It is granted once every conflicting *leader* has
       completed its own pair-``k`` step.
    3. Completions of pair ``k`` steps are reported; the authority returns
       the clearances that become grantable.
    """

    def __init__(self, spec: RelativeOrderSpec):
        self.spec = spec
        self._seq = 0
        self._registrations: dict[str, _Registration] = {}
        self._completions: set[tuple[str, int]] = set()
        self._pending: list[ClearanceGrant] = []

    # -- spec geometry ------------------------------------------------------------

    def pair_index(self, schema: str, step: str) -> int | None:
        """Index of ``step`` within the spec's governed pairs (None if not
        governed for that schema)."""
        for side_schema, steps in (
            (self.spec.schema_a, self.spec.steps_a),
            (self.spec.schema_b, self.spec.steps_b),
        ):
            if schema == side_schema and step in steps:
                return steps.index(step)
        return None

    # -- protocol ------------------------------------------------------------------

    def _register(
        self,
        schema: str,
        instance: str,
        key: Hashable | None,
        order_key: Any = None,
    ) -> None:
        if instance in self._registrations:
            return
        if order_key is None:
            self._seq += 1
            order_key = self._seq
        self._registrations[instance] = _Registration(schema, instance, key, order_key)

    def leaders_of(self, schema: str, instance: str) -> list[_Registration]:
        """Conflicting instances registered before ``instance``."""
        mine = self._registrations.get(instance)
        if mine is None:
            raise CoordinationError(
                f"instance {instance!r} requested ordering before registering "
                f"its first governed step under spec {self.spec.name!r}"
            )
        leaders = []
        for other in self._registrations.values():
            if other.instance == instance:
                continue
            if other.seq >= mine.seq:
                continue
            if self.spec.schema_a != self.spec.schema_b and other.schema == schema:
                continue  # ordering binds instances across the two schemas
            if _conflicts(other.key, mine.key):
                leaders.append(other)
        return sorted(leaders, key=lambda r: r.seq)

    def report_completion(
        self,
        schema: str,
        instance: str,
        pair_index: int,
        key: Hashable | None,
        order_key: Any = None,
    ) -> list[ClearanceGrant]:
        """Record a governed-step completion; returns newly-grantable
        clearances (including, possibly, ones for other instances)."""
        if pair_index == 0:
            self._register(schema, instance, key, order_key)
        self._completions.add((instance, pair_index))
        return self._drain_grantable()

    def request_clearance(
        self, schema: str, instance: str, pair_index: int, key: Hashable | None
    ) -> ClearanceGrant | None:
        """Ask to execute pair step ``pair_index``; returns the grant if it
        can proceed now, otherwise records it as pending."""
        if pair_index == 0:
            # First pair executes freely; order is established by its completion.
            return ClearanceGrant(
                schema, instance, pair_index, ro_clearance_token(self.spec.name, 0, instance)
            )
        grant = ClearanceGrant(
            schema,
            instance,
            pair_index,
            ro_clearance_token(self.spec.name, pair_index, instance),
        )
        if self._cleared(schema, instance, pair_index):
            return grant
        self._pending.append(grant)
        return None

    def withdraw(self, instance: str) -> list[ClearanceGrant]:
        """Remove an aborted instance; may unblock lagging instances."""
        self._registrations.pop(instance, None)
        self._completions = {c for c in self._completions if c[0] != instance}
        self._pending = [g for g in self._pending if g.instance != instance]
        return self._drain_grantable()

    def retire(self, instance: str) -> None:
        """Not in the verbatim body: the meaning of the indexed class's
        ``retire``, said with scans.  A fully completed instance blocks
        nobody, so forgetting it changes no ``_cleared`` answer and nothing
        is drained."""
        if all((instance, k) in self._completions for k in range(len(self.spec.steps_a))):
            self._registrations.pop(instance, None)
            self._completions = {c for c in self._completions if c[0] != instance}
            self._pending = [g for g in self._pending if g.instance != instance]

    # -- internals ------------------------------------------------------------------------

    def _cleared(self, schema: str, instance: str, pair_index: int) -> bool:
        return all(
            (leader.instance, pair_index) in self._completions
            for leader in self.leaders_of(schema, instance)
        )

    def _drain_grantable(self) -> list[ClearanceGrant]:
        granted, still_pending = [], []
        for grant in self._pending:
            if self._cleared(grant.schema, grant.instance, grant.pair_index):
                granted.append(grant)
            else:
                still_pending.append(grant)
        self._pending = still_pending
        return granted

    # -- introspection ----------------------------------------------------------------------

    def is_leading(self, instance: str, other: str) -> bool | None:
        """True if ``instance`` leads ``other`` (None when undetermined)."""
        a = self._registrations.get(instance)
        b = self._registrations.get(other)
        if a is None or b is None:
            return None
        return a.seq < b.seq

    def established_pairs(self) -> list[tuple[str, str]]:
        """All (leading, lagging) conflicting instance pairs so far."""
        regs = sorted(self._registrations.values(), key=lambda r: r.seq)
        pairs = []
        for i, lead in enumerate(regs):
            for lag in regs[i + 1 :]:
                cross = self.spec.schema_a == self.spec.schema_b or lead.schema != lag.schema
                if cross and _conflicts(lead.key, lag.key):
                    pairs.append((lead.instance, lag.instance))
        return pairs


class Shadowed:
    """Applies every call to the keyed authority and to the scan oracle,
    requires the same answer (or the same refusal), and hands it on — so it
    can stand in for the authority inside a running engine too."""

    def __init__(self, spec: RelativeOrderSpec):
        self.spec = spec
        self.keyed = RelativeOrderAuthority(spec)
        self.scan = ScanRelativeOrderAuthority(spec)

    def _both(self, method: str, *args, **kwargs):
        answers = []
        for authority in (self.keyed, self.scan):
            try:
                answers.append(getattr(authority, method)(*args, **kwargs))
            except CoordinationError as refusal:
                answers.append(str(refusal))
        assert answers[0] == answers[1], (method, args, kwargs)
        return answers[0]

    def report_completion(self, *args, **kwargs):
        return self._both("report_completion", *args, **kwargs)

    def request_clearance(self, *args):
        return self._both("request_clearance", *args)

    def withdraw(self, instance):
        return self._both("withdraw", instance)

    def retire(self, instance):
        return self._both("retire", instance)

    def is_registered(self, instance):
        answer = self.keyed.is_registered(instance)
        assert answer == (instance in self.scan._registrations)
        return answer

    def pairs_of(self, instance):
        """The piggyback rows: the oracle's full table, filtered."""
        rows = self.keyed.pairs_of(instance)
        assert rows == [p for p in self.scan.established_pairs() if instance in p]
        return rows

    def check_introspection(self, instances) -> None:
        assert established_pairs(self.keyed) == self.scan.established_pairs()
        for instance in instances:
            self.pairs_of(instance)
            self.is_registered(instance)
            for other in instances:
                assert is_leading(self.keyed, instance, other) == self.scan.is_leading(
                    instance, other
                )
            for schema in self.spec.schemas():
                leaders = []
                for ask in (partial(leaders_of, self.keyed), self.scan.leaders_of):
                    try:
                        found = ask(schema, instance)
                        leaders.append([(r.schema, r.instance, r.key, r.seq) for r in found])
                    except CoordinationError as refusal:
                        leaders.append(str(refusal))
                assert leaders[0] == leaders[1]
        # Nothing cleared is left waiting, nothing waiting was dropped.
        waiting = sorted(
            entry for group in self.keyed._groups.values() for entry in group.pending
        )
        assert [grant for __, grant in waiting] == self.scan._pending
