"""Run-time cores for the coordinated-execution building blocks.

Section 3 of the paper introduces three building blocks — *relative
ordering*, *mutual exclusion* and *rollback dependency* — enforced at run
time through the ``AddRule()`` / ``AddEvent()`` / ``AddPrecondition()``
primitives.  In centralized control the enforcement state lives inside the
engine; in distributed control it lives at a deterministic *authority*
agent ("the first pair of conflicting steps is established by the agents
via the AddRule() workflow interface", Figure 4), and clearances flow back
to waiting agents as ``AddEvent()`` calls.

The classes here are transport-free state machines.  Engines wire them up:

* a **governed step** completion is *reported* to the authority;
* before executing a governed step, the executor adds a precondition event
  to the step's rule and *requests clearance*; the authority grants it
  immediately or when the blocking condition clears;
* instance abort/withdrawal releases whatever the instance held.

Conflict binding follows :mod:`repro.model.coordination_spec`: two
instances conflict when their ``conflict_key`` data item values are equal
(or always, when the spec has no key).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Hashable

from repro.errors import CoordinationError
from repro.model.coordination_spec import (
    MutualExclusionSpec,
    RelativeOrderSpec,
    RollbackDependencySpec,
)
from repro.rules.events import external_event

__all__ = [
    "MutualExclusionAuthority",
    "RelativeOrderAuthority",
    "RollbackDependencyAuthority",
    "mx_clearance_token",
    "ro_clearance_token",
]


def ro_clearance_token(spec_name: str, pair_index: int, instance_id: str) -> str:
    """Precondition event granting instance ``instance_id`` pair ``pair_index``."""
    return external_event(f"RO.{spec_name}.{pair_index}.{instance_id}")


def mx_clearance_token(spec_name: str, instance_id: str) -> str:
    """Precondition event granting the mutual-exclusion region."""
    return external_event(f"MX.{spec_name}.{instance_id}")


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
    #: Ordering key: an auto-incremented int in single-authority mode, or an
    #: externally supplied totally-ordered key (e.g. ``(time, instance)``)
    #: in replicated mode so every replica derives the same leading/lagging
    #: relation.
    seq: Any


@dataclass(frozen=True)
class ClearanceGrant:
    """A clearance the transport layer must now deliver."""

    schema: str
    instance: str
    pair_index: int
    token: str


_seq_of = attrgetter("seq")


def _remove(regs: list[_Registration], reg: _Registration) -> None:
    """Drop ``reg`` from a ``seq``-sorted list, if it is there."""
    at = bisect_left(regs, reg.seq, key=_seq_of)
    while at < len(regs) and regs[at].seq == reg.seq:
        if regs[at] is reg:
            del regs[at]
            return
        at += 1


class _Group:
    """The registrations sharing one conflict-key value."""

    __slots__ = ("members", "blockers", "pending")

    def __init__(self, n_pairs: int):
        #: Every registration of the key, ``seq``-sorted.
        self.members: list[_Registration] = []
        #: ``blockers[k - 1]``: the members that have not completed pair
        #: ``k`` (``1 <= k < n_pairs``), ``seq``-sorted.
        self.blockers: list[list[_Registration]] = [[] for __ in range(n_pairs - 1)]
        #: ``(ticket, grant)`` requests of members still waiting, oldest first.
        self.pending: list[tuple[int, ClearanceGrant]] = []


class RelativeOrderAuthority:
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

    Only equal conflict keys order instances, so the state is indexed by
    key (:class:`_Group`) and every protocol call costs what the in-flight
    instances of the affected keys cost, whatever the authority has seen
    before (DESIGN section 6, "Coordination-authority internals").
    """

    def __init__(self, spec: RelativeOrderSpec):
        self.spec = spec
        self._same_schema = spec.schema_a == spec.schema_b
        self._n_pairs = len(spec.steps_a)
        self._seq = 0
        self._ticket = 0
        self._registrations: dict[str, _Registration] = {}
        #: instance -> completed pair indexes; a later-pair report may
        #: arrive before the pair-0 report registers the instance.
        self._completions: dict[str, set[int]] = {}
        self._groups: dict[Hashable | None, _Group] = {}

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
        mine = _Registration(schema, instance, key, order_key)
        self._registrations[instance] = mine
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _Group(self._n_pairs)
        # By seq, not by arrival: a replicated order key that arrives late
        # can sort before members already registered, and then leads them.
        insort(group.members, mine, key=_seq_of)
        done = self._completions.get(instance, ())
        for pair_index, blockers in enumerate(group.blockers, start=1):
            if pair_index not in done:
                insort(blockers, mine, key=_seq_of)

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
        done = self._completions.setdefault(instance, set())
        if pair_index in done:
            return []
        done.add(pair_index)
        mine = self._registrations.get(instance)
        if mine is None or pair_index == 0:
            return []  # a straggler or a registration unblocks nobody
        if 1 <= pair_index < self._n_pairs:
            _remove(self._groups[mine.key].blockers[pair_index - 1], mine)
        return self._drain(self._conflicting(mine.key), pair_index)

    def request_clearance(
        self, schema: str, instance: str, pair_index: int, key: Hashable | None
    ) -> ClearanceGrant | None:
        """Ask to execute pair step ``pair_index``; returns the grant if it
        can proceed now, otherwise records it as pending."""
        grant = ClearanceGrant(
            schema,
            instance,
            pair_index,
            ro_clearance_token(self.spec.name, pair_index, instance),
        )
        if pair_index == 0:
            # First pair executes freely; order is established by its completion.
            return grant
        mine = self._registration(instance)
        if self._cleared(schema, mine, pair_index):
            return grant
        self._ticket += 1
        self._groups[mine.key].pending.append((self._ticket, grant))
        return None

    def withdraw(self, instance: str) -> list[ClearanceGrant]:
        """Remove an aborted instance; may unblock lagging instances."""
        mine = self._forget(instance)
        if mine is None:
            return []
        return self._drain(self._conflicting(mine.key))

    def retire(self, instance: str) -> None:
        """Forget a committed instance, if it has completed every pair of
        the spec: it can then block nobody, so no answer changes and there
        is nothing to grant.  An instance that skipped a governed step (an
        XOR path around it) stays, as DESIGN section 7 documents."""
        done = self._completions.get(instance)
        if done is not None and done.issuperset(range(self._n_pairs)):
            self._forget(instance)

    def is_registered(self, instance: str) -> bool:
        """False before the pair-0 report and after withdrawal or retirement."""
        return instance in self._registrations

    # -- internals ------------------------------------------------------------------------

    def _registration(self, instance: str) -> _Registration:
        mine = self._registrations.get(instance)
        if mine is None:
            raise CoordinationError(
                f"instance {instance!r} requested ordering before registering "
                f"its first governed step under spec {self.spec.name!r}"
            )
        return mine

    def _forget(self, instance: str) -> _Registration | None:
        """Drop everything held for ``instance``; returns its registration."""
        self._completions.pop(instance, None)
        mine = self._registrations.pop(instance, None)
        if mine is None:
            return None
        group = self._groups[mine.key]
        _remove(group.members, mine)
        for blockers in group.blockers:
            _remove(blockers, mine)
        group.pending = [entry for entry in group.pending if entry[1].instance != instance]
        if not group.members:
            del self._groups[mine.key]
        return mine

    def _conflicting(self, key: Hashable | None) -> list[_Group]:
        """The groups whose members conflict with ``key``: its own and the
        ``None`` group — or all of them, since a ``None`` key binds every
        instance."""
        if key is None:
            return list(self._groups.values())
        groups = (self._groups.get(key), self._groups.get(None))
        return [group for group in groups if group is not None]

    def _conflicting_members(self, key: Hashable | None) -> list[_Registration]:
        """Every registration that conflicts with ``key``, ``seq``-sorted."""
        groups = self._conflicting(key)
        if len(groups) == 1:
            return groups[0].members
        return sorted((m for group in groups for m in group.members), key=_seq_of)

    def _orders(self, schema: str, other: _Registration) -> bool:
        """Ordering binds across the two schemas of the spec (any two
        instances when they are one schema)."""
        return self._same_schema or other.schema != schema

    def _cleared(self, schema: str, mine: _Registration, pair_index: int) -> bool:
        """True when no conflicting leader still owes pair ``pair_index``:
        in each conflicting group, the first blocker the spec orders
        against ``mine`` does not sort before it."""
        for group in self._conflicting(mine.key):
            if 1 <= pair_index < self._n_pairs:
                blockers = group.blockers[pair_index - 1]
            else:
                # Beyond the spec: no engine asks, so nothing is indexed.
                blockers = [
                    member for member in group.members
                    if pair_index not in self._completions.get(member.instance, ())
                ]
            for other in blockers:
                if other.seq >= mine.seq:
                    break
                if self._orders(schema, other):
                    return False
        return True

    def _drain(
        self, groups: list[_Group], pair_index: int | None = None
    ) -> list[ClearanceGrant]:
        """Take the pending requests of ``groups`` (of one pair, or of any)
        that are now cleared, oldest request first."""
        granted = []
        for group in groups:
            still_pending = []
            for entry in group.pending:
                grant = entry[1]
                if (pair_index is None or grant.pair_index == pair_index) and self._cleared(
                    grant.schema, self._registrations[grant.instance], grant.pair_index
                ):
                    granted.append(entry)
                else:
                    still_pending.append(entry)
            group.pending = still_pending
        if len(groups) > 1:
            granted.sort()  # tickets are unique: pending-insertion order
        return [grant for __, grant in granted]

    # -- introspection ----------------------------------------------------------------------

    def leaders_of(self, schema: str, instance: str) -> list[_Registration]:
        """Conflicting instances registered before ``instance``."""
        mine = self._registration(instance)
        return [
            other for other in self._conflicting_members(mine.key)
            if other.seq < mine.seq and self._orders(schema, other)
        ]

    def is_leading(self, instance: str, other: str) -> bool | None:
        """True if ``instance`` leads ``other`` (None when undetermined)."""
        a = self._registrations.get(instance)
        b = self._registrations.get(other)
        if a is None or b is None:
            return None
        return a.seq < b.seq

    def established_pairs(self) -> list[tuple[str, str]]:
        """All (leading, lagging) conflicting instance pairs so far."""
        regs = sorted(self._registrations.values(), key=_seq_of)
        pairs = []
        for i, lead in enumerate(regs):
            for lag in regs[i + 1 :]:
                if self._orders(lead.schema, lag) and _conflicts(lead.key, lag.key):
                    pairs.append((lead.instance, lag.instance))
        return pairs

    def pairs_of(self, instance: str) -> list[tuple[str, str]]:
        """The rows of :meth:`established_pairs` that mention ``instance``,
        in the same order, read from the groups it conflicts with."""
        mine = self._registrations.get(instance)
        if mine is None:
            return []
        pairs = []
        leading = True  # members met before ``mine`` lead it
        for other in self._conflicting_members(mine.key):
            if other is mine:
                leading = False
            elif self._orders(mine.schema, other):
                pairs.append((other.instance, instance) if leading else (instance, other.instance))
        return pairs


class MutualExclusionAuthority:
    """FIFO region lock manager for one :class:`MutualExclusionSpec`."""

    def __init__(self, spec: MutualExclusionSpec):
        self.spec = spec
        self._holders: dict[Hashable, tuple[str, str]] = {}
        self._queues: dict[Hashable, deque[tuple[str, str]]] = {}

    @staticmethod
    def _lock_key(key: Hashable | None) -> Hashable:
        return key if key is not None else "__ANY__"

    def acquire(self, schema: str, instance: str, key: Hashable | None) -> bool:
        """Request the region lock; True when granted immediately.

        Re-acquisition by the current holder (re-execution after rollback)
        is granted idempotently.
        """
        lock = self._lock_key(key)
        holder = self._holders.get(lock)
        if holder is None:
            self._holders[lock] = (schema, instance)
            return True
        if holder == (schema, instance):
            return True
        queue = self._queues.setdefault(lock, deque())
        if (schema, instance) not in queue:
            queue.append((schema, instance))
        return False

    def release(self, schema: str, instance: str, key: Hashable | None) -> tuple[str, str] | None:
        """Release the lock; returns the next grantee, if any.

        Releasing a lock one doesn't hold (e.g. a rolled back region that
        never acquired it) silently drops any queued request instead.
        """
        lock = self._lock_key(key)
        queue = self._queues.get(lock)
        grantee = None
        if self._holders.get(lock) != (schema, instance):
            if queue and (schema, instance) in queue:
                queue.remove((schema, instance))
        elif queue:
            grantee = self._holders[lock] = queue.popleft()
        else:
            del self._holders[lock]
        if queue is not None and not queue:
            del self._queues[lock]  # only contended keys have an entry
        return grantee

    def withdraw(self, instance: str) -> list[tuple[str, str]]:
        """Forget a terminal instance under whatever key it asked: its
        queued requests go and the locks it holds pass on.  Returns the
        ``(schema, instance)`` grantees that now hold one."""
        asked = [(lock, schema) for lock, queue in self._queues.items()
                 for schema, waiting in queue if waiting == instance]
        asked += [(lock, schema) for lock, (schema, holder) in self._holders.items()
                  if holder == instance]
        # A lock key is its own ``_lock_key``; ``release`` dequeues a
        # waiter and passes a holder's lock on.
        passed_on = [self.release(schema, instance, lock) for lock, schema in asked]
        return [grantee for grantee in passed_on if grantee is not None]

    def holder(self, key: Hashable | None) -> tuple[str, str] | None:
        return self._holders.get(self._lock_key(key))

    def queue_length(self, key: Hashable | None) -> int:
        return len(self._queues.get(self._lock_key(key), ()))


class RollbackDependencyAuthority:
    """Tracks which instances must roll back when a trigger fires."""

    def __init__(self, spec: RollbackDependencySpec):
        self.spec = spec
        self._targets: dict[str, Hashable | None] = {}

    def report_target_executed(self, instance: str, key: Hashable | None) -> None:
        """Instance of ``schema_b`` completed ``rollback_to_b``."""
        self._targets[instance] = key

    def withdraw(self, instance: str) -> None:
        self._targets.pop(instance, None)

    def dependents_of(self, trigger_instance: str, key: Hashable | None) -> list[str]:
        """Conflicting instances to roll back when the trigger fires."""
        return sorted(
            inst
            for inst, inst_key in self._targets.items()
            if inst != trigger_instance and _conflicts(inst_key, key)
        )
