"""The per-instance ECA rule engine.

Each workflow instance is enacted by rules: "Rules are fired only after
examining that their conditions evaluate to true.  When a rule is fired it
triggers the execution of a step."  A rule waits in the *pending-rule
table* until every required event is valid in the event table.

The engine exposes the paper's three implementation-level primitives used
to satisfy coordinated-execution requirements:

* ``AddRule()``    — :meth:`RuleEngine.add_rule`
* ``AddEvent()``   — :meth:`RuleEngine.add_event`
* ``AddPrecondition()`` — :meth:`RuleEngine.add_precondition`

and the *invalidation* operation used by failure handling: invalidating
events resets any rule (fired or pending) that depended on them, so the
re-executed thread can re-trigger it — "rules in the pending rule table
from which the invalidated step.done events have been deleted are
discarded to ensure that incorrect rules will not be fired".

The engine is deliberately architecture-neutral: a central engine keeps
one per instance; a distributed agent keeps one per instance *fragment* it
participates in, fed by workflow packets.

Firing is **incremental** (a discrimination-network approach): a reverse
index ``event token → rule ids`` is built at construction, each rule
caches an *unmet-event counter*, and validity transitions in the event
table (delivered through :meth:`EventTable.subscribe`) decrement/increment
those counters.  A rule whose counter reaches zero enters a rule-id-keyed
ready-heap; :meth:`_pump` pops only those candidates instead of rescanning
the whole rule table.  The firing order is bit-identical to the original
scan-based loop (kept as the test oracle ``NaiveRuleEngine`` in
``tests/rules/reference_engine.py``): see ``_pump`` for the pass/cursor
discipline that preserves it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from repro.errors import ConditionError, RuleError
from repro.rules.conditions import Condition
from repro.rules.events import EventTable

if TYPE_CHECKING:  # pragma: no cover - break model<->rules import cycle
    from repro.model.compiler import CompiledSchema, RuleTemplate

__all__ = ["RuleEngine", "RuleInstance"]


@dataclass
class RuleInstance:
    """A live rule: template state plus dynamic preconditions and firing state.

    ``kind`` is ``"execute"``, ``"loop"`` or any engine-defined action verb
    for dynamically added rules (e.g. ``"notify"`` used by coordinated
    execution).  ``payload`` carries action-specific data for dynamic rules.

    ``required`` and ``fired`` must only be mutated through the owning
    :class:`RuleEngine` (``add_precondition``, invalidation/reset paths) —
    the engine keeps an unmet-event counter per rule that would go stale
    otherwise.
    """

    rule_id: str
    kind: str
    step: str
    required: frozenset[str]
    condition: Condition | None = None
    loop_target: str | None = None
    loop_body: frozenset[str] = frozenset()
    payload: dict[str, Any] = field(default_factory=dict)
    one_shot: bool = False
    fired: bool = False

    @classmethod
    def from_template(
        cls, template: "RuleTemplate", condition: Condition | None
    ) -> "RuleInstance":
        return cls(
            rule_id=template.rule_id,
            kind=template.kind,
            step=template.step,
            required=template.events,
            condition=condition,
            loop_target=template.loop_target,
            loop_body=template.loop_body,
        )

    def ready(self, events: EventTable) -> bool:
        return all(token in events for token in self.required)


class RuleEngine:
    """Event table + rule tables + firing loop for one workflow instance.

    ``action`` is invoked for every fired rule; it must not re-enter the
    engine synchronously except through the documented entry points
    (``post_event``/``add_event``/``merge_events``), which are re-entrancy
    safe because firing is driven by a single fix-point pump.
    """

    def __init__(
        self,
        compiled: "CompiledSchema",
        action: Callable[[RuleInstance], None],
        env_provider: Callable[[], Mapping[str, Any]],
        steps: Iterable[str] | None = None,
        fire_hook: Callable[[RuleInstance, "RuleEngine"], None] | None = None,
        profile: Any | None = None,
    ):
        """``steps`` restricts which rule templates are instantiated — a
        distributed agent only materializes the rules of steps it hosts.
        ``fire_hook`` is an observability callback invoked after each rule
        fires (before its action runs) with the rule and this engine; the
        engines use it to emit rule-firing spans and sample the
        pending-rule-table depth.  ``profile`` is a duck-typed profiler
        (see :class:`repro.obs.profile.Profiler`); when set, every pump
        runs inside a ``rules.pump`` frame and every firing inside a
        ``rules.fire`` frame."""
        self.compiled = compiled
        self.events = EventTable()
        self._action = action
        self._env_provider = env_provider
        self._fire_hook = fire_hook
        self.profile = profile
        self._rules: dict[str, RuleInstance] = {}
        self._pumping = False
        self._dirty = False
        # Reverse index and incremental firing state.
        self._index: dict[str, set[str]] = {}
        self._unmet: dict[str, int] = {}
        self._ready: list[str] = []       # heap of candidate rule ids
        self._queued: set[str] = set()    # ids currently in heap/deferred
        self._pending_ids: set[str] = set()
        self._added_mid_pass: list[str] = []
        self._new_this_pass: set[str] = set()
        self.events.subscribe(self._on_event_transition)
        hosted = set(steps) if steps is not None else None
        for template in compiled.rule_templates:
            if hosted is not None and template.step not in hosted:
                continue
            instance = RuleInstance.from_template(
                template, compiled.condition_for(template.rule_id)
            )
            self._rules[instance.rule_id] = instance
            self._index_rule(instance)

    # -- index maintenance -----------------------------------------------------

    def _index_rule(self, rule: RuleInstance) -> None:
        """Index a newly installed rule and seed its unmet counter."""
        rule_id = rule.rule_id
        for token in rule.required:
            self._index.setdefault(token, set()).add(rule_id)
        self._unmet[rule_id] = sum(
            1 for token in rule.required if token not in self.events
        )
        if self._pumping:
            # Mirrors the scan engine's per-pass snapshot: a rule added from
            # inside a rule action only becomes fireable on the *next* pass,
            # even if its events complete later in the current one.
            self._new_this_pass.add(rule_id)
        self._refresh_pending(rule)
        if self._unmet[rule_id] == 0 and not rule.fired:
            self._enqueue(rule_id)

    def _unindex_rule(self, rule: RuleInstance) -> None:
        rule_id = rule.rule_id
        for token in rule.required:
            ids = self._index.get(token)
            if ids is not None:
                ids.discard(rule_id)
                if not ids:
                    del self._index[token]
        self._unmet.pop(rule_id, None)
        self._pending_ids.discard(rule_id)
        # A stale heap entry (if any) is discarded lazily on pop.

    def _enqueue(self, rule_id: str) -> None:
        if rule_id in self._queued:
            return
        self._queued.add(rule_id)
        if self._pumping and rule_id in self._new_this_pass:
            self._added_mid_pass.append(rule_id)
        else:
            heapq.heappush(self._ready, rule_id)

    def _refresh_pending(self, rule: RuleInstance) -> None:
        """The paper's pending-rule table: unfired, ≥1 required event valid."""
        if (
            not rule.fired
            and rule.required
            and self._unmet[rule.rule_id] < len(rule.required)
        ):
            self._pending_ids.add(rule.rule_id)
        else:
            self._pending_ids.discard(rule.rule_id)

    def _on_event_transition(self, token: str, valid: bool) -> None:
        """EventTable delta: adjust unmet counters of rules needing ``token``."""
        ids = self._index.get(token)
        if not ids:
            return
        delta = -1 if valid else 1
        for rule_id in ids:
            unmet = self._unmet[rule_id] + delta
            self._unmet[rule_id] = unmet
            rule = self._rules[rule_id]
            self._refresh_pending(rule)
            if unmet == 0 and not rule.fired:
                self._enqueue(rule_id)

    def _rearm(self, rule: RuleInstance) -> None:
        """Reset a rule's fired flag and requeue it if already satisfied."""
        rule.fired = False
        self._refresh_pending(rule)
        if self._unmet[rule.rule_id] == 0:
            self._enqueue(rule.rule_id)

    # -- introspection ---------------------------------------------------------

    def rule(self, rule_id: str) -> RuleInstance:
        try:
            return self._rules[rule_id]
        except KeyError:
            raise RuleError(f"unknown rule {rule_id!r}") from None

    def rules_for_step(self, step: str) -> tuple[RuleInstance, ...]:
        return tuple(
            r for r in self._rules.values() if r.step == step and r.kind == "execute"
        )

    def all_rules(self) -> tuple[RuleInstance, ...]:
        return tuple(self._rules.values())

    def pending_rules(self) -> tuple[RuleInstance, ...]:
        """Unfired rules with at least one required event already valid —
        the paper's pending-rule table.  O(pending), not O(rules)."""
        return tuple(
            self._rules[rule_id] for rule_id in sorted(self._pending_ids)
        )

    def pending_count(self) -> int:
        """Depth of the pending-rule table, O(1) (observability sampling)."""
        return len(self._pending_ids)

    # -- the three implementation-level primitives --------------------------------

    def add_rule(self, rule: RuleInstance) -> None:
        """``AddRule()``: install a (dynamic) rule and evaluate immediately."""
        if rule.rule_id in self._rules:
            raise RuleError(f"duplicate rule id {rule.rule_id!r}")
        self._rules[rule.rule_id] = rule
        self._index_rule(rule)
        self._pump()

    def add_event(self, token: str, time: float) -> None:
        """``AddEvent()``: post an (external) event and fire eligible rules."""
        self.events.post(token, time)
        self._pump()

    def add_precondition(self, rule_id: str, token: str) -> None:
        """``AddPrecondition()``: require one more event before a rule fires.

        Rejected for already-fired rules — a precondition added after the
        fact cannot be honoured and indicates a protocol race upstream.
        """
        rule = self.rule(rule_id)
        if rule.fired:
            raise RuleError(
                f"cannot add precondition {token!r} to already-fired rule {rule_id!r}"
            )
        self._add_precondition(rule, token)

    def _add_precondition(self, rule: RuleInstance, token: str) -> None:
        if token in rule.required:
            return
        rule.required = rule.required | {token}
        self._index.setdefault(token, set()).add(rule.rule_id)
        if token not in self.events:
            self._unmet[rule.rule_id] += 1
        self._refresh_pending(rule)
        # A now-unsatisfied heap entry is discarded lazily on pop.

    def add_step_precondition(self, step: str, token: str) -> int:
        """Add a precondition to every unfired execute-rule of ``step``.

        Returns the number of rules affected (0 when the step's rules all
        fired already).
        """
        affected = 0
        for rule in self.rules_for_step(step):
            if not rule.fired:
                self._add_precondition(rule, token)
                affected += 1
        return affected

    # -- event intake ---------------------------------------------------------------

    def post_event(self, token: str, time: float, round: int = 0) -> None:
        """Record an internal event occurrence and fire eligible rules."""
        self.events.post(token, time, round)
        self._pump()

    def merge_events(self, tokens: Mapping[str, object], time: float) -> list[str]:
        """Fold a workflow packet's event set in; fires eligible rules."""
        added = self.events.merge(tokens, time)
        if added:
            self._pump()
        return added

    def invalidate_events(self, tokens: Iterable[str]) -> list[str]:
        """Invalidate events and reset every rule that depended on them."""
        hit = self.events.invalidate(tokens)
        self._reset_after_invalidation(hit)
        return hit

    def _reset_after_invalidation(self, hit: list[str]) -> None:
        """Re-arm rules affected by invalidated tokens.

        Two kinds of rules reset: rules *depending* on an invalidated event
        (they fired from now-stale state), and the execute/loop rules *of*
        a step whose own done/fail event was invalidated — invalidation
        means the step's completion no longer stands, so it must be able to
        re-fire during re-execution.
        """
        if not hit:
            return
        hit_set = set(hit)
        reset_steps = {
            token[:-2]
            for token in hit_set
            if token.endswith((".D", ".F")) and not token.startswith("EXT.")
        }
        for rule in self._rules.values():
            if rule.fired and (rule.required & hit_set or rule.step in reset_steps):
                self._rearm(rule)

    def apply_invalidations(self, invalidations: Mapping[str, int]) -> list[str]:
        """Apply message-carried invalidations (token -> invalidation round).

        A token is invalidated only when the local occurrence belongs to an
        *earlier* round, so a re-established event survives stale messages.
        Rules depending on invalidated tokens (and the rules of steps whose
        own completion events were invalidated) are re-armed.
        """
        hit = []
        for token, round in invalidations.items():
            if self.events.invalidate_before_round(token, int(round)):
                hit.append(token)
        self._reset_after_invalidation(hit)
        return hit

    def reset_rules_for_steps(self, steps: Iterable[str]) -> None:
        """Re-arm the execute-rules of the given steps (used on rollback)."""
        step_set = set(steps)
        for rule in self._rules.values():
            if rule.step in step_set:
                self._rearm(rule)

    def remove_rule(self, rule_id: str) -> None:
        rule = self._rules.pop(rule_id, None)
        if rule is not None:
            self._unindex_rule(rule)

    def reevaluate(self) -> None:
        """Re-run the firing loop (after invalidation/reset operations)."""
        self._pump()

    # -- firing ------------------------------------------------------------------------

    def _pump(self) -> None:
        """Fire ready rules to fix-point.  Re-entrant calls mark dirtiness.

        Pops candidates off the rule-id-keyed ready-heap instead of
        rescanning the rule table, while reproducing the scan engine's
        observable order exactly:

        * within a pass, rules fire in ascending rule-id order (``cursor``
          tracks the last-fired id; a candidate at or behind it — e.g. one
          re-armed by an invalidation inside an action — waits for the
          next pass, just as the sorted scan would only revisit it on its
          next sweep);
        * a candidate whose condition is false is deferred to the next
          pass and re-checked for as long as passes continue (the scan
          re-evaluated it every sweep);
        * a new pass starts whenever this one fired anything or a
          re-entrant entry-point call flagged ``_dirty``.
        """
        if self._pumping:
            self._dirty = True
            return
        profile = self.profile
        if profile is not None:
            profile.push("rules.pump")
        try:
            self._run_pump(profile)
        finally:
            if profile is not None:
                profile.pop()

    def _run_pump(self, profile: Any | None) -> None:
        self._pumping = True
        passes = 0
        try:
            while True:
                passes += 1
                if passes > 10_000:
                    raise RuleError(
                        "rule engine failed to reach a fix-point after 10000 "
                        "iterations — a rule action is re-arming its own rule"
                    )
                self._dirty = False
                fired_any = False
                cursor: str | None = None
                deferred: list[str] = []
                while self._ready:
                    rule_id = heapq.heappop(self._ready)
                    rule = self._rules.get(rule_id)
                    if (
                        rule is None
                        or rule.fired
                        or self._unmet.get(rule_id, 1) > 0
                    ):
                        self._queued.discard(rule_id)  # stale entry
                        continue
                    if cursor is not None and rule_id <= cursor:
                        deferred.append(rule_id)
                        continue
                    if not self._condition_holds(rule):
                        deferred.append(rule_id)
                        continue
                    self._queued.discard(rule_id)
                    rule.fired = True
                    self._pending_ids.discard(rule_id)
                    cursor = rule_id
                    fired_any = True
                    if self._fire_hook is not None:
                        self._fire_hook(rule, self)
                    if profile is None:
                        self._action(rule)
                    else:
                        profile.push("rules.fire")
                        try:
                            self._action(rule)
                        finally:
                            profile.pop()
                    if rule.one_shot:
                        self._rules.pop(rule_id, None)
                        self._unindex_rule(rule)
                for rule_id in deferred:
                    heapq.heappush(self._ready, rule_id)
                if self._added_mid_pass:
                    for rule_id in self._added_mid_pass:
                        heapq.heappush(self._ready, rule_id)
                    self._added_mid_pass.clear()
                self._new_this_pass.clear()
                if not (fired_any or self._dirty):
                    break
        finally:
            self._pumping = False

    def _condition_holds(self, rule: RuleInstance) -> bool:
        if rule.condition is None:
            return True
        env = self._env_provider()
        try:
            return rule.condition.evaluate(env)
        except ConditionError:
            # Referenced data not (yet) bound: the rule is not firable now;
            # it will be re-evaluated when further events/data arrive.
            return False
