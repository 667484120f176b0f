"""Schema compilation: from workflow graphs to ECA rule templates.

"Requirements expressed in LAWS are converted into rules which are tuples
containing an event, condition and action part" (paper, Section 1).  The
compiler derives, for every step, the rule(s) that trigger it:

* the start step fires on ``workflow.start``;
* a sequential step fires on its predecessor's ``step.done`` — plus the
  ``step.done`` events of every step it consumes data from ("the rule may
  require other step.done events depending on which of the steps it gets
  its input data from");
* an AND-join fires when *all* incoming branches are done;
* an XOR-join gets one rule per incoming arc;
* if-then-else branch rules get mutually-exclusivized conditions so that
  "only one of the rules will fire based on which branching condition
  evaluates to true";
* loop-back arcs compile to a ``loop`` rule guarded by the continue
  condition, and the forward continuation is guarded by its negation.

The compiler also precomputes the navigation metadata every control
architecture needs: terminal steps, invalidation sets for rollback, XOR
branch membership for CompensateThread, and *terminal profiles* used by
the distributed commit protocol to know which terminal-step completion
messages to expect given the branch decisions observed so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from repro.errors import CompilationError
from repro.model.graph import BranchInfo, SchemaGraph
from repro.model.schema import JoinKind, WorkflowSchema
from repro.model.validation import validate_schema
from repro.rules.conditions import Condition
from repro.rules.events import WF_START, step_done

__all__ = ["CompiledSchema", "RuleTemplate", "compile_schema"]


@dataclass(frozen=True)
class RuleTemplate:
    """An architecture-neutral ECA rule derived from the schema.

    ``kind`` is ``"execute"`` (fire the step) or ``"loop"`` (re-enter the
    loop body at ``loop_target``).  ``events`` are the tokens that must all
    be valid; ``condition_text`` (if any) must evaluate true over the data
    table at firing time.
    """

    rule_id: str
    kind: str
    step: str
    events: frozenset[str]
    condition_text: str | None = None
    loop_target: str | None = None
    loop_body: frozenset[str] = frozenset()


def _negate(text: str) -> str:
    return f"not ({text})"


def _conjoin(parts: list[str]) -> str | None:
    parts = [p for p in parts if p]
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return " and ".join(f"({p})" for p in parts)


def _exclusivized_conditions(branches: tuple[BranchInfo, ...]) -> dict[str, str]:
    """Per-branch (keyed by branch-first step) mutually exclusive conditions.

    Arc ``i``'s effective condition is ``c_i and not c_1 ... and not
    c_{i-1}``; the else-arc's is the negation of all conditions.  This
    guarantees exactly one branch rule can fire regardless of how the
    designer wrote the raw conditions.
    """
    out: dict[str, str] = {}
    prior: list[str] = []
    conditional = [b for b in branches if b.arc.condition is not None]
    elses = [b for b in branches if b.arc.is_else]
    for info in conditional:
        assert info.arc.condition is not None
        effective = _conjoin([info.arc.condition] + [_negate(c) for c in prior])
        assert effective is not None
        out[info.arc.dst] = effective
        prior.append(info.arc.condition)
    for info in elses:
        if not prior:
            raise CompilationError(
                f"else-arc out of {info.split!r} without any conditional arcs"
            )
        out[info.arc.dst] = _conjoin([_negate(c) for c in prior]) or "True"
    return out


@dataclass
class CompiledSchema:
    """A validated schema plus everything the run-time needs to enact it."""

    schema: WorkflowSchema
    graph: SchemaGraph
    start_step: str
    terminal_steps: tuple[str, ...]
    rule_templates: tuple[RuleTemplate, ...]
    conditions: dict[str, Condition]
    #: terminal step -> {xor split step -> branch-first step} decisions
    #: required for that terminal to be reachable.
    terminal_profiles: dict[str, dict[str, str]]

    # -- navigation helpers --------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @cached_property
    def templates_by_step(self) -> dict[str, tuple[RuleTemplate, ...]]:
        by_step: dict[str, list[RuleTemplate]] = {}
        for template in self.rule_templates:
            by_step.setdefault(template.step, []).append(template)
        return {step: tuple(templates) for step, templates in by_step.items()}

    def templates_for(self, step: str) -> tuple[RuleTemplate, ...]:
        return self.templates_by_step.get(step, ())

    def condition_for(self, rule_id: str) -> Condition | None:
        return self.conditions.get(rule_id)

    def invalidation_set(self, origin: str) -> frozenset[str]:
        """Steps whose ``step.done`` a rollback to ``origin`` invalidates."""
        return self.graph.invalidation_set(origin)

    def affected_terminals(self, origin: str) -> frozenset[str]:
        return frozenset(self.terminal_steps) & self.invalidation_set(origin)

    def abandoned_branch_members(self, split: str, taken_first: str) -> frozenset[str]:
        """Exclusive members of every branch of ``split`` other than the one
        whose first step is ``taken_first`` (CompensateThread targets)."""
        members: set[str] = set()
        for info in self.graph.xor_splits[split]:
            if info.arc.dst != taken_first:
                members.update(info.exclusive_members)
        return frozenset(members)

    def profile_consistent(self, terminal: str, decisions: dict[str, str]) -> bool:
        """Is ``terminal`` still reachable given the observed XOR decisions?"""
        profile = self.terminal_profiles[terminal]
        for split, branch_first in profile.items():
            chosen = decisions.get(split)
            if chosen is not None and chosen != branch_first:
                return False
        return True

    def commit_ready(self, reported: Iterable[str]) -> bool:
        """Commit condition: every terminal step has either reported
        completion or is unreachable given the XOR decisions implied by the
        reported terminals.

        This is the coordination agent's test — "the coordination agent
        waits for the arrival of such messages from all the agents that are
        responsible for executing the final steps along all active paths".
        """
        reported_set = set(reported)
        if not reported_set:
            return False
        decisions: dict[str, str] = {}
        for terminal in reported_set:
            decisions.update(self.terminal_profiles[terminal])
        for terminal in self.terminal_steps:
            if terminal in reported_set:
                continue
            if self.profile_consistent(terminal, decisions):
                return False
        return True

    @cached_property
    def branch_first_map(self) -> dict[str, str]:
        """branch-first step -> its XOR split (for CompensateThread)."""
        mapping: dict[str, str] = {}
        for split, branches in self.graph.xor_splits.items():
            for info in branches:
                mapping[info.arc.dst] = split
        return mapping

    def loop_templates_for(self, step: str) -> tuple[RuleTemplate, ...]:
        return tuple(
            t for t in self.rule_templates if t.kind == "loop" and t.step == step
        )


def compile_schema(schema: WorkflowSchema) -> CompiledSchema:
    """Validate and compile a workflow schema."""
    graph = validate_schema(schema)
    templates: list[RuleTemplate] = []
    conditions: dict[str, Condition] = {}

    def register(template: RuleTemplate) -> None:
        templates.append(template)
        if template.condition_text is not None:
            conditions[template.rule_id] = Condition(template.condition_text)

    # Effective (mutually exclusivized) branch conditions per XOR split,
    # keyed (split, branch-first-step).
    branch_condition: dict[tuple[str, str], str] = {}
    for split, branches in graph.xor_splits.items():
        for first, text in _exclusivized_conditions(branches).items():
            branch_condition[(split, first)] = text

    # Loop continue-conditions by loop source, for guarding forward arcs.
    loop_conditions: dict[str, list[str]] = {}
    for arc in schema.loop_arcs():
        loop_conditions.setdefault(arc.src, []).append(arc.condition or "True")

    start = graph.start_steps[0]

    for step_name, definition in schema.steps.items():
        producers = sorted(definition.input_producer_steps())
        producer_events = {step_done(p) for p in producers}
        in_arcs = schema.in_arcs(step_name)

        if not in_arcs:
            register(
                RuleTemplate(
                    rule_id=f"r:{step_name}:start",
                    kind="execute",
                    step=step_name,
                    events=frozenset({WF_START} | producer_events),
                )
            )
            continue

        if definition.join is JoinKind.AND or (
            definition.join is JoinKind.NONE and len(in_arcs) == 1
        ):
            events = {step_done(arc.src) for arc in in_arcs} | producer_events
            guards: list[str] = []
            for arc in in_arcs:
                key = (arc.src, step_name)
                if key in branch_condition:
                    guards.append(branch_condition[key])
                # Forward continuation out of a loop source is guarded by
                # the negated continue-condition(s).
                for loop_text in loop_conditions.get(arc.src, ()):
                    guards.append(_negate(loop_text))
            register(
                RuleTemplate(
                    rule_id=f"r:{step_name}:0",
                    kind="execute",
                    step=step_name,
                    events=frozenset(events),
                    condition_text=_conjoin(guards),
                )
            )
        else:  # XOR join: one rule per incoming arc.
            for idx, arc in enumerate(in_arcs):
                guards = []
                key = (arc.src, step_name)
                if key in branch_condition:
                    guards.append(branch_condition[key])
                for loop_text in loop_conditions.get(arc.src, ()):
                    guards.append(_negate(loop_text))
                register(
                    RuleTemplate(
                        rule_id=f"r:{step_name}:{idx}",
                        kind="execute",
                        step=step_name,
                        events=frozenset({step_done(arc.src)} | producer_events),
                        condition_text=_conjoin(guards),
                    )
                )

    for arc in schema.loop_arcs():
        body = graph.loop_body(arc)
        register(
            RuleTemplate(
                rule_id=f"loop:{arc.src}->{arc.dst}",
                kind="loop",
                step=arc.src,
                events=frozenset({step_done(arc.src)}),
                condition_text=arc.condition,
                loop_target=arc.dst,
                loop_body=body,
            )
        )

    terminal_profiles: dict[str, dict[str, str]] = {}
    for terminal in graph.terminal_steps:
        profile: dict[str, str] = {}
        for split, branches in graph.xor_splits.items():
            for info in branches:
                if terminal in info.exclusive_members:
                    profile[split] = info.arc.dst
        terminal_profiles[terminal] = profile

    return CompiledSchema(
        schema=schema,
        graph=graph,
        start_step=start,
        terminal_steps=graph.terminal_steps,
        rule_templates=tuple(templates),
        conditions=conditions,
        terminal_profiles=terminal_profiles,
    )
