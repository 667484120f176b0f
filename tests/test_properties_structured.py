"""Property-based tests over randomly composed *structured* workflows.

A recursive hypothesis strategy builds block-structured schemas —
sequences, parallel (AND) blocks and if-then-else (XOR) blocks, arbitrarily
nested — and checks the liveness/safety invariants the enactment layers
must uphold for every shape:

* every instance commits under all three architectures;
* no step executes more than once (without failures);
* exactly one branch of every XOR block runs;
* with an injected failure + rollback point, instances still commit and
  the XOR-exclusive invariant still holds on the final pass;
* a rollback inside one branch of a parallel block leaves its sibling
  branches running, and the instance still commits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.causal import CausalTrace
from repro.analysis.invariants import check_invariants
from repro.core.programs import FailEveryNth, NoopProgram
from repro.model.builder import SchemaBuilder
from tests.conftest import make_system, register_programs


# -------------------------------------------------------------- block model


@dataclass
class Seq:
    parts: list = field(default_factory=list)


@dataclass
class Par:
    branches: list = field(default_factory=list)


@dataclass
class Xor:
    branches: list = field(default_factory=list)  # first = taken branch


@dataclass
class Step:
    pass


def blocks(max_depth=3):
    """Recursive strategy over structured blocks."""
    return st.recursive(
        st.builds(Step),
        lambda inner: st.one_of(
            st.builds(Seq, st.lists(inner, min_size=2, max_size=3)),
            st.builds(Par, st.lists(inner, min_size=2, max_size=2)),
            st.builds(Xor, st.lists(inner, min_size=2, max_size=2)),
        ),
        max_leaves=6,
    )


class _Assembler:
    """Lowers a block tree onto a SchemaBuilder, returning entry/exit steps."""

    def __init__(self):
        self.builder = SchemaBuilder("P", inputs=["x"])
        self.counter = 0
        self.xor_taken: list[str] = []
        self.xor_skipped: list[str] = []
        #: False while lowering a branch that can never execute (a non-taken
        #: XOR alternative); expectations are only recorded on live paths.
        self.live = True
        #: (entry, exit) of every live branch of a parallel block.
        self.par_branches: list[tuple[str, str]] = []

    def new_step(self, join="none", inputs=()):
        self.counter += 1
        name = f"N{self.counter}"
        self.builder.step(name, program=f"P.{name}", inputs=list(inputs),
                          outputs=["out"], join=join)
        return name

    def lower(self, block) -> tuple[str, str]:
        if isinstance(block, Step):
            name = self.new_step()
            return name, name
        if isinstance(block, Seq):
            first_entry, previous_exit = self.lower(block.parts[0])
            for part in block.parts[1:]:
                entry, exit_ = self.lower(part)
                self.builder.arc(previous_exit, entry)
                previous_exit = exit_
            return first_entry, previous_exit
        if isinstance(block, Par):
            split = self.new_step()
            join = self.new_step(join="and")
            for branch in block.branches:
                entry, exit_ = self.lower(branch)
                self.builder.arc(split, entry)
                self.builder.arc(exit_, join)
                if self.live:
                    self.par_branches.append((entry, exit_))
            return split, join
        if isinstance(block, Xor):
            split = self.new_step()
            join = self.new_step(join="xor")
            taken, *others = block.branches
            entry, exit_ = self.lower(taken)
            self.builder.arc(split, entry, condition="WF.x > 0")
            self.builder.arc(exit_, join)
            if self.live:
                self.xor_taken.append(entry)
            was_live = self.live
            self.live = False
            for branch in others:
                entry_o, exit_o = self.lower(branch)
                from repro.model.schema import ControlArc

                self.builder._arcs.append(ControlArc(split, entry_o, is_else=True))
                self.builder.arc(exit_o, join)
                if was_live:
                    self.xor_skipped.append(entry_o)
            self.live = was_live
            return split, join
        raise TypeError(block)


def assemble(tree):
    assembler = _Assembler()
    root = Seq([Step(), tree, Step()])  # guarantee single start/terminal
    entry, exit_ = assembler.lower(root)
    assembler.builder.output("result", f"{exit_}.out")
    schema = assembler.builder.build()
    return schema, assembler


# ---------------------------------------------------------------- properties


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tree=blocks(), seed=st.integers(0, 500),
       architecture=st.sampled_from(["centralized", "parallel", "distributed"]))
def test_structured_workflows_commit_exactly_once(tree, seed, architecture):
    schema, assembler = assemble(tree)
    system = make_system(architecture, seed=seed, num_agents=6, agents_per_step=2)
    system.register_schema(schema)
    register_programs(system, schema)
    instance = system.start_workflow("P", {"x": 1})
    system.run()
    assert system.outcome(instance).committed

    executed = [r.detail["step"] for r in system.trace.filter(kind="step.dispatch")]
    assert len(executed) == len(set(executed)), "a step executed twice"
    # Exactly one branch of every XOR block ran.
    for taken in assembler.xor_taken:
        assert taken in executed
    for skipped in assembler.xor_skipped:
        assert skipped not in executed


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tree=blocks(), seed=st.integers(0, 200),
       architecture=st.sampled_from(["centralized", "distributed"]))
def test_structured_workflows_survive_a_failure(tree, seed, architecture):
    """Inject a first-attempt failure at the terminal step with a rollback
    point at the start: full-workflow rollback + OCR re-execution must still
    commit and preserve the XOR exclusivity invariant."""
    schema, assembler = assemble(tree)
    steps = list(schema.steps)
    terminal = steps[-1]
    start = steps[0]
    # Frozen dataclass: annotate the rollback point post-hoc for the test.
    object.__setattr__(schema, "rollback_points", {terminal: start})
    system = make_system(architecture, seed=seed, num_agents=6, agents_per_step=2)
    system.register_schema(schema)
    register_programs(system, schema, behaviors={
        terminal: FailEveryNth(NoopProgram(("out",)), {1}),
    })
    instance = system.start_workflow("P", {"x": 1})
    system.run()
    assert system.outcome(instance).committed

    executed = [r.detail["step"] for r in system.trace.filter(kind="step.dispatch")]
    for skipped in assembler.xor_skipped:
        assert skipped not in executed


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tree=st.builds(Par, st.lists(blocks(), min_size=2, max_size=2)),
       seed=st.integers(0, 200), data=st.data(),
       architecture=st.sampled_from(["centralized", "parallel", "distributed"]))
def test_a_rollback_beside_a_parallel_branch(tree, seed, data, architecture):
    """The last step of one parallel branch fails its first attempt and
    rolls back to the branch's first step: only that branch re-executes,
    the sibling branches' work still counts, and the instance commits with
    no step dispatched twice in one epoch and none re-executed before the
    halt."""
    schema, assembler = assemble(tree)
    origin, failing = data.draw(st.sampled_from(assembler.par_branches))
    object.__setattr__(schema, "rollback_points", {failing: origin})
    system = make_system(architecture, seed=seed, num_agents=6, agents_per_step=2)
    system.register_schema(schema)
    register_programs(system, schema, behaviors={
        failing: FailEveryNth(NoopProgram(("out",)), {1}),
    })
    instance = system.start_workflow("P", {"x": 1})
    system.run()
    assert system.outcome(instance).committed
    assert [r.detail["origin"] for r in system.trace.filter(kind="rollback")] == [origin]
    violations = check_invariants(CausalTrace.from_run(system.trace, system.tracer),
                                  ["dispatch-once", "halt-before-reexecute"])
    assert not violations, violations
