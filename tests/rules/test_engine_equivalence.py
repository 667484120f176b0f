"""Property test: the indexed engine fires exactly like the naive one.

The indexed :class:`RuleEngine` replaced the scan-based firing loop with a
token→rule index, unmet-event counters and a ready-heap.  Its contract is
that *no observable differs*: for any schema and any order of event posts,
merges, invalidations, resets and dynamic rule edits, the sequence of
fired rules is identical to :class:`NaiveRuleEngine` (the retained
original implementation), and so are the pending-rule table and the event
table afterwards.

Random rule actions post the fired step's ``done`` event, so cascaded
firing inside one pump (the hard part of order preservation) is exercised
constantly.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import RuleError
from repro.rules.engine import RuleEngine, RuleInstance
from repro.rules.events import step_done
from tests.rules.reference_engine import NaiveRuleEngine

STEPS = [f"S{i}" for i in range(1, 7)]
TOKENS = ["WF.S", "EXT.GO", "EXT.E1"] + [step_done(s) for s in STEPS]


class FakeCompiled:
    """Minimal CompiledSchema stand-in: no templates, no conditions."""

    rule_templates = ()

    @staticmethod
    def condition_for(rule_id):
        return None


def make_pair():
    """Indexed and naive engines wired to identical cascading actions."""
    logs = ([], [])
    engines = []
    for log in logs:
        holder = {}

        def action(rule, log=log, holder=holder):
            log.append(rule.rule_id)
            # Enactment-style cascade: firing a step completes it.
            holder["engine"].post_event(step_done(rule.step), 1.0)

        engine_cls = RuleEngine if log is logs[0] else NaiveRuleEngine
        engine = engine_cls(FakeCompiled(), action, lambda: {})
        holder["engine"] = engine
        engines.append(engine)
    return engines[0], engines[1], logs[0], logs[1]


# One rule definition: (step index, required-token index set, one_shot)
rule_defs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(STEPS) - 1),
        st.sets(st.integers(min_value=0, max_value=len(TOKENS) - 1), max_size=3),
        st.booleans(),
    ),
    min_size=1,
    max_size=8,
)

# One operation against both engines.
operations = st.lists(
    st.one_of(
        st.tuples(st.just("post"),
                  st.integers(min_value=0, max_value=len(TOKENS) - 1)),
        st.tuples(st.just("invalidate"),
                  st.integers(min_value=0, max_value=len(TOKENS) - 1)),
        st.tuples(st.just("merge"),
                  st.sets(st.integers(min_value=0, max_value=len(TOKENS) - 1),
                          max_size=4)),
        st.tuples(st.just("apply_inval"),
                  st.integers(min_value=0, max_value=len(TOKENS) - 1),
                  st.integers(min_value=1, max_value=3)),
        st.tuples(st.just("reset_steps"),
                  st.sets(st.integers(min_value=0, max_value=len(STEPS) - 1),
                          max_size=2)),
        st.tuples(st.just("precondition"),
                  st.integers(min_value=0, max_value=7),
                  st.integers(min_value=0, max_value=len(TOKENS) - 1)),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=7)),
        st.tuples(st.just("reevaluate")),
    ),
    max_size=20,
)


def apply_op(engine, op, clock):
    if op[0] == "post":
        engine.post_event(TOKENS[op[1]], clock)
    elif op[0] == "invalidate":
        engine.invalidate_events([TOKENS[op[1]]])
        engine.reevaluate()
    elif op[0] == "merge":
        engine.merge_events({TOKENS[i]: clock for i in sorted(op[1])}, clock)
    elif op[0] == "apply_inval":
        engine.apply_invalidations({TOKENS[op[1]]: op[2]})
        engine.reevaluate()
    elif op[0] == "reset_steps":
        engine.reset_rules_for_steps({STEPS[i] for i in op[1]})
        engine.reevaluate()
    elif op[0] == "precondition":
        try:
            engine.add_precondition(f"r{op[1]:02d}", TOKENS[op[2]])
        except RuleError as exc:
            return f"RuleError:{exc}"
        engine.reevaluate()
    elif op[0] == "remove":
        engine.remove_rule(f"r{op[1]:02d}")
    elif op[0] == "reevaluate":
        engine.reevaluate()
    return None


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(defs=rule_defs, ops=operations)
def test_indexed_engine_equals_naive_reference(defs, ops):
    indexed, naive, log_indexed, log_naive = make_pair()
    for number, (step_index, token_indexes, one_shot) in enumerate(defs):
        for engine in (indexed, naive):
            engine.add_rule(RuleInstance(
                rule_id=f"r{number:02d}",
                kind="execute",
                step=STEPS[step_index],
                required=frozenset(TOKENS[i] for i in sorted(token_indexes)),
                one_shot=one_shot,
            ))
    assert log_indexed == log_naive  # add_rule pumps immediately

    clock = 1.0
    for op in ops:
        clock += 1.0
        outcome_indexed = apply_op(indexed, op, clock)
        outcome_naive = apply_op(naive, op, clock)
        assert outcome_indexed == outcome_naive
        assert log_indexed == log_naive, (op, log_indexed, log_naive)

    # Same fired sequence, same pending table, same event table.
    assert log_indexed == log_naive
    assert ({r.rule_id for r in indexed.pending_rules()}
            == {r.rule_id for r in naive.pending_rules()})
    assert indexed.pending_count() == len(naive.pending_rules())
    assert indexed.events.valid_tokens() == naive.events.valid_tokens()
    assert ({r.rule_id: r.fired for r in indexed.all_rules()}
            == {r.rule_id: r.fired for r in naive.all_rules()})
