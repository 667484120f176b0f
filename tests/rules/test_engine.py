"""Unit tests for the ECA rule engine and the three primitives."""

import pytest

from repro.errors import RuleError
from repro.model.builder import SchemaBuilder
from repro.model.compiler import compile_schema
from repro.rules.engine import RuleEngine, RuleInstance
from repro.rules.events import WF_START, step_done


def linear_compiled():
    b = SchemaBuilder("W", inputs=["x"])
    b.step("A", inputs=["WF.x"], outputs=["o"])
    b.step("B", inputs=["A.o"], outputs=["o"])
    b.step("C", inputs=["B.o"])
    b.sequence("A", "B", "C")
    return compile_schema(b.build())


def make_engine(compiled=None, env=None, steps=None):
    fired = []
    compiled = compiled or linear_compiled()
    environment = env if env is not None else {}
    engine = RuleEngine(
        compiled,
        action=lambda rule: fired.append(rule),
        env_provider=lambda: environment,
        steps=steps,
    )
    return engine, fired, environment


def test_start_rule_fires_on_workflow_start():
    engine, fired, __ = make_engine()
    engine.post_event(WF_START, 0.0)
    assert [r.step for r in fired] == ["A"]


def test_rule_waits_for_all_required_events():
    compiled = linear_compiled()
    engine, fired, __ = make_engine(compiled)
    engine.post_event(step_done("B"), 1.0)  # C needs B.D only
    assert [r.step for r in fired] == ["C"]


def test_rule_fires_once():
    engine, fired, __ = make_engine()
    engine.post_event(WF_START, 0.0)
    engine.post_event(WF_START, 1.0)
    assert len(fired) == 1


def test_condition_blocks_firing():
    b = SchemaBuilder("W", inputs=["x"])
    b.step("A", inputs=["WF.x"], outputs=["o"])
    b.step("B")
    b.step("C")
    b.branch("A", [("B", "A.o > 10")], otherwise="C")
    compiled = compile_schema(b.build())
    env = {"A.o": 5}
    engine, fired, __ = make_engine(compiled, env=env)
    engine.post_event(WF_START, 0.0)
    engine.post_event(step_done("A"), 1.0)
    assert [r.step for r in fired] == ["A", "C"]  # only else branch


def test_unbound_condition_data_keeps_rule_pending():
    b = SchemaBuilder("W", inputs=["x"])
    b.step("A", inputs=["WF.x"], outputs=["o"])
    b.step("B")
    b.step("C")
    b.branch("A", [("B", "A.o > 10")], otherwise="C")
    compiled = compile_schema(b.build())
    env = {}
    engine, fired, __ = make_engine(compiled, env=env)
    engine.post_event(step_done("A"), 1.0)
    assert fired == []  # A.o unbound: neither branch can be decided
    env["A.o"] = 50
    engine.reevaluate()
    assert [r.step for r in fired] == ["B"]


def test_add_event_primitive():
    engine, fired, __ = make_engine()
    engine.add_event(step_done("A"), 1.0)
    assert [r.step for r in fired] == ["B"]


def test_add_rule_primitive():
    engine, fired, __ = make_engine()
    rule = RuleInstance(
        rule_id="dyn:1", kind="notify", step="B",
        required=frozenset({step_done("B")}),
    )
    engine.add_rule(rule)
    engine.post_event(step_done("B"), 1.0)
    kinds = [(r.kind, r.step) for r in fired]
    assert ("notify", "B") in kinds


def test_duplicate_rule_id_rejected():
    engine, __, __e = make_engine()
    rule = RuleInstance(rule_id="r:B:0", kind="execute", step="B",
                        required=frozenset())
    with pytest.raises(RuleError):
        engine.add_rule(rule)


def test_one_shot_rule_removed_after_firing():
    engine, fired, __ = make_engine()
    rule = RuleInstance(
        rule_id="dyn:1", kind="notify", step="B",
        required=frozenset({step_done("B")}), one_shot=True,
    )
    engine.add_rule(rule)
    engine.post_event(step_done("B"), 1.0)
    with pytest.raises(RuleError):
        engine.rule("dyn:1")


def test_add_precondition_primitive():
    engine, fired, __ = make_engine()
    engine.add_step_precondition("B", "EXT.CLEAR")
    engine.post_event(step_done("A"), 1.0)
    assert fired == []  # waiting for the clearance event
    engine.add_event("EXT.CLEAR", 2.0)
    assert [r.step for r in fired] == ["B"]


def test_add_precondition_to_fired_rule_rejected():
    engine, fired, __ = make_engine()
    engine.post_event(step_done("A"), 1.0)
    rule = engine.rules_for_step("B")[0]
    with pytest.raises(RuleError):
        engine.add_precondition(rule.rule_id, "EXT.X")


def test_add_step_precondition_returns_affected_count():
    engine, __, __e = make_engine()
    assert engine.add_step_precondition("B", "EXT.X") == 1
    engine.add_event("EXT.X", 0.0)
    engine.post_event(step_done("A"), 1.0)
    assert engine.add_step_precondition("B", "EXT.Y") == 0  # already fired


def test_invalidation_resets_dependent_rules():
    engine, fired, __ = make_engine()
    engine.post_event(step_done("A"), 1.0)
    assert [r.step for r in fired] == ["B"]
    engine.invalidate_events([step_done("A")])
    engine.post_event(step_done("A"), 2.0)
    assert [r.step for r in fired] == ["B", "B"]  # re-armed and re-fired


def test_reset_rules_for_steps():
    engine, fired, __ = make_engine()
    engine.post_event(step_done("A"), 1.0)
    engine.reset_rules_for_steps({"B"})
    engine.reevaluate()  # A.D still valid -> B re-fires
    assert [r.step for r in fired] == ["B", "B"]


def test_apply_invalidations_respects_rounds():
    engine, fired, __ = make_engine()
    engine.post_event(step_done("A"), 5.0, round=2)
    hit = engine.apply_invalidations({step_done("A"): 2})
    assert hit == []  # same round: the occurrence is the re-established one
    hit = engine.apply_invalidations({step_done("A"): 3})
    assert hit == [step_done("A")]


def test_merge_events_fires_rules():
    engine, fired, __ = make_engine()
    added = engine.merge_events({WF_START: 0.0, step_done("A"): 1.0}, time=2.0)
    assert set(added) == {WF_START, step_done("A")}
    assert {r.step for r in fired} == {"A", "B"}


def test_hosted_steps_restriction():
    compiled = linear_compiled()
    engine, fired, __ = make_engine(compiled, steps={"B"})
    engine.post_event(WF_START, 0.0)
    engine.post_event(step_done("A"), 1.0)
    engine.post_event(step_done("B"), 2.0)
    assert [r.step for r in fired] == ["B"]  # only the hosted step's rule


def test_pending_rules_listing():
    engine, __, __e = make_engine()
    assert engine.pending_rules() == ()
    engine.events.post(step_done("A"), 1.0)  # bypass pump to inspect
    pending = engine.pending_rules()
    assert any(r.step == "B" for r in pending)


def test_pending_count_matches_pending_rules():
    engine, __, __e = make_engine()
    assert engine.pending_count() == 0
    engine.events.post(step_done("A"), 1.0)  # bypass pump to inspect
    assert engine.pending_count() == len(engine.pending_rules()) > 0


# -- dynamic-rule edge cases against the index ---------------------------------


def test_add_precondition_when_other_events_already_arrived():
    """A precondition added to a rule whose other required events are all
    valid must keep it unfired until the new token arrives too."""
    engine, fired, __ = make_engine()
    rule = RuleInstance(
        rule_id="dyn:1", kind="notify", step="B",
        required=frozenset({step_done("A"), "EXT.GO"}),
    )
    engine.add_rule(rule)
    engine.post_event(step_done("A"), 1.0)  # fires B's execute rule only
    assert [r.rule_id for r in fired if r.rule_id == "dyn:1"] == []
    engine.add_precondition("dyn:1", "EXT.MORE")
    engine.add_event("EXT.GO", 2.0)  # old required now complete — not enough
    assert [r.rule_id for r in fired if r.rule_id == "dyn:1"] == []
    engine.add_event("EXT.MORE", 3.0)
    assert [r.rule_id for r in fired if r.rule_id == "dyn:1"] == ["dyn:1"]


def test_add_precondition_with_already_valid_token_keeps_rule_ready():
    engine, fired, __ = make_engine()
    engine.add_event("EXT.GO", 0.5)
    rule = RuleInstance(
        rule_id="dyn:1", kind="notify", step="B",
        required=frozenset({step_done("A")}),
    )
    engine.add_rule(rule)
    engine.add_precondition("dyn:1", "EXT.GO")  # valid already: still armed
    engine.post_event(step_done("A"), 1.0)
    assert "dyn:1" in [r.rule_id for r in fired]


def test_add_precondition_is_idempotent_for_duplicate_token():
    engine, fired, __ = make_engine()
    rule = RuleInstance(
        rule_id="dyn:1", kind="notify", step="B",
        required=frozenset({"EXT.GO"}),
    )
    engine.add_rule(rule)
    engine.add_precondition("dyn:1", "EXT.GO")  # no-op, not a double count
    engine.add_event("EXT.GO", 1.0)
    assert "dyn:1" in [r.rule_id for r in fired]


def test_remove_rule_of_indexed_rule_stops_it_firing():
    engine, fired, __ = make_engine()
    engine.remove_rule("r:B:0")  # B's execute rule, indexed under A.D
    engine.post_event(step_done("A"), 1.0)
    assert [r.step for r in fired] == []
    # The index slot is gone too: posting the trigger again stays silent.
    engine.post_event(step_done("A"), 2.0)
    assert fired == []


def test_removed_rule_id_can_be_reinstalled():
    engine, fired, __ = make_engine()
    engine.remove_rule("r:B:0")
    engine.add_rule(RuleInstance(
        rule_id="r:B:0", kind="execute", step="B",
        required=frozenset({step_done("A")}),
    ))
    engine.post_event(step_done("A"), 1.0)
    assert [r.step for r in fired] == ["B"]


def test_remove_rule_while_pending_clears_pending_table():
    engine, __, __e = make_engine()
    engine.events.post(step_done("A"), 1.0)  # bypass pump
    assert any(r.rule_id == "r:B:0" for r in engine.pending_rules())
    engine.remove_rule("r:B:0")
    assert all(r.rule_id != "r:B:0" for r in engine.pending_rules())
    engine.reevaluate()  # stale heap entry must be discarded silently


def test_apply_invalidations_rearms_fired_rule_in_index():
    """A fired rule whose trigger is invalidated by a message-carried
    cutoff must re-enter the ready path and fire again on re-post."""
    engine, fired, __ = make_engine()
    engine.post_event(step_done("A"), 1.0, round=0)
    assert [r.step for r in fired] == ["B"]
    hit = engine.apply_invalidations({step_done("A"): 1})
    assert hit == [step_done("A")]
    engine.reevaluate()
    assert [r.step for r in fired] == ["B"]  # nothing re-fires while invalid
    engine.post_event(step_done("A"), 2.0, round=1)
    assert [r.step for r in fired] == ["B", "B"]


def test_one_shot_rule_is_unindexed_after_firing():
    engine, fired, __ = make_engine()
    engine.add_rule(RuleInstance(
        rule_id="dyn:1", kind="notify", step="B",
        required=frozenset({"EXT.GO"}), one_shot=True,
    ))
    engine.add_event("EXT.GO", 1.0)
    assert "dyn:1" in [r.rule_id for r in fired]
    # Invalidate + re-post: the one-shot is gone from the index, no re-fire.
    engine.invalidate_events(["EXT.GO"])
    engine.add_event("EXT.GO", 2.0)
    assert [r.rule_id for r in fired].count("dyn:1") == 1


def test_rule_added_from_action_fires_next_pass():
    """A rule installed by a firing rule's action joins the next pump pass
    (the scan engine's snapshot semantics, preserved by the index)."""
    engine, fired, __ = make_engine()

    original_action = engine._action

    def action(rule):
        original_action(rule)
        if rule.step == "A":
            engine.add_rule(RuleInstance(
                rule_id="dyn:late", kind="notify", step="C",
                required=frozenset({WF_START}),
            ))

    engine._action = action
    engine.post_event(WF_START, 0.0)
    assert [r.rule_id for r in fired][-1] == "dyn:late"


def test_deterministic_fire_order():
    """Rules ready simultaneously fire in rule-id order."""
    b = SchemaBuilder("W", inputs=["x"])
    b.step("A", inputs=["WF.x"])
    b.step("B")
    b.step("C")
    b.parallel("A", ["B", "C"])
    compiled = compile_schema(b.build())
    engine, fired, __ = make_engine(compiled)
    engine.post_event(step_done("A"), 1.0)
    assert [r.step for r in fired] == ["B", "C"]
