"""Protocol-invariant checker: clean on canonical runs, sharp on seeded bugs."""

import json

import pytest

from repro.analysis.causal import CausalTrace
from repro.analysis.invariants import INVARIANTS, check_invariants
from repro.engines import SystemConfig
from repro.errors import CrewError
from repro.workloads import figure3_workflow, order_processing, travel_booking
from tests.conftest import ALL_ARCHITECTURES, make_system


def record_line(time, node, kind, **detail):
    return json.dumps({
        "type": "record", "time": time, "node": node, "kind": kind,
        "detail": detail,
    })


def check(lines, names=None):
    return check_invariants(CausalTrace.from_jsonl("\n".join(lines)), names)


# -- clean on canonical scenarios -------------------------------------------


CANONICAL = {
    "figure3": (figure3_workflow, "Figure3", {"load": 5}),
    "orders": (order_processing, "OrderProcessing",
               {"part": "gasket", "qty": 2}),
    "travel": (travel_booking, "TravelBooking",
               {"traveller": "t", "dates": "now"}),
}


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
@pytest.mark.parametrize("scenario", sorted(CANONICAL))
def test_canonical_scenarios_pass_clean(architecture, scenario):
    factory, schema_name, inputs = CANONICAL[scenario]
    system = make_system(architecture, config=SystemConfig(seed=11))
    factory().install(system)
    ids = [system.start_workflow(schema_name, inputs, delay=i * 0.5)
           for i in range(2)]
    system.run()
    system.tracer.finish(system.simulator.now)
    assert ids
    ct = CausalTrace.from_run(system.trace, system.tracer)
    assert check_invariants(ct) == []


# -- seeded violations -------------------------------------------------------


def test_halt_after_reexecute_is_flagged():
    violations = check([
        record_line(1.0, "a1", "step.execute", instance="w-1", step="S2",
                    epoch=1),
        record_line(2.0, "a1", "rollback", instance="w-1", origin="S2",
                    epoch=1),
    ])
    assert [v.invariant for v in violations if
            v.invariant == "halt-before-reexecute"]
    (violation,) = [v for v in violations
                    if v.invariant == "halt-before-reexecute"]
    assert violation.instance == "w-1"
    assert len(violation.evidence) == 2
    assert "step.execute" in violation.evidence[0]
    assert "rollback" in violation.evidence[1]


def test_halt_before_reexecute_accepts_legal_order():
    assert check([
        record_line(1.0, "a1", "rollback", instance="w-1", origin="S2",
                    epoch=1),
        record_line(2.0, "a1", "step.execute", instance="w-1", step="S2",
                    epoch=1),
    ], ["halt-before-reexecute"]) == []


def test_execute_without_halt_record_is_legal():
    """A node can learn an epoch from a re-execution packet — no halt
    record required (the naive converse formulation would false-positive
    on every distributed downstream agent)."""
    assert check([
        record_line(1.0, "a2", "step.execute", instance="w-1", step="S6",
                    epoch=2),
    ], ["halt-before-reexecute"]) == []


def test_out_of_order_compensation_is_flagged():
    violations = check([
        record_line(1.0, "a1", "compensate.set", instance="w-1", step="S4",
                    chain="S4,S3"),
        record_line(2.0, "a1", "step.compensated", instance="w-1", step="S3",
                    comp="complete"),
        record_line(3.0, "a1", "step.compensated", instance="w-1", step="S4",
                    comp="complete"),
    ], ["reverse-order-compensation"])
    assert len(violations) == 1
    assert "S4" in violations[0].message
    assert len(violations[0].evidence) == 3


def test_in_order_compensation_passes():
    assert check([
        record_line(1.0, "a1", "ocr.compensate", instance="w-1", step="S4",
                    chain="S4,S3"),
        record_line(2.0, "a1", "step.compensate", instance="w-1", step="S4"),
        record_line(3.0, "a1", "step.compensate", instance="w-1", step="S3"),
    ], ["reverse-order-compensation"]) == []


def test_new_chain_resets_compensation_window():
    """A second announced chain restarts the expected order."""
    assert check([
        record_line(1.0, "a1", "compensate.thread", instance="w-1",
                    steps="S4,S3"),
        record_line(2.0, "a1", "step.compensated", instance="w-1", step="S4"),
        record_line(3.0, "a1", "step.compensated", instance="w-1", step="S3"),
        record_line(4.0, "a1", "compensate.thread", instance="w-1",
                    steps="S4,S3"),
        record_line(5.0, "a1", "step.compensated", instance="w-1", step="S4"),
    ], ["reverse-order-compensation"]) == []


def test_epoch_regression_is_flagged():
    violations = check([
        record_line(1.0, "a1", "halt.thread", instance="w-1", origin="S2",
                    epoch=2),
        record_line(2.0, "a1", "halt.thread", instance="w-1", origin="S2",
                    epoch=1),
    ], ["epoch-monotonicity"])
    assert len(violations) == 1
    assert "epoch 1" in violations[0].message


def test_epoch_monotonicity_is_per_node():
    """Different nodes legitimately see the same epoch once each."""
    assert check([
        record_line(1.0, "a1", "halt.thread", instance="w-1", origin="S2",
                    epoch=1),
        record_line(2.0, "a2", "halt.thread", instance="w-1", origin="S2",
                    epoch=1),
    ], ["epoch-monotonicity"]) == []


def test_double_commit_is_flagged():
    violations = check([
        record_line(1.0, "e", "workflow.commit", instance="w-1"),
        record_line(2.0, "e", "workflow.commit", instance="w-1"),
    ], ["at-most-once-commit"])
    assert len(violations) == 1
    assert "2 times" in violations[0].message


def test_commit_and_abort_is_flagged():
    violations = check([
        record_line(1.0, "e", "workflow.commit", instance="w-1"),
        record_line(2.0, "e", "workflow.aborted", instance="w-1"),
    ], ["at-most-once-commit"])
    assert len(violations) == 1
    assert "committed and aborted" in violations[0].message


def dispatch(time, step="S2", epoch=1, node="e"):
    return record_line(time, node, "step.dispatch", instance="w-1", step=step,
                       agent="a1", epoch=epoch)


def test_second_dispatch_in_one_epoch_is_flagged():
    violations = check([dispatch(1.0), dispatch(2.0)], ["dispatch-once"])
    assert len(violations) == 1
    assert "twice at epoch 1" in violations[0].message
    assert len(violations[0].evidence) == 2


@pytest.mark.parametrize("settle", ["step.done", "step.fail", "step.redispatch",
                                    "step.stale_result", "step.reuse"])
def test_a_settled_step_may_be_dispatched_again(settle):
    assert check([
        dispatch(1.0),
        record_line(1.5, "e", settle, instance="w-1", step="S2"),
        dispatch(2.0),
    ], ["dispatch-once"]) == []


def test_dispatches_in_different_epochs_or_steps_are_legal():
    assert check([dispatch(1.0), dispatch(2.0, epoch=2), dispatch(3.0, step="S3")],
                 ["dispatch-once"]) == []


def test_engine_recovery_forgets_its_unsettled_dispatches():
    recovered = record_line(1.5, "e", "engine.recovered", instances=1)
    assert check([dispatch(1.0), recovered, dispatch(2.0)], ["dispatch-once"]) == []
    other = record_line(1.5, "e2", "engine.recovered", instances=1)
    assert len(check([dispatch(1.0), other, dispatch(2.0)], ["dispatch-once"])) == 1


def test_dispatch_after_abort_request_is_flagged():
    violations = check([
        dispatch(1.0, step="S1"),
        record_line(2.0, "e", "workflow.abort.request", instance="w-1"),
        dispatch(3.0),
    ], ["dispatch-once"])
    assert len(violations) == 1
    assert "after the abort request" in violations[0].message


def test_unknown_invariant_name_raises():
    with pytest.raises(CrewError):
        check([], ["no-such-invariant"])


def test_catalog_names_are_stable():
    assert set(INVARIANTS) == {
        "halt-before-reexecute",
        "reverse-order-compensation",
        "epoch-monotonicity",
        "at-most-once-commit",
        "dispatch-once",
    }


def test_violation_render_includes_chain():
    violations = check([
        record_line(1.0, "e", "workflow.commit", instance="w-1"),
        record_line(2.0, "e", "workflow.commit", instance="w-1"),
    ], ["at-most-once-commit"])
    rendered = violations[0].render()
    assert "at-most-once-commit" in rendered
    assert "workflow.commit" in rendered
    assert rendered.count("\n") == 2  # headline + two evidence lines
