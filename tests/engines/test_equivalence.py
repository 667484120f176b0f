"""Cross-architecture equivalence: one enactment semantics, three placements.

The same schemas with the same (deterministic) programs must produce the
same *outcomes* — statuses, workflow outputs, branch decisions — under
all three control architectures.
"""

import json

from repro.cli import main
from repro.core.programs import FailEveryNth, FunctionProgram, NoopProgram
from repro.model import AlwaysReexecute, SchemaBuilder
from repro.workloads import figure3_workflow, travel_booking
from tests.conftest import (
    ALL_ARCHITECTURES,
    branching_schema,
    linear_schema,
    make_system,
    parallel_schema,
    register_programs,
)


def run_everywhere(build_and_start):
    """Run one scenario under all architectures; return outcome summaries."""
    results = {}
    for architecture in ALL_ARCHITECTURES:
        system = make_system(architecture, seed=11)
        ids = build_and_start(system)
        system.run()
        results[architecture] = [
            (system.outcome(i).status.value, tuple(sorted(system.outcome(i).outputs)))
            for i in ids
        ]
    assert len({tuple(v) for v in results.values()}) == 1, results
    return results


def test_linear_outcomes_agree():
    def scenario(system):
        schema = linear_schema(steps=5)
        system.register_schema(schema)
        register_programs(system, schema)
        return [system.start_workflow("Linear", {"x": i}) for i in range(3)]

    run_everywhere(scenario)


def test_parallel_fanout_outcomes_agree():
    def scenario(system):
        schema = parallel_schema()
        system.register_schema(schema)
        register_programs(system, schema)
        return [system.start_workflow("Fanout", {"x": 1})]

    run_everywhere(scenario)


def test_figure3_recovery_outcomes_agree():
    def scenario(system):
        scenario_obj = figure3_workflow()
        scenario_obj.install(system)
        return [system.start_workflow("Figure3", {"load": 7})]

    run_everywhere(scenario)


def test_travel_booking_ocr_outcomes_agree():
    def scenario(system):
        travel_booking().install(system)
        return [system.start_workflow("TravelBooking",
                                      {"traveller": "mk", "dates": "d1"})]

    run_everywhere(scenario)


def test_branch_decision_identical_across_architectures():
    """The same data-dependent branch is taken everywhere."""
    decisions = {}
    for architecture in ALL_ARCHITECTURES:
        system = make_system(architecture, seed=12)
        schema = branching_schema()
        system.register_schema(schema)
        register_programs(system, schema, behaviors={
            "S2": FunctionProgram(lambda i, c: {"route": "top"}),
        })
        system.start_workflow("Branchy", {"load": 1})
        system.run()
        done = {r.detail["step"] for r in system.trace.filter(kind="step.done")}
        decisions[architecture] = ("S3" in done, "S5" in done)
    assert len(set(decisions.values())) == 1
    assert decisions["centralized"] == (True, False)


def test_saga_abort_equivalent_everywhere():
    statuses = {}
    for architecture in ALL_ARCHITECTURES:
        system = make_system(architecture, seed=13)
        schema = linear_schema(steps=3)
        system.register_schema(schema)
        register_programs(system, schema, behaviors={
            "S3": FailEveryNth(NoopProgram(("out",)), {1, 2, 3}),
        })
        instance = system.start_workflow("Linear", {"x": 1})
        system.run()
        compensated = [r.detail["step"]
                       for r in system.trace.filter(kind="step.compensate")]
        statuses[architecture] = (
            system.outcome(instance).status.value, tuple(compensated)
        )
    assert len(set(statuses.values())) == 1
    assert statuses["centralized"] == ("aborted", ("S2", "S1"))


def test_three_member_compensation_set_compensates_in_reverse_order_everywhere():
    """Set {A, B, C}, D rolls back to A: the CompensateSet chain undoes C,
    then B, then the origin A.  (A two-member set cannot show the order:
    only one member lies downstream of the origin.)"""
    for architecture in ALL_ARCHITECTURES:
        system = make_system(architecture, seed=11)
        builder = SchemaBuilder("W", inputs=["x"])
        builder.step("A", program="W.A", inputs=["WF.x"], outputs=["o"],
                     cr_policy=AlwaysReexecute())
        for step, before in (("B", "A"), ("C", "B"), ("D", "C")):
            builder.step(step, program=f"W.{step}", inputs=[f"{before}.o"], outputs=["o"])
        builder.sequence("A", "B", "C", "D")
        builder.compensation_set("A", "B", "C")
        builder.rollback_point("D", "A")
        schema = builder.build()
        system.register_schema(schema)
        register_programs(system, schema, behaviors={
            "D": FailEveryNth(NoopProgram(("o",)), {1}),
        })
        instance = system.start_workflow("W", {"x": 1})
        system.run()
        assert system.outcome(instance).committed
        compensated = [r.detail["step"] for r in system.trace.filter(kind="step.compensate")]
        assert compensated == ["C", "B", "A"], architecture
        chains = [r.kind for r in system.trace if "chain" in r.detail]
        assert chains == ["ocr.compensate"], architecture


#: What a record of each protocol role carries.
ROLES = {
    "step start": lambda detail: "step" in detail and "epoch" in detail,
    "step compensation": lambda detail: "comp" in detail and "chain" not in detail,
    "CompensateSet chain": lambda detail: "chain" in detail,
    "CompensateThread chain": lambda detail: "steps" in detail,
}


def test_figure3_trace_names_each_protocol_event_once(tmp_path, capsys):
    """``repro trace figure3 --seed 7``: one kind per role across all three
    architectures, and each architecture starts, compensates and announces
    a CompensateThread chain."""
    records = {}
    for architecture in ALL_ARCHITECTURES:
        out = tmp_path / f"{architecture}.jsonl"
        assert main(["trace", "figure3", "--format", "jsonl", "--seed", "7",
                     "--architecture", architecture, "--out", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        records[architecture] = [row for row in rows if row["type"] == "record"]
    capsys.readouterr()
    for role, carries in ROLES.items():
        kinds = {architecture: {r["kind"] for r in rows if carries(r["detail"])}
                 for architecture, rows in records.items()}
        assert len(set().union(*kinds.values())) == 1, (role, kinds)
        # A distributed agent compensates a step outside any set locally,
        # announcing no chain.
        if role != "CompensateSet chain":
            assert all(kinds.values()), (role, kinds)
