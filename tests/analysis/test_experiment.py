"""Tests for the library-level evaluation runner."""

import pytest

from repro.analysis.chaos import CHAOS_CONFIGS, CHAOS_MODES
from repro.analysis.experiment import (
    EVAL_PARAMS,
    MODES,
    build_control_system,
    config_label,
    full_evaluation,
    ocr_ablation,
    parse_config,
    render_evaluation,
    run_architecture_experiment,
)
from repro.analysis.profiling import PROFILE_MODES, profile_configs
from repro.engines import CONTROL_SYSTEMS
from repro.errors import CrewError
from repro.runtime.metrics import Mechanism
from repro.service import WorkflowService
from repro.workloads.params import WorkloadParameters


def test_run_architecture_experiment_normalizes():
    params = WorkloadParameters(c=2, i=5)
    result = run_architecture_experiment("centralized", params,
                                         instances_per_schema=5)
    assert result.measured.instances == 10
    assert result.committed + result.aborted == 10
    assert result.measured.messages[Mechanism.NORMAL] == pytest.approx(
        2 * params.s * params.a, rel=0.05
    )
    assert "paper model vs simulation" in result.report()


def test_unknown_architecture_rejected():
    with pytest.raises(ValueError):
        run_architecture_experiment("quantum")


@pytest.mark.parametrize("build", [
    lambda name: build_control_system(name, EVAL_PARAMS),
    lambda name: WorkflowService(architecture=name),
], ids=["experiment", "service"])
def test_unknown_architecture_is_one_error_everywhere(build):
    """Library callers catch ``CrewError``, argument checkers ``ValueError``:
    the one lookup serves both and says what exists."""
    with pytest.raises(CrewError) as caught:
        build("quantum")
    assert isinstance(caught.value, ValueError)
    assert all(name in str(caught.value) for name in CONTROL_SYSTEMS)


@pytest.mark.parametrize("label", [
    *CHAOS_CONFIGS, *profile_configs(PROFILE_MODES)])
def test_every_shipped_label_round_trips_in_both_separators(label):
    architecture, mode = parse_config(label)
    assert architecture in CONTROL_SYSTEMS and mode in MODES
    for sep in "/-":
        assert parse_config(config_label(architecture, mode, sep)) == (
            architecture, mode)


@pytest.mark.parametrize("label", [
    "centralized", "parallel/chaotic", "a/b/c", "a-b-c", "bogus-normal",
    "centralized-bogus", "centralized/normal/extra", ""])
def test_garbage_labels_are_rejected(label):
    with pytest.raises(CrewError):
        parse_config(label)


def test_a_caller_names_the_modes_it_runs():
    assert parse_config("distributed-failure") == ("distributed", "failure")
    with pytest.raises(CrewError) as caught:
        parse_config("distributed/failure", CHAOS_MODES)
    assert "distributed/coordinated" in str(caught.value)


def test_ocr_ablation_rows_are_pinned():
    """Pinned when the forced failure was a program override pasted after
    install: as an argument of install it must cost the same work."""
    assert ocr_ablation(seed=11) == [
        ("OCR pr=0.00", 256.0, 0, 16),
        ("OCR pr=0.25", 304.0, 48.0, 16),
        ("OCR pr=0.50", 312.0, 56.0, 16),
        ("Saga baseline", 384.0, 128.0, 16),
    ]


def test_ocr_ablation_monotone():
    rows = ocr_ablation(instances=4, schemas=1)
    totals = [execute + compensate for __, execute, compensate, __c in rows]
    assert totals[0] < totals[-1]
    assert all(commits == 4 for __, __e, __c, commits in rows)


def test_full_evaluation_and_render():
    params = EVAL_PARAMS.evolve(c=2, i=5)
    results = full_evaluation(params)
    assert set(results.normal) == {"centralized", "parallel", "distributed"}
    report = render_evaluation(results)
    assert "Table 6 — distributed control" in report
    assert "recommendation matrix" in report
