"""Tests for the library-level evaluation runner."""

import pytest

from repro.analysis.experiment import (
    EVAL_PARAMS,
    full_evaluation,
    ocr_ablation,
    render_evaluation,
    run_architecture_experiment,
)
from repro.runtime.metrics import Mechanism
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
