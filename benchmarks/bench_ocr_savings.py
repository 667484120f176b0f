"""OCR ablation: opportunistic compensation/re-execution vs the Saga baseline.

Section 6's opening analysis: "it is not expensive to use this strategy
... in general the benefits from the OCR scheme is considerable while
paying a small overhead."  This benchmark quantifies the claim on a
failure-laden workload in which *every* instance fails once and rolls back
``r`` steps.  The same workload runs at increasing values of ``pr`` (the
paper's "probability of step re-execution": the fraction of rolled back
steps whose CR condition forces a real re-execution) and once with every
step forced to ``AlwaysReexecute`` — the Sagas-style compensate-everything
baseline the paper calls "an overkill in several practical scenarios".
"""

import pytest

from repro.analysis.experiment import ocr_ablation
from repro.analysis.report import format_table
from repro.workloads.params import PAPER_DEFAULTS

INSTANCES = 8
SCHEMAS = 2


@pytest.mark.benchmark(group="ocr")
def test_ocr_savings_vs_saga_baseline(benchmark):
    def sweep():
        return ocr_ablation(seed=11, instances=INSTANCES, schemas=SCHEMAS)

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    saga_total = rows[-1][1] + rows[-1][2]
    print()
    print("OCR vs Saga — total program work, every instance fails once and "
          f"rolls back r={PAPER_DEFAULTS.r} steps "
          f"({SCHEMAS * INSTANCES} instances)")
    print(format_table(
        ["variant", "execute work", "compensate work", "total",
         "saving vs Saga"],
        [[label, f"{execute:.0f}", f"{compensate:.0f}",
          f"{execute + compensate:.0f}",
          f"{100 * (1 - (execute + compensate) / saga_total):.1f}%"]
         for label, execute, compensate, __ in rows],
    ))

    # Every variant commits every instance — OCR changes cost, not outcomes.
    for __, __e, __c, commits in rows:
        assert commits == SCHEMAS * INSTANCES

    totals = [execute + compensate for __, execute, compensate, __c in rows]
    # Work grows with pr and the Saga baseline is the most expensive.
    assert totals[0] < totals[1] <= totals[2] < totals[3]
    # Pure OCR (all reusable) saves substantially — the paper's
    # "considerable benefit" — here well over 20% of total work.
    assert totals[0] < 0.8 * saga_total
    # The Saga baseline never reuses: compensation work is maximal there.
    assert rows[-1][2] > rows[0][2]
