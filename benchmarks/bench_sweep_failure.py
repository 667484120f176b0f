"""Derived figure: failure-handling messages vs rollback/halt extent.

Table 6 models distributed failure-handling traffic as ``(r+v)·pf·a``:
``r`` re-execution packets along the rolled back path plus ``v`` HaltThread
probes across the invalidated parallel branch.  This sweep varies ``r``
and ``v`` independently (with failures forced, pf-effective = 1) and shows
the measured per-failure message count growing with both — the paper's
claim that "the number of messages is very much dependent on the number of
steps to be invalidated".
"""

import pytest

from repro.analysis.experiment import PreparedRun
from repro.analysis.report import format_table
from repro.runtime.metrics import Mechanism
from repro.workloads.params import PAPER_DEFAULTS

INSTANCES = 6


def run_point(r: int, v: int, seed: int = 13) -> float:
    """Per-failure FAILURE-mechanism messages at one (r, v) point."""
    # Keep the Table-3 shape consistent: s >= r + v + f + 2.
    s_steps = max(PAPER_DEFAULTS.s, r + v + PAPER_DEFAULTS.f + 3)
    params = PAPER_DEFAULTS.evolve(c=1, i=INSTANCES, r=r, v=v, s=s_steps,
                                   pf=0.2, pi=0.0, pa=0.0, pr=0.0)
    prepared = PreparedRun("distributed", params, fail_first_attempt=True,
                           seed=seed)
    assert prepared.execute(INSTANCES).committed == INSTANCES
    metrics = prepared.system.metrics
    return metrics.total_messages(Mechanism.FAILURE) / INSTANCES


@pytest.mark.benchmark(group="sweeps")
def test_sweep_failure_messages_vs_r_and_v(benchmark):
    def sweep():
        r_series = [(r, run_point(r=r, v=4)) for r in (2, 5, 8)]
        v_series = [(v, run_point(r=5, v=v)) for v in (0, 4, 8)]
        return r_series, v_series

    r_series, v_series = benchmark.pedantic(sweep, rounds=1, iterations=1)

    params = PAPER_DEFAULTS
    print()
    print("Failure-handling messages per failure vs rollback depth r (v=4)")
    print(format_table(
        ["r", "measured msgs/failure", "model (r+v)*a"],
        [[r, f"{msgs:.1f}", (r + 4) * params.a] for r, msgs in r_series],
    ))
    print()
    print("Failure-handling messages per failure vs halted-branch size v (r=5)")
    print(format_table(
        ["v", "measured msgs/failure", "model (r+v)*a"],
        [[v, f"{msgs:.1f}", (5 + v) * params.a] for v, msgs in v_series],
    ))

    # Both series grow monotonically — the paper's dependence claims.
    r_values = [msgs for __, msgs in r_series]
    v_values = [msgs for __, msgs in v_series]
    assert r_values == sorted(r_values)
    assert v_values == sorted(v_values)
    assert r_values[-1] > r_values[0]
    assert v_values[-1] > v_values[0]
    # Magnitudes in the model's ballpark (within ~2x).
    for r, msgs in r_series:
        assert msgs < 2 * (r + 4) * params.a + 4
