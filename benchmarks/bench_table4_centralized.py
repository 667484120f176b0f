"""Table 4 reproduction: Load and Physical Messages in Centralized Control.

Regenerates the paper's Table 4 from simulation and checks the shape:
the measured normal-execution message count matches ``2·s·a`` exactly
(the protocol is message-for-message the paper's accounting), engine load
dominates all other mechanisms, and coordination costs zero messages.
"""

import pytest

from repro.analysis.model import centralized_model
from repro.analysis.report import render_architecture_table
from repro.runtime.metrics import Mechanism

from harness import BENCH_PARAMS, run_architecture


@pytest.mark.benchmark(group="table4")
def test_table4_centralized(benchmark):
    result = benchmark.pedantic(
        lambda: run_architecture("centralized", coordination=False),
        rounds=1, iterations=1,
    )
    params = result.params
    measured = result.measured

    print()
    print(render_architecture_table(centralized_model(params)))
    print()
    print(result.report())

    # Exact: per-instance normal-execution messages = 2·s·a.
    assert measured.messages[Mechanism.NORMAL] == pytest.approx(
        2 * params.s * params.a, rel=0.02
    )
    # Failure handling traffic exists but is two orders below normal.
    assert 0 < measured.messages[Mechanism.FAILURE] < measured.messages[Mechanism.NORMAL] / 10
    # No coordination requirements installed -> zero coordination messages.
    assert measured.messages[Mechanism.COORDINATION] == 0
    # Engine navigation load per instance is on the order of s (units of l).
    assert measured.load[Mechanism.NORMAL] == pytest.approx(params.s, rel=0.25)
    assert result.committed + result.aborted == measured.instances


@pytest.mark.benchmark(group="table4")
def test_table4_centralized_with_coordination(benchmark):
    result = benchmark.pedantic(
        lambda: run_architecture("centralized", coordination=True),
        rounds=1, iterations=1,
    )
    measured = result.measured
    print()
    print(result.report())
    # The paper's headline: coordinated execution is FREE in messages under
    # centralized control, but costs engine load.
    assert measured.messages[Mechanism.COORDINATION] == 0
    assert measured.load[Mechanism.COORDINATION] > 0
