"""Table 5 reproduction: Load and Physical Messages in Parallel Control.

Checks the paper's two Table 5 claims: message counts equal the
centralized ones (the dispatch protocol is unchanged; each instance is
owned by one engine), while the per-engine load is the centralized load
divided by ``e`` — and, with coordination requirements installed, the
``(me+ro+rd)·e·s`` broadcast term makes parallel control the most
message-hungry architecture.
"""

import pytest

from repro.analysis.model import parallel_model
from repro.analysis.report import render_architecture_table
from repro.runtime.metrics import Mechanism

from harness import BENCH_PARAMS, run_architecture


@pytest.mark.benchmark(group="table5")
def test_table5_parallel(benchmark):
    result = benchmark.pedantic(
        lambda: run_architecture("parallel", coordination=False),
        rounds=1, iterations=1,
    )
    params = result.params
    measured = result.measured

    print()
    print(render_architecture_table(parallel_model(params)))
    print()
    print(result.report())

    # Messages match the centralized protocol: 2·s·a per instance.
    assert measured.messages[Mechanism.NORMAL] == pytest.approx(
        2 * params.s * params.a, rel=0.05
    )
    # Per-engine load is the centralized load shared by e engines.
    assert measured.load[Mechanism.NORMAL] == pytest.approx(
        params.s / params.e, rel=0.25
    )


@pytest.mark.benchmark(group="table5")
def test_table5_parallel_coordination_broadcast(benchmark):
    result = benchmark.pedantic(
        lambda: run_architecture("parallel", coordination=True),
        rounds=1, iterations=1,
    )
    measured = result.measured
    print()
    print(result.report())
    # Coordination is message-expensive in parallel control: every governed
    # event is broadcast to all engines.
    assert measured.messages[Mechanism.COORDINATION] > 0
    central = run_architecture("centralized", coordination=True)
    assert measured.messages[Mechanism.COORDINATION] > \
        central.measured.messages[Mechanism.COORDINATION]
