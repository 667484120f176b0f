"""Derived figure: per-node scheduling load vs fleet size.

The paper has no result plots (Tables 4-6 are single-point evaluations),
but Section 6's scalability argument is a curve: per-node load under
distributed control falls as ``s/z`` while the central engine's stays at
``s`` regardless.  This benchmark sweeps ``z`` (agents) and ``e``
(engines) and prints the series the paper's argument implies.
"""

import pytest

from repro.analysis.report import format_table
from repro.runtime.metrics import Mechanism

from harness import BENCH_PARAMS, run_architecture


@pytest.mark.benchmark(group="sweeps")
def test_sweep_load_vs_agents(benchmark):
    def sweep():
        series = []
        for z in (10, 25, 50, 100):
            params = BENCH_PARAMS.evolve(z=z, i=10)
            result = run_architecture("distributed", params=params)
            series.append((z, result.measured.load[Mechanism.NORMAL]))
        return series

    series = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("Distributed control: per-agent load per instance vs z")
    print(format_table(
        ["z (agents)", "measured load (units of l)", "model s/z"],
        [[z, f"{load:.4f}", f"{BENCH_PARAMS.s / z:.4f}"] for z, load in series],
    ))
    loads = [load for __, load in series]
    # Monotone decreasing in fleet size: the scalability claim.
    assert all(a > b for a, b in zip(loads, loads[1:]))
    # Roughly inverse-linear: quadrupling z cuts load by >2x.
    assert loads[0] / loads[-1] > 2.0


@pytest.mark.benchmark(group="sweeps")
def test_sweep_load_vs_engines(benchmark):
    def sweep():
        series = []
        for e in (1, 2, 4, 8):
            params = BENCH_PARAMS.evolve(e=e, i=10)
            result = run_architecture("parallel", params=params)
            series.append((e, result.measured.load[Mechanism.NORMAL]))
        return series

    series = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("Parallel control: per-engine load per instance vs e")
    print(format_table(
        ["e (engines)", "measured load (units of l)", "model s/e"],
        [[e, f"{load:.4f}", f"{BENCH_PARAMS.s / e:.4f}"] for e, load in series],
    ))
    loads = [load for __, load in series]
    assert all(a > b for a, b in zip(loads, loads[1:]))
    # e=1 degenerates to the centralized engine load (~s per instance).
    assert loads[0] == pytest.approx(BENCH_PARAMS.s, rel=0.3)
