"""Derived figure: coordination messages vs coordination degree.

Section 6's architecture recommendation hinges on how message counts grow
with the number of governed steps (``me + ro + rd``).  This sweep varies
the coordination degree and prints, per architecture, the measured
per-instance coordination messages — making the Table 7 crossover
("in the unlikely case that several steps have coordinated execution
requirements then central ... control is preferable") visible as a curve.
"""

import pytest

from repro.analysis.report import format_table
from repro.runtime.metrics import Mechanism

from harness import BENCH_PARAMS, run_architecture

#: (ro, me, rd) mixes of increasing degree.
DEGREES = [(1, 0, 0), (2, 2, 1), (4, 4, 2)]


@pytest.mark.benchmark(group="sweeps")
def test_sweep_coordination_messages(benchmark):
    def sweep():
        table = []
        for ro, me, rd in DEGREES:
            params = BENCH_PARAMS.evolve(ro=ro, me=me, rd=rd, i=10)
            row = {"degree": ro + me + rd}
            for architecture in ("centralized", "parallel", "distributed"):
                result = run_architecture(architecture, params=params,
                                          coordination=True)
                row[architecture] = (
                    result.measured.messages[Mechanism.COORDINATION]
                )
            table.append(row)
        return table

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("Coordination messages per instance vs coordination degree (me+ro+rd)")
    print(format_table(
        ["me+ro+rd", "centralized", "parallel", "distributed"],
        [[row["degree"], f"{row['centralized']:.2f}",
          f"{row['parallel']:.2f}", f"{row['distributed']:.2f}"]
         for row in table],
    ))
    for row in table:
        # Centralized control never spends messages on coordination.
        assert row["centralized"] == 0.0
        # Parallel's broadcast scheme is the most expensive of the three.
        assert row["parallel"] >= row["distributed"]
    # Costs grow with the coordination degree for the non-central schemes.
    assert table[-1]["parallel"] > table[0]["parallel"]
    assert table[-1]["distributed"] > table[0]["distributed"]
