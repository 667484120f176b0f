"""Mini Tables 4-6: run one workload under all three architectures.

Drives the same Table-3-shaped workload through centralized, parallel and
distributed control and prints, per architecture, the per-instance message
counts and per-node loads next to the paper's analytic model — a compact
rendition of the paper's Section 6 comparison (the full benchmark harness
in benchmarks/ does this at scale).

Run:  python examples/architecture_comparison.py
"""

from repro import Mechanism, WorkloadParameters
from repro.analysis import (
    architecture_model,
    format_table,
    run_architecture_experiment,
)

PARAMS = WorkloadParameters(c=2, i=10)


def main():
    rows = []
    for architecture in ("centralized", "parallel", "distributed"):
        # The library's one recipe: build the Table-3 workload and a system
        # sized for it, install, drive, run, normalize per instance.
        measured = run_architecture_experiment(
            architecture, PARAMS, seed=17).measured
        model = architecture_model(architecture, PARAMS)
        rows.append([
            architecture,
            f"{measured.messages[Mechanism.NORMAL]:.1f}",
            f"{model.messages(Mechanism.NORMAL):.0f}",
            f"{measured.load[Mechanism.NORMAL]:.3f}",
            f"{model.load(Mechanism.NORMAL):.3f}",
            f"{measured.messages[Mechanism.FAILURE]:.2f}",
            f"{model.messages(Mechanism.FAILURE):.2f}",
        ])
    print("Per-instance costs, measured vs the paper's analytic model "
          f"(s={PARAMS.s}, a={PARAMS.a}, e={PARAMS.e}, z={PARAMS.z})")
    print(format_table(
        ["architecture", "msgs meas.", "msgs model", "load meas.",
         "load model", "fail msgs meas.", "fail msgs model"],
        rows,
    ))
    print()
    print("Shape check (paper Table 7): distributed moves the fewest messages")
    print("and loads each node least; the central engine is the bottleneck.")


if __name__ == "__main__":
    main()
