"""Shared driver for the Table 4-7 reproduction benchmarks.

Thin wrapper over :mod:`repro.analysis.experiment` (the library-level
evaluation runner) so the pytest-benchmark files stay declarative.

Every :func:`run_architecture` call is logged to :data:`RUN_LOG` with its
run metadata (seed, parameter point, wall time, commit counts, message
totals and trace summary); the benchmark conftest stamps that provenance
into each benchmark's ``extra_info`` and into the ``--benchmark-json``
output, so result files are self-describing.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Any

from repro.analysis.experiment import (
    EVAL_PARAMS as BENCH_PARAMS,
    ArchitectureResult as BenchResult,
    run_architecture_experiment,
)
from repro.analysis.sweep import SweepTask, run_sweep

__all__ = ["BENCH_PARAMS", "BenchResult", "RUN_LOG", "SweepTask",
           "environment_metadata", "run_architecture", "run_architectures"]

#: Metadata of every experiment run in this process, in call order.
RUN_LOG: list[dict[str, Any]] = []


def environment_metadata() -> dict[str, Any]:
    """Provenance stamp for benchmark result files.

    Wall-clock numbers are meaningless without knowing what produced
    them; every benchmark JSON carries this block so a result file can
    be judged (and a baseline recommitted) without asking where it ran.
    """
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def run_architecture(architecture: str, **kwargs) -> BenchResult:
    """Run one Table 4/5/6 measurement and log its run metadata."""
    result = run_architecture_experiment(architecture, **kwargs)
    RUN_LOG.append(result.run_metadata())
    return result


def run_architectures(tasks: list[SweepTask],
                      workers: int | None = None) -> list[BenchResult]:
    """Fan independent measurements out over a process pool.

    Results and RUN_LOG rows land in canonical (submission) order, so a
    parallel benchmark run produces the same provenance log as a serial
    one — only the wall time differs.
    """
    sweep = run_sweep(tasks, workers=workers)
    RUN_LOG.extend(sweep.run_log)
    return sweep.results
