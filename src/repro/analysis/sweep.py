"""Parallel experiment sweep runner.

The full evaluation (Tables 4–7) is a bag of independent simulation
configs: each ``(architecture, parameter point, coordination flag, seed)``
task builds its own control system, drives its own workload and reports
its own :class:`~repro.analysis.experiment.ArchitectureResult`.  Nothing
couples two tasks at runtime — determinism is *per task* because every
task carries its own seed — so :func:`run_tasks` fans any list of tasks
with a ``.run()`` (these, or the chaos harness's) out over a
``concurrent.futures.ProcessPoolExecutor`` and merges results back in
**canonical order** (the order the tasks were submitted), which keeps
the merged result list, the run-metadata log and any report rendered from
them byte-identical whether the sweep ran on 1 worker or 40.

``workers <= 1`` (or a single task) short-circuits to a plain in-process
loop: no executor, no pickling, bit-for-bit the behaviour of calling
:func:`run_architecture_experiment` yourself — which is also the fallback
when the platform cannot spawn processes (restricted sandboxes).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.analysis.experiment import (
    EVAL_PARAMS,
    ArchitectureResult,
    config_label,
    run_architecture_experiment,
)
from repro.engines import CONTROL_SYSTEMS
from repro.workloads.params import WorkloadParameters

__all__ = ["SweepResult", "SweepTask", "default_workers", "run_sweep",
           "run_tasks", "sweep_tasks"]


@dataclass(frozen=True)
class SweepTask:
    """One independent experiment config in a sweep.

    ``label`` is free-form provenance (e.g. ``"centralized/coordinated"``)
    carried through to the merged run log; it does not affect execution.
    """

    architecture: str
    params: WorkloadParameters
    coordination: bool = False
    instances_per_schema: int | None = None
    seed: int = 7
    label: str = ""

    def run(self) -> ArchitectureResult:
        return run_architecture_experiment(
            self.architecture,
            self.params,
            coordination=self.coordination,
            instances_per_schema=self.instances_per_schema,
            seed=self.seed,
        )


@dataclass
class SweepResult:
    """Results and provenance of one sweep, in canonical task order."""

    tasks: list[SweepTask] = field(default_factory=list)
    results: list[ArchitectureResult] = field(default_factory=list)
    workers: int = 1

    @property
    def run_log(self) -> list[dict[str, Any]]:
        """Per-task run metadata (the benchmark harness's ``RUN_LOG`` rows),
        stamped with each task's label, in canonical order."""
        rows = []
        for task, result in zip(self.tasks, self.results):
            row = result.run_metadata()
            if task.label:
                row["label"] = task.label
            rows.append(row)
        return rows


def default_workers() -> int:
    """Worker count when the caller does not choose: one per core."""
    return max(1, os.cpu_count() or 1)


#: Progress callback signature: ``progress(done, total, task, result)``,
#: invoked once per *completed* task, in completion (not canonical) order.
ProgressFn = Callable[[int, int, Any, Any], None]


def run_tasks(
    tasks: Iterable[Any],
    workers: int | None = None,
    progress: ProgressFn | None = None,
) -> tuple[list[Any], int]:
    """Call ``.run()`` on every task; ``(results, workers used)``, results
    in canonical (submission) order.

    ``workers`` defaults to :func:`default_workers`; ``workers <= 1`` runs
    serially in-process.  Each task is deterministic given its own fields,
    so worker count and scheduling order never change a result — only the
    wall time.  ``progress`` is called after each task completes, in
    completion order.
    """
    task_list = list(tasks)
    total = len(task_list)
    count = default_workers() if workers is None else max(1, int(workers))
    count = min(count, total)
    if count > 1:
        try:
            with ProcessPoolExecutor(max_workers=count) as pool:
                # Slots keyed by submission index keep canonical order
                # whichever worker finishes first.
                futures = {pool.submit(task.run): index
                           for index, task in enumerate(task_list)}
                slots: list[Any] = [None] * total
                for done, future in enumerate(as_completed(futures), 1):
                    index = futures[future]
                    slots[index] = future.result()
                    if progress is not None:
                        progress(done, total, task_list[index], slots[index])
            return slots, count
        except OSError:  # pragma: no cover - sandboxed hosts
            pass
    results = []
    for done, task in enumerate(task_list, 1):
        results.append(task.run())
        if progress is not None:
            progress(done, total, task, results[-1])
    return results, 1


def run_sweep(
    tasks: Iterable[SweepTask],
    workers: int | None = None,
    progress: ProgressFn | None = None,
) -> SweepResult:
    """:func:`run_tasks` over sweep tasks, with the tasks and the worker
    count kept beside the results."""
    task_list = list(tasks)
    results, count = run_tasks(task_list, workers=workers, progress=progress)
    return SweepResult(tasks=task_list, results=results, workers=count)


def sweep_tasks(
    architectures: Sequence[str] = tuple(CONTROL_SYSTEMS),
    params: WorkloadParameters | None = None,
    coordination_modes: Sequence[bool] = (False, True),
    seed: int = 7,
    instances_per_schema: int | None = None,
) -> list[SweepTask]:
    """The canonical Table 4–6 task grid: architecture-major, then
    normal-before-coordinated — the exact order ``full_evaluation`` has
    always used, so merged reports stay byte-identical to serial runs."""
    return [
        SweepTask(
            architecture=architecture,
            params=params if params is not None else EVAL_PARAMS,
            coordination=coordination,
            instances_per_schema=instances_per_schema,
            seed=seed,
            label=config_label(architecture,
                               "coordinated" if coordination else "normal"),
        )
        for architecture in architectures
        for coordination in coordination_modes
    ]
