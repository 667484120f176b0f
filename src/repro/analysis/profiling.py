"""Profiled experiment runs: any config or a full sweep under the profiler.

Glue between the experiment harness and :class:`repro.obs.profile.
Profiler`: the shared recipe of :mod:`repro.analysis.experiment` with the
profiler installed across the system's duck-typed hook points between
its prepare and execute steps, handing back both the per-run counters and
the accumulated profile.  Configs are ``<architecture>-<mode>`` labels in
the shared grammar; the ``failure`` mode (every schema's designated
failure step fails its first attempt) makes the OCR recovery and rollback
frames actually appear in the profile.

One :class:`~repro.obs.profile.Profiler` may be threaded through several
runs (``repro profile --sweep``); runs execute sequentially in-process —
frame attribution cannot cross a process pool.

Each run also counts the cyclic garbage collector's passes and their wall
time per generation (a ``gc.callbacks`` hook registered only while the run
executes).  The profiler cannot see a collection: its time lands in the
self time of whichever frame allocated when it fired.  A run starts from
a collected heap, so no earlier run's garbage is walked or counted in its
place; after it, one more collection outside the hook, then a count of
the objects the collector still tracks while the run's system is alive:
what every later collection has to walk.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Any, Sequence

from repro.analysis.experiment import (
    EVAL_PARAMS,
    MODES,
    PreparedRun,
    RunCounters,
    config_label,
    parse_config,
)
from repro.engines import CONTROL_SYSTEMS
from repro.obs.profile import Profiler
from repro.workloads.params import WorkloadParameters

__all__ = [
    "PROFILE_MODES",
    "ProfileRun",
    "gc_summary",
    "profile_configs",
    "render_gc",
    "run_profiled",
    "run_profiled_sweep",
]

PROFILE_MODES = MODES


def profile_configs(modes: tuple[str, ...] = ("normal", "coordinated")) -> list[str]:
    """The profileable config grid (sweep order: architecture-major)."""
    return [config_label(architecture, mode, sep="-")
            for architecture in CONTROL_SYSTEMS for mode in modes]


@dataclass(kw_only=True)
class ProfileRun(RunCounters):
    """Counters of one profiled run (the profiler itself accumulates)."""

    config: str
    seed: int
    #: Garbage-collector passes and their wall ms, per generation.
    gc_collections: list[int]
    gc_ms: list[float]
    #: Objects the collector tracks once the run is over (process-wide).
    gc_objects: int

    def as_dict(self) -> dict[str, Any]:
        return {
            "config": self.config,
            "seed": self.seed,
            **self.counter_dict(),
            "gc_objects": self.gc_objects,
            "sim_time": round(self.sim_time, 3),
            "gc": {"collections": self.gc_collections,
                   "ms": [round(ms, 3) for ms in self.gc_ms]},
        }


class _GcClock:
    """A ``gc.callbacks`` hook: passes and wall ns per generation."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.ns = [0, 0, 0]
        self._began = 0

    def __call__(self, phase: str, info: dict[str, Any]) -> None:
        if phase == "start":
            self._began = time.perf_counter_ns()
            return
        generation = info["generation"]
        self.collections[generation] += 1
        self.ns[generation] += time.perf_counter_ns() - self._began


def run_profiled(
    config: str,
    seed: int = 7,
    params: WorkloadParameters | None = None,
    instances_per_schema: int | None = None,
    profiler: Profiler | None = None,
    sample_interval: int = 256,
) -> tuple[ProfileRun, Profiler]:
    """Run one config under the profiler; returns ``(run, profiler)``.

    Pass an existing ``profiler`` to accumulate several runs into one
    profile (the ``--sweep`` path); otherwise a fresh one is created.
    The run itself is the deterministic Table-3 workload of
    :func:`~repro.analysis.experiment.run_architecture_experiment` —
    profiling never changes counters, only observes them.
    """
    architecture, mode = parse_config(config, PROFILE_MODES)
    gc.collect()
    prepared = PreparedRun(
        architecture, params if params is not None else EVAL_PARAMS,
        coordination=(mode == "coordinated"),
        fail_first_attempt=(mode == "failure"), seed=seed,
    )
    prof = profiler if profiler is not None else Profiler(sample_interval)
    prof.install(prepared.system)
    clock = _GcClock()
    gc.callbacks.append(clock)
    try:
        counters = prepared.execute(instances_per_schema)
    finally:
        gc.callbacks.remove(clock)
    gc.collect()
    objects = len(gc.get_objects())
    prof.publish(prepared.system.registry)
    return ProfileRun(config=config, seed=seed, **vars(counters),
                      gc_collections=clock.collections,
                      gc_ms=[ns / 1e6 for ns in clock.ns],
                      gc_objects=objects), prof


def run_profiled_sweep(
    configs: list[str] | None = None,
    seed: int = 7,
    params: WorkloadParameters | None = None,
    instances_per_schema: int | None = None,
    sample_interval: int = 256,
) -> tuple[list[ProfileRun], Profiler]:
    """Run several configs sequentially under one shared profiler.

    Defaults to the canonical six-config sweep grid; frames, counters
    and collapsed stacks accumulate across the runs.
    """
    chosen = configs if configs is not None else profile_configs()
    profiler = Profiler(sample_interval)
    runs = []
    for label in chosen:
        run, __ = run_profiled(
            label, seed=seed, params=params,
            instances_per_schema=instances_per_schema, profiler=profiler,
        )
        runs.append(run)
    return runs, profiler


def gc_summary(runs: Sequence[ProfileRun]) -> dict[str, Any]:
    """The runs' garbage-collector passes and wall ms per generation, and
    their share of the runs' profiled wall time."""
    collections = [sum(column) for column in zip(*(run.gc_collections for run in runs))]
    ms = [sum(column) for column in zip(*(run.gc_ms for run in runs))]
    wall_ms = 1000 * sum(run.wall_time_s for run in runs)
    return {
        "collections": collections,
        "ms": [round(value, 3) for value in ms],
        "share_of_wall": round(sum(ms) / wall_ms, 4) if wall_ms > 0 else 0.0,
        "note": "frame self times include collection time",
    }


def render_gc(runs: Sequence[ProfileRun]) -> str:
    """:func:`gc_summary` as a plain-text table."""
    summary = gc_summary(runs)
    lines = [
        f"# garbage collector: {sum(summary['collections'])} collections, "
        f"{sum(summary['ms']):.2f} ms = {100 * summary['share_of_wall']:.1f} % of "
        f"profiled wall (frame self times above still include it)",
        f"{'generation':<10} {'collections':>12} {'ms':>10}",
    ]
    for generation, (count, ms) in enumerate(zip(summary["collections"], summary["ms"])):
        lines.append(f"{generation:<10} {count:>12} {ms:>10.2f}")
    return "\n".join(lines)
