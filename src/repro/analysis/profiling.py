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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

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
    "profile_configs",
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

    def as_dict(self) -> dict[str, Any]:
        return {
            "config": self.config,
            "seed": self.seed,
            **self.counter_dict(),
            "sim_time": round(self.sim_time, 3),
        }


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
    prepared = PreparedRun(
        architecture, params if params is not None else EVAL_PARAMS,
        coordination=(mode == "coordinated"),
        fail_first_attempt=(mode == "failure"), seed=seed,
    )
    prof = profiler if profiler is not None else Profiler(sample_interval)
    prof.install(prepared.system)
    counters = prepared.execute(instances_per_schema)
    prof.publish(prepared.system.registry)
    return ProfileRun(config=config, seed=seed, **vars(counters)), prof


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
