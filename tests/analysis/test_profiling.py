"""Tests for the profiled experiment runner (``repro profile`` core)."""

import gc

from repro.analysis.profiling import (
    gc_summary,
    profile_configs,
    render_gc,
    run_profiled,
    run_profiled_sweep,
)
from repro.engines import CONTROL_SYSTEMS
from repro.obs.profile import Profiler


def test_default_grid_is_architecture_major_six_configs():
    grid = profile_configs()
    assert len(grid) == 6
    assert grid[0] == "centralized-normal"
    assert [c.split("-")[0] for c in grid] == [
        a for a in CONTROL_SYSTEMS for __ in range(2)]


def test_run_profiled_smoke():
    run, prof = run_profiled("centralized-normal", seed=3,
                             instances_per_schema=2)
    assert run.committed > 0
    assert run.events > 0
    assert run.wall_time_s > 0
    assert run.events_per_sec > 0
    assert prof.depth() == 0  # every frame popped
    names = {s.name for s in prof.top_frames()}
    assert "transport.arrive" in names
    assert "wal.append" in names
    assert prof.events == run.events


def test_profiling_does_not_change_the_simulation():
    first, __ = run_profiled("distributed-normal", seed=5,
                             instances_per_schema=2)
    second, __ = run_profiled("distributed-normal", seed=5,
                              instances_per_schema=2)
    assert (first.committed, first.aborted, first.messages, first.events,
            first.sim_time) == (second.committed, second.aborted,
                                second.messages, second.events,
                                second.sim_time)


def test_failure_mode_exercises_recovery_frames():
    run, prof = run_profiled("distributed-failure", seed=3,
                             instances_per_schema=2)
    names = {s.name for s in prof.top_frames()}
    assert "recovery.ocr" in names
    # Pinned when the forced failure was a program override pasted after
    # install: as an argument of install it must count the same.
    assert (run.committed, run.aborted, run.messages, run.events) == (
        8, 0, 447, 702)


def test_sweep_accumulates_into_one_profiler():
    runs, prof = run_profiled_sweep(
        ["centralized-normal", "centralized-coordinated"], seed=3,
        instances_per_schema=2)
    assert [r.config for r in runs] == ["centralized-normal",
                                       "centralized-coordinated"]
    assert isinstance(prof, Profiler)
    assert prof.events == sum(r.events for r in runs)


def test_as_dict_is_json_safe():
    import json

    run, __ = run_profiled("parallel-normal", seed=3,
                           instances_per_schema=1)
    json.dumps(run.as_dict())
    assert run.as_dict()["config"] == "parallel-normal"


def test_the_garbage_collector_is_clocked_only_while_a_run_executes():
    hooks = list(gc.callbacks)
    run, __ = run_profiled("distributed-normal", seed=3, instances_per_schema=2)
    assert gc.callbacks == hooks
    assert len(run.gc_collections) == len(run.gc_ms) == 3
    assert run.gc_collections[0] > 0 and sum(run.gc_ms) > 0
    summary = gc_summary([run, run])
    assert summary["collections"] == [2 * n for n in run.gc_collections]
    assert 0 < summary["share_of_wall"] < 1
    assert summary["share_of_wall"] == round(sum(run.gc_ms) / (1000 * run.wall_time_s), 4)
    table = render_gc([run]).splitlines()
    assert table[0].startswith(f"# garbage collector: {sum(run.gc_collections)} collections")
    assert [line.split()[0] for line in table[2:]] == ["0", "1", "2"]
