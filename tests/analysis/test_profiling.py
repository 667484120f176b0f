"""Tests for the profiled experiment runner (``repro profile`` core).

Besides the process timer, the runs here take one hand-fed sample on
every call of chosen package functions (``tests.conftest.
sampling_calls_to``), so what the profile must contain does not depend on
where the timer happened to fire."""

import gc
import signal

from repro.analysis.profiling import (
    gc_summary,
    profile_configs,
    render_gc,
    run_profiled,
    run_profiled_sweep,
)
from repro.engines import CONTROL_SYSTEMS
from repro.engines.distributed.failure import AgentFailureMixin
from repro.obs.profile import LAYERS, Profiler, function_name
from repro.runtime.transport import Network
from repro.storage.wal import WriteAheadLog
from tests.conftest import sampling_calls_to


def leaf_samples(prof, fn):
    """Samples whose innermost package frame is ``fn``."""
    return sum(count for stack, count in prof.stacks.items()
               if stack[-1] is fn.__code__)


def test_default_grid_is_architecture_major_six_configs():
    grid = profile_configs()
    assert len(grid) == 6
    assert grid[0] == "centralized-normal"
    assert [c.split("-")[0] for c in grid] == [
        a for a in CONTROL_SYSTEMS for __ in range(2)]


def test_run_profiled_smoke():
    with sampling_calls_to(WriteAheadLog.append, Network._arrive) as calls:
        run, prof = run_profiled("centralized-normal", seed=3,
                                 instances_per_schema=2)
    assert run.committed > 0
    assert run.events > 0
    assert run.wall_time_s > 0
    assert run.events_per_sec > 0
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)  # disarmed
    assert "WriteAheadLog.append" in calls and "Network._arrive" in calls
    assert leaf_samples(prof, WriteAheadLog.append) >= calls.count("WriteAheadLog.append")
    rows = {row["layer"]: row["samples"] for row in prof.layers()}
    assert set(rows) <= set(LAYERS)  # every row is a layer, no catch-all
    assert rows["store"] >= calls.count("WriteAheadLog.append")
    assert rows["transport"] >= calls.count("Network._arrive")
    assert sum(rows.values()) == prof.total_samples() >= len(calls)
    # the counter track reads the run's own clock and network
    assert 0 < prof.ticks[-1][2] <= run.events
    assert 0 <= prof.ticks[-1][3] <= run.messages


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
    with sampling_calls_to(AgentFailureMixin._handle_failure) as calls:
        run, prof = run_profiled("distributed-failure", seed=3,
                                 instances_per_schema=2)
    assert calls
    assert prof.samples["recovery"] >= len(calls)
    handler = function_name(AgentFailureMixin._handle_failure.__code__)
    assert any(line.split(";")[-1].startswith(f"{handler} ")
               for line in prof.collapsed().splitlines())
    # Pinned when the forced failure was a program override pasted after
    # install: as an argument of install it must count the same.
    assert (run.committed, run.aborted, run.messages, run.events) == (
        8, 0, 447, 702)


def test_sweep_accumulates_into_one_profiler():
    with sampling_calls_to(WriteAheadLog.append) as first:
        run_profiled("centralized-normal", seed=3, instances_per_schema=2)
    with sampling_calls_to(WriteAheadLog.append) as calls:
        runs, prof = run_profiled_sweep(
            ["centralized-normal", "centralized-coordinated"], seed=3,
            instances_per_schema=2)
    assert [r.config for r in runs] == ["centralized-normal",
                                       "centralized-coordinated"]
    assert isinstance(prof, Profiler)
    assert len(calls) > len(first) > 0  # both runs were sampled
    assert leaf_samples(prof, WriteAheadLog.append) >= len(calls)
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


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
