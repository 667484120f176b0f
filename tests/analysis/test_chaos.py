"""Tests for the chaos-exploration harness."""

import pytest

from repro.analysis.chaos import (
    CHAOS_CONFIGS,
    ChaosTask,
    chaos_tasks,
    config_nodes,
    run_chaos,
    split_config,
)
from repro.errors import CrewError
from repro.runtime.faults import FaultPlan


def test_chaos_configs_cover_all_six():
    assert len(CHAOS_CONFIGS) == 6
    for label in CHAOS_CONFIGS:
        architecture, coordinated = split_config(label)
        assert architecture in ("centralized", "parallel", "distributed")
        assert isinstance(coordinated, bool)


def test_split_config_rejects_garbage():
    for label in ("centralized", "parallel/chaotic", "a/b/c"):
        with pytest.raises(CrewError):
            split_config(label)


def test_config_nodes_match_built_systems():
    from repro.analysis.experiment import build_control_system

    task = ChaosTask("distributed/normal", seed=1)
    params = task.resolved_params()
    for architecture in ("centralized", "parallel", "distributed"):
        system = build_control_system(architecture, params, seed=1)
        assert sorted(config_nodes(architecture, params)) == sorted(
            system.network.node_names()
        )


def test_task_plan_derived_from_seed_is_stable():
    task = ChaosTask("centralized/normal", seed=9)
    assert task.plan() == task.plan()
    assert task.plan().crashes  # default profile schedules one crash
    # An explicit spec takes precedence over the seed.
    pinned = ChaosTask("centralized/normal", seed=9, plan_spec="drop=0.5")
    assert pinned.plan() == FaultPlan(drop_p=0.5)


def test_chaos_run_is_bit_reproducible():
    task = ChaosTask("distributed/normal", seed=3)
    first = task.run().as_dict()
    second = task.run().as_dict()
    # Resource accounting (wall time, throughput, RSS high-water) measures
    # the host, not the simulation — everything else must be bit-identical.
    for report in (first, second):
        for key in ("wall_time_s", "events_per_sec", "peak_rss_kb"):
            report.pop(key)
    assert first == second
    assert first["messages"] > 0


def test_clean_run_has_no_violations_or_artifacts():
    outcome = ChaosTask("centralized/normal", seed=1,
                        plan_spec="none").run()
    assert outcome.ok
    assert outcome.violations == []
    assert outcome.minimized_spec is None
    assert outcome.trace_jsonl is None
    assert outcome.started == outcome.committed + outcome.aborted


def test_strict_mode_flags_lost_messages():
    # drop with no crash/stall; strict mode turns permanent loss into a
    # violation even when the protocols still converge.
    task = ChaosTask("distributed/normal", seed=4,
                     plan_spec="drop=1.0,droplimit=200", strict=True)
    outcome = task.run()
    if outcome.fault_stats.get("lost", 0):
        assert not outcome.ok
        assert any("lost" in v for v in outcome.violations)


def test_repro_line_round_trips_through_task():
    outcome = ChaosTask("parallel/normal", seed=2).run()
    line = outcome.repro_line
    assert "repro chaos" in line
    assert f"--seed {outcome.seed}" in line
    assert f"--config {outcome.config}" in line


def test_chaos_tasks_enumerates_config_major():
    tasks = chaos_tasks([1, 2], configs=("centralized/normal",
                                         "distributed/coordinated"))
    assert [(t.config, t.seed) for t in tasks] == [
        ("centralized/normal", 1), ("centralized/normal", 2),
        ("distributed/coordinated", 1), ("distributed/coordinated", 2),
    ]


def test_run_chaos_serial_matches_task_order():
    tasks = chaos_tasks([1], configs=("centralized/normal",
                                      "parallel/normal"))
    outcomes = run_chaos(tasks, workers=1)
    assert [(o.config, o.seed) for o in outcomes] == [
        ("centralized/normal", 1), ("parallel/normal", 1),
    ]


@pytest.mark.parametrize("config", CHAOS_CONFIGS)
def test_single_node_crash_and_restart_converges(config):
    """Acceptance: crash + restart of a single node mid-run must leave
    every instance terminal with all invariants intact, in all six
    configs."""
    architecture, __ = split_config(config)
    task = ChaosTask(config, seed=1)
    # Crash a load-bearing node mid-instance: the engine where there is
    # one, otherwise the coordination-heavy first agent.
    node = config_nodes(architecture, task.resolved_params())[0]
    outcome = ChaosTask(config, seed=1,
                        plan_spec=f"crash={node}@8+10").run()
    assert outcome.ok, outcome.violations
    assert outcome.started == outcome.committed + outcome.aborted
    assert outcome.fault_stats["crashes"] == 1
    assert outcome.fault_stats["recoveries"] == 1


def test_random_schedule_runs_clean_across_configs():
    """A default random schedule (drop+dup+delay+reorder+crash+stall)
    holds every invariant on a smoke seed in each config."""
    for config in CHAOS_CONFIGS:
        outcome = ChaosTask(config, seed=6).run()
        assert outcome.ok, (config, outcome.violations)


def test_regression_stale_launch_races_epoch_bump():
    """Pin of a harness-found wedge: a delayed pre-rollback packet starts a
    step just before the invalidation arrives; the stale completion must
    release the RUNNING record and re-drive the step, or the instance
    never terminates (distributed/coordinated, seed 20)."""
    outcome = ChaosTask(
        "distributed/coordinated", seed=20,
        plan_spec="drop=0.05,dup=0.03,delay=0.05,reorder=0.05",
    ).run()
    assert outcome.ok, outcome.violations


def test_chaos_progress_callback_and_resource_accounting():
    tasks = chaos_tasks([1, 2], configs=("centralized/normal",))
    seen = []

    def progress(done, total, task, outcome):
        seen.append((done, total, task.seed, outcome.ok))

    outcomes = run_chaos(tasks, workers=1, progress=progress)
    assert [s[0] for s in sorted(seen)] == [1, 2]
    assert all(s[1] == 2 for s in seen)
    assert [o.seed for o in outcomes] == [1, 2]  # canonical order kept
    for outcome in outcomes:
        assert outcome.wall_time_s > 0
        assert outcome.events > 0
        assert outcome.events_per_sec > 0
