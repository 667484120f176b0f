"""Tests for the chaos-exploration harness.

The label grammar is tested with the parser (``test_experiment.py``) and
the fan-out contract with the runner (``test_sweep.py``).
"""

import pytest

from repro.analysis.chaos import CHAOS_CONFIGS, ChaosTask, chaos_tasks, run_chaos
from repro.analysis.experiment import build_control_system, parse_config
from repro.errors import CrewError
from repro.runtime.faults import FaultPlan

#: ``ChaosTask(config, seed).plan().to_spec()`` per architecture for seeds
#: 1-3, pinned when the crash/stall candidates came from a hand-kept list
#: of node names: taking them from the built system must change no plan.
PINNED_PLANS = {
    "centralized": [
        "crash=agent-000@38.46+10.06,stall=agent-000@67.4+2.52",
        "crash=agent-000@33.38+13.84,stall=agent-002@36.29+8.65",
        "crash=agent-001@18.31+17.52,stall=agent-003@78.78+3.16",
    ],
    "parallel": [
        "crash=agent-001@38.46+10.06,stall=agent-001@67.4+2.52",
        "crash=agent-000@33.38+13.84,stall=engine-01@36.29+8.65",
        "crash=agent-002@18.31+17.52,stall=engine-02@78.78+3.16",
    ],
    "distributed": [
        "crash=agent-006@38.46+10.06,stall=agent-004@67.4+2.52",
        "crash=agent-045@20.23+11.95,stall=agent-030@37.85+8.42",
        "crash=agent-040@26.89+13.94,stall=agent-049@41.97+2.49",
    ],
}


def test_chaos_configs_cover_all_six():
    assert len(CHAOS_CONFIGS) == 6
    assert len(set(CHAOS_CONFIGS)) == 6


@pytest.mark.parametrize("config", CHAOS_CONFIGS)
def test_seed_derived_plans_are_pinned(config):
    architecture, __ = parse_config(config)
    specs = [ChaosTask(config, seed).plan().to_spec() for seed in (1, 2, 3)]
    assert specs == [f"drop=0.05,dup=0.03,delay=0.05,reorder=0.05,{tail}"
                     for tail in PINNED_PLANS[architecture]]


def test_chaos_refuses_the_failure_mode_and_garbage():
    for label in ("distributed/failure", "parallel/chaotic", "quantum/normal"):
        with pytest.raises(CrewError):
            chaos_tasks([1], configs=(label,))


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


@pytest.mark.parametrize("config", CHAOS_CONFIGS)
def test_single_node_crash_and_restart_converges(config):
    """Acceptance: crash + restart of a single node mid-run must leave
    every instance terminal with all invariants intact, in all six
    configs."""
    architecture, __ = parse_config(config)
    task = ChaosTask(config, seed=1)
    # Crash a load-bearing node mid-instance: the engine where there is
    # one, otherwise the coordination-heavy first agent.
    system = build_control_system(architecture, task.resolved_params())
    node = (system.engine_nodes() or system.agent_names())[0]
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


def test_chaos_outcomes_carry_resource_accounting():
    tasks = chaos_tasks([1, 2], configs=("centralized/normal",))
    outcomes = run_chaos(tasks, workers=1)
    assert [o.seed for o in outcomes] == [1, 2]
    for outcome in outcomes:
        assert outcome.wall_time_s > 0
        assert outcome.events > 0
        assert outcome.events_per_sec > 0
