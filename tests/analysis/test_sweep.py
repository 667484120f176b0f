"""Parallel sweep runner: canonical-order merge and worker-count determinism.

The acceptance bar for the sweep runner: fixed-seed per-category message
counts for all six architecture×failure configs are **byte-identical**
whether the sweep runs serially (``workers=1``) or fanned out over a
process pool (``workers=4``) — determinism is per task because every task
carries its own seed, so scheduling order must never leak into results.

The same runner (:func:`run_tasks`) fans out the chaos harness, so its
contract is tested once here over both task types; and one full sweep
pass is held to the committed fixed-seed counters of
``benchmarks/e2e_baseline.json`` — the determinism gate.
"""

import json
import pathlib

import pytest

from repro.analysis.chaos import chaos_tasks
from repro.analysis.experiment import run_architecture_experiment
from repro.analysis.sweep import SweepTask, run_sweep, run_tasks, sweep_tasks
from repro.workloads.params import PAPER_DEFAULTS

BASELINE = (pathlib.Path(__file__).resolve().parents[2]
            / "benchmarks" / "e2e_baseline.json")

ARCHITECTURES = ("centralized", "parallel", "distributed")

# Small-but-real parameter points: with and without forced step failures.
FAILURE_POINTS = {
    "with-failure": PAPER_DEFAULTS.evolve(c=2, i=4, pf=0.2),
    "failure-free": PAPER_DEFAULTS.evolve(c=2, i=4, pf=0.0),
}


def six_config_tasks(seed=11):
    """The six arch×failure configs as sweep tasks, canonical order."""
    return [
        SweepTask(architecture, params, seed=seed,
                  label=f"{architecture}/{mode}")
        for architecture in ARCHITECTURES
        for mode, params in sorted(FAILURE_POINTS.items())
    ]


def category_counts(result):
    """Per-category (mechanism) message counts, JSON-canonicalized."""
    return json.dumps(
        {str(mechanism): count
         for mechanism, count in sorted(result.measured.messages.items(),
                                        key=lambda kv: str(kv[0]))},
        sort_keys=True,
    ).encode()


def test_workers_1_and_4_byte_identical_message_counts():
    tasks = six_config_tasks()
    serial = run_sweep(tasks, workers=1)
    pooled = run_sweep(tasks, workers=4)
    assert [t.label for t in serial.tasks] == [t.label for t in pooled.tasks]
    for task, a, b in zip(tasks, serial.results, pooled.results):
        assert category_counts(a) == category_counts(b), task.label
        assert a.committed == b.committed and a.aborted == b.aborted
        assert a.messages == b.messages


def test_sweep_matches_direct_serial_calls():
    tasks = six_config_tasks()
    sweep = run_sweep(tasks, workers=4)
    for task, pooled in zip(tasks, sweep.results):
        direct = run_architecture_experiment(
            task.architecture, task.params, coordination=task.coordination,
            seed=task.seed,
        )
        assert category_counts(direct) == category_counts(pooled), task.label


def test_results_merge_in_canonical_order():
    tasks = six_config_tasks()
    sweep = run_sweep(tasks, workers=2)
    assert [r.architecture for r in sweep.results] == [
        t.architecture for t in tasks
    ]
    labels = [row["label"] for row in sweep.run_log]
    assert labels == [t.label for t in tasks]
    for row, task in zip(sweep.run_log, tasks):
        assert row["seed"] == task.seed
        assert row["params"]["pf"] == task.params.pf


def test_run_log_rows_are_json_safe():
    sweep = run_sweep(six_config_tasks()[:1], workers=1)
    json.dumps(sweep.run_log)  # must not raise


def test_sweep_tasks_grid_is_architecture_major():
    tasks = sweep_tasks(seed=3)
    assert [(t.architecture, t.coordination) for t in tasks] == [
        ("centralized", False), ("centralized", True),
        ("parallel", False), ("parallel", True),
        ("distributed", False), ("distributed", True),
    ]
    assert all(t.seed == 3 for t in tasks)


def test_empty_task_list():
    assert run_tasks([], workers=4) == ([], 1)
    sweep = run_sweep([], workers=4)
    assert sweep.results == [] and sweep.run_log == []


def counters(result):
    """The seed-determined part of any result the runner hands back."""
    return (result.committed, result.aborted, result.messages,
            result.events, result.sim_time)


@pytest.mark.parametrize("tasks", [
    six_config_tasks()[1:4],
    chaos_tasks([1, 2], configs=("centralized/normal", "parallel/normal")),
], ids=["sweep", "chaos"])
def test_run_tasks_contract_serial_and_pooled(tasks):
    """Serial = pooled, canonical order, progress once per task — for any
    list of tasks with a ``.run()``."""
    direct = [counters(task.run()) for task in tasks]
    for workers in (1, 2):
        seen = []

        def progress(done, total, task, result):
            seen.append((done, total, task, result))

        results, used = run_tasks(tasks, workers=workers, progress=progress)
        assert used in (1, workers)  # 1: a host that cannot spawn a pool
        # results merge in submission order whichever task finished first
        assert [counters(r) for r in results] == direct
        assert sorted(s[0] for s in seen) == list(range(1, len(tasks) + 1))
        assert all(s[1] == len(tasks) for s in seen)
        # every call carried one task and that task's own result
        assert sorted(tasks.index(s[2]) for s in seen) == list(range(len(tasks)))
        assert all(s[3] is results[tasks.index(s[2])] for s in seen)


def test_sweep_reproduces_committed_baseline_counters():
    """Determinism gate: the simulator is a function of the seed, so one
    sweep pass must give the committed counters exactly.  If a change is
    meant to move them, regenerate ``benchmarks/e2e_baseline.json``."""
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    sweep = run_sweep(sweep_tasks(seed=baseline["seed"]), workers=1)
    measured = [{key: row[key] for key in
                 ("label", "committed", "aborted", "messages")}
                for row in sweep.run_log]
    assert measured == baseline["configs"]


def test_run_log_carries_resource_accounting():
    sweep = run_sweep(six_config_tasks()[:1], workers=1)
    row = sweep.run_log[0]
    assert row["wall_time_s"] > 0
    assert row["events"] > 0
    assert row["events_per_sec"] > 0
    assert row["peak_rss_kb"] is None or row["peak_rss_kb"] > 0
