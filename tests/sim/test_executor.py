"""The step executor on the simulated clock, and injected step failures.

Both runtimes run the one :class:`repro.runtime.executor.TaskExecutor`.
On the simulator it must cost a fixed-seed schedule nothing: with no plan
installed, a submission is one queue push and no draw.  It retries
nothing.  An injected ``execfail`` is a failed step that the engine's
recovery handles, and it replays bit for bit from the seed.  A step
callback that raises on its own is an engine defect: it runs once, and
the simulated run fails on it.
"""

from dataclasses import replace

import pytest

from repro.analysis.chaos import CHAOS_CONFIGS, CHAOS_MODES, ChaosTask
from repro.analysis.experiment import PreparedRun, parse_config
from repro.core.programs import NoopProgram
from repro.engines.centralized.agents import ApplicationAgentNode
from repro.errors import SimulationError
from repro.runtime.faults import FaultPlan
from repro.runtime.metrics import Mechanism
from repro.runtime.rng import SimRandom
from repro.sim.kernel import SimRuntime
from tests.conftest import ALL_ARCHITECTURES, linear_schema, make_system, register_programs


def test_a_submission_without_plan_is_one_push_and_no_draw():
    runtime = SimRuntime()
    fired = []
    runtime.clock.schedule(1.0, fired.append, "scheduled")
    runtime.executor.submit(1.0, fired.append, "submitted")
    runtime.clock.schedule(1.0, fired.append, "after")
    assert runtime.clock.pending == 3
    runtime.clock.run()
    # FIFO at one instant, exactly as three plain ``schedule`` calls.
    assert fired == ["scheduled", "submitted", "after"]
    assert runtime.clock.events_processed == 3


def test_a_raise_runs_once_at_its_service_time():
    """No backoff, no second attempt: a raising callback is settled by
    the one clock entry of its service time."""
    runtime = SimRuntime()
    times = []

    def broken():
        times.append(runtime.clock.now)
        raise ValueError("defect")

    runtime.executor.submit(2.0, broken)
    assert runtime.clock.run() == 1
    assert times == [2.0]
    assert runtime.executor.errors == 1
    assert runtime.executor.inflight == 0
    assert runtime.clock.pending == 0


def test_cancel_withdraws_a_submission_waiting_out_its_stall():
    runtime = SimRuntime()
    runtime.install_faults(FaultPlan(exec_stall_p=1.0, exec_stall_s=5.0),
                           SimRandom(3).spawn("faults"), retry=None)
    calls = []
    handle = runtime.executor.submit(1.0, calls.append, "x")
    assert handle.time == 6.0  # the stall is service time: one entry
    runtime.clock.schedule(3.0, handle.cancel)
    runtime.clock.run()
    assert calls == []
    assert runtime.executor.inflight == 0
    assert runtime.clock.pending == 0


def _without_host_accounting(outcome):
    report = outcome.as_dict()
    for key in ("wall_time_s", "events_per_sec", "peak_rss_kb"):
        report.pop(key)
    return report


def _failure_messages(task):
    """Failure-handling messages of one run of ``task``: the paper's
    rollback, halt and compensation traffic."""
    architecture, mode = parse_config(task.config, CHAOS_MODES)
    prepared = PreparedRun(architecture, task.resolved_params(),
                           coordination=(mode == "coordinated"),
                           seed=task.seed, trace=True)
    prepared.system.inject_faults(task.plan())
    prepared.execute(task.instances_per_schema)
    return prepared.system.metrics.total_messages(Mechanism.FAILURE)


@pytest.mark.parametrize("config", CHAOS_CONFIGS)
def test_strict_chaos_replays_executor_faults(config):
    """The seed's random schedule plus step failures and stalls holds every
    invariant under ``--strict``, and replays bit for bit.  An injected
    ``execfail`` is a failed step, so the run carries failure-handling
    traffic and every instance still ends committed or aborted."""
    plan = replace(ChaosTask(config, seed=6).plan(), exec_fail_p=0.1,
                   exec_stall_p=0.1, exec_stall_s=2.0)
    task = ChaosTask(config, seed=6, plan_spec=plan.to_spec(), strict=True)
    first = task.run()
    assert first.ok, first.violations
    assert first.started == first.committed + first.aborted
    assert first.fault_stats["exec_failures"] > 0
    assert first.fault_stats["exec_stalls"] > 0
    assert _failure_messages(task) > 0
    assert _without_host_accounting(first) == _without_host_accounting(task.run())


class RaisesOnce(NoopProgram):
    """A defective program: it raises instead of failing its step, once."""

    def __init__(self, outputs):
        super().__init__(outputs)
        self.raised = False

    def execute(self, inputs, ctx):
        if not self.raised:
            self.raised = True
            raise RuntimeError("defect in the program")
        return super().execute(inputs, ctx)


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_a_step_callback_that_raises_fails_the_simulated_run(architecture):
    """A program fails its step instead of raising, so a raise is a
    defect: it is not retried, and ``ControlSystem.run`` reports it with
    its traceback."""
    system = make_system(architecture)
    schema = linear_schema()
    system.register_schema(schema)
    register_programs(system, schema, behaviors={"S2": RaisesOnce(("out",))})
    system.start_workflow("Linear", {"x": 1})
    with pytest.raises(SimulationError) as raised:
        system.run()
    message = str(raised.value)
    assert message.startswith("1 step-executor callback(s) raised")
    assert "RuntimeError: defect in the program" in message
    assert system.runtime.executor.errors == 1
    __, trace = system.runtime.executor.first_error
    assert 'raise RuntimeError("defect in the program")' in trace


def test_a_chaos_run_fails_on_a_raising_step_callback(monkeypatch):
    """Chaos runs drive the same ``ControlSystem.run``: a defect in an
    engine callback fails them instead of passing as a retried step."""
    complete_step = ApplicationAgentNode._complete_step
    calls = []

    def defective(self, message):
        calls.append(message)
        if len(calls) == 1:
            raise KeyError("defect in the engine")
        complete_step(self, message)

    monkeypatch.setattr(ApplicationAgentNode, "_complete_step", defective)
    config = next(c for c in CHAOS_CONFIGS if c.startswith("centralized"))
    with pytest.raises(SimulationError, match="KeyError: 'defect in the engine'"):
        ChaosTask(config, seed=6, strict=True).run()
