"""Wall-clock fault injection: the lifted injector on the asyncio runtime.

The fault core lives in :mod:`repro.runtime.faults`, so the same
:class:`FaultPlan` drives both backends, and both run the one step
executor (its fault decisions on the simulator are pinned in
``tests/sim/test_executor.py``).  These tests drive injected step
failures and stalls on real timers, and check what only the wall clock
can: outcome-level replay consistency.
"""

import asyncio

from repro.core.programs import FunctionProgram
from repro.engines import CentralizedControlSystem, SystemConfig
from repro.runtime.faults import FaultInjector, FaultPlan, FaultStats
from repro.runtime.metrics import Mechanism
from repro.runtime.node import Node
from repro.runtime.realtime import RealtimeRuntime, TaskExecutor
from repro.runtime.retry import RetryPolicy
from repro.runtime.rng import SimRandom
from repro.storage.tables import InstanceStatus
from tests.conftest import linear_schema, register_programs

FAST_RETRY = RetryPolicy(base_delay=0.01, factor=1.0, max_delay=0.01,
                         jitter=0.0, budget=2)


def test_exec_fault_fields_roundtrip_through_spec():
    plan = FaultPlan(exec_fail_p=0.25, exec_stall_p=0.1, exec_stall_s=0.75)
    spec = plan.to_spec()
    assert "execfail=0.25" in spec
    assert "execstall=0.1" in spec
    assert "execstallfor=0.75" in spec
    parsed = FaultPlan.parse(spec)
    assert parsed == plan


def test_exec_fault_dimensions_are_minimizable():
    plan = FaultPlan(drop_p=0.1, exec_fail_p=0.5, exec_stall_p=0.5)
    dims = plan.dimensions()
    assert "exec_fail_p" in dims and "exec_stall_p" in dims
    without = plan.without("exec_fail_p")
    assert without.exec_fail_p == 0.0
    assert without.drop_p == 0.1


def test_injected_executor_failures_fail_the_step():
    """On the wall clock too, ``execfail=1`` fails the first program
    execution: the program never runs, the step fails, and with no
    rollback point the instance aborts.  Nothing raises and nothing is
    retried."""

    async def main():
        runtime = RealtimeRuntime()
        runtime.start()
        system = CentralizedControlSystem(
            SystemConfig(seed=7, latency=0.0, work_time_scale=0.001),
            runtime=runtime,
        )
        injector = system.inject_faults(FaultPlan(exec_fail_p=1.0))
        schema = linear_schema()
        system.register_schema(schema)
        ran = []
        register_programs(system, schema, behaviors={"S1": FunctionProgram(
            lambda inputs, ctx: ran.append(inputs) or {"out": 1})})
        finished = asyncio.Event()
        system.on_outcome = lambda outcome: finished.set()
        instance = system.start_workflow("Linear", {"x": 1})
        await asyncio.wait_for(finished.wait(), 5.0)
        assert ran == []
        assert injector.stats.exec_failures == 1
        assert system.outcomes[instance].status is InstanceStatus.ABORTED
        assert runtime.executor.errors == 0

    asyncio.run(main())


def test_injected_executor_stall_delays_but_completes():
    async def main():
        runtime = RealtimeRuntime()
        runtime.start()
        injector = runtime.install_faults(
            FaultPlan(exec_stall_p=1.0, exec_stall_s=0.05),
            SimRandom(7).spawn("faults"), retry=FAST_RETRY,
        )
        loop = asyncio.get_running_loop()
        ran = []
        started = loop.time()
        runtime.executor.submit(0.0, ran.append, "x")
        assert await runtime.join(timeout=5.0)
        assert ran == ["x"]
        assert loop.time() - started >= 0.05
        assert injector.stats.exec_stalls == 1
        assert injector.stats.exec_failures == 0

    asyncio.run(main())


def test_fault_stats_counts_exec_dimensions():
    stats = FaultStats()
    assert stats.as_dict()["exec_failures"] == 0
    assert stats.as_dict()["exec_stalls"] == 0


def test_retry_jitter_is_seeded_and_replayable():
    """On the wall clock, a dropped message's retransmission backoffs come
    from the injector's seeded stream: the same seed draws the same
    jittered delays.  Messages are what is retried, not steps."""

    def backoff_sequence(seed):
        async def main():
            runtime = RealtimeRuntime()
            runtime.start()
            injector = runtime.install_faults(
                FaultPlan(drop_p=1.0, drop_limit=3), SimRandom(seed),
                retry=RetryPolicy(base_delay=0.01, factor=1.0,
                                  max_delay=0.01, jitter=0.5, budget=5),
            )
            backoffs = []
            injector.on_fault = (
                lambda time, kind, **detail:
                kind == "drop" and backoffs.append(detail["backoff"]))
            sender = Node("a", runtime.clock, runtime.transport)
            receiver = Node("b", runtime.clock, runtime.transport)
            got = []
            receiver.handle_message = got.append
            sender.send("b", "wi", {}, Mechanism.NORMAL)
            assert await runtime.join(timeout=5.0)
            assert len(got) == 1
            return backoffs

        return asyncio.run(main())

    first = backoff_sequence(21)
    assert len(first) == 3
    assert first == backoff_sequence(21)
    assert first != backoff_sequence(22)


def test_execfail_draws_are_seeded_and_replayable():
    """Two injectors with the same seed fail the same program executions."""

    def failures(seed):
        injector = FaultInjector(FaultPlan(exec_fail_p=0.5), SimRandom(seed))
        return [injector.executor_should_fail("agent-1", "W-1", f"S{i}")
                for i in range(32)]

    first = failures(21)
    assert any(first) and not all(first)
    assert first == failures(21)
    assert first != failures(22)


def test_executor_without_injector_never_consults_faults():
    async def main():
        runtime = RealtimeRuntime()
        runtime.start()
        assert isinstance(runtime.executor, TaskExecutor)
        assert runtime.executor.faults is None
        ran = []
        runtime.executor.submit(0.0, ran.append, 1)
        assert await runtime.join(timeout=5.0)
        assert ran == [1]

    asyncio.run(main())


def test_realtime_replays_are_outcome_consistent():
    """`repro chaos --runtime asyncio`: same (config, seed, plan) twice
    ends with identical per-instance outcome digests."""
    from repro.analysis.chaos import run_realtime_chaos

    report = run_realtime_chaos(
        "centralized/normal", seed=3,
        plan_spec="drop=0.1,dup=0.1,delay=0.1",
        instances=4, replays=2, timeout_s=30.0,
    )
    assert report.consistent, report.as_dict()
    assert len(report.digests) == 2
    assert report.digests[0] == report.digests[1]
    assert not report.unfinished


def test_realtime_replay_reports_what_missed_the_timeout():
    """The wait for the last outcome is bounded by ``timeout_s``; whatever
    has not landed by then is a liveness finding, not a hang.  The engine
    is cut off from every other node for an hour from the start, so no
    instance can land, however fast or slow the box runs."""
    from repro.analysis.chaos import run_realtime_chaos

    report = run_realtime_chaos(
        "centralized/normal", seed=3, plan_spec="outage=engine~*@0+3600",
        instances=3, replays=1, timeout_s=0.001,
    )
    assert len(report.unfinished) == 3
    assert report.digests == [{}]
    assert not report.consistent
