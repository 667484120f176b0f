"""Wall-clock fault injection: the lifted injector on the asyncio runtime.

The fault core lives in :mod:`repro.runtime.faults`, so the same
:class:`FaultPlan` drives both backends, and both run the one step
executor (its fault decisions on the simulator are pinned in
``tests/sim/test_executor.py``).  These tests drive the executor faults
and the seeded retry jitter on real timers, and check what only the wall
clock can: outcome-level replay consistency.
"""

import asyncio

from repro.errors import InjectedFault
from repro.runtime.faults import FaultPlan, FaultStats
from repro.runtime.realtime import RealtimeRuntime, TaskExecutor
from repro.runtime.retry import RetryPolicy
from repro.runtime.rng import SimRandom

FAST_RETRY = RetryPolicy(base_delay=0.01, factor=1.0, max_delay=0.01,
                         jitter=0.0, budget=2)


def test_exec_fault_fields_roundtrip_through_spec():
    plan = FaultPlan(exec_fail_p=0.25, exec_stall_p=0.1, exec_stall_s=0.75)
    spec = plan.to_spec()
    assert "execfail=0.25" in spec
    assert "execstall=0.1" in spec
    assert "execstallfor=0.75" in spec
    parsed = FaultPlan.parse(spec)
    assert parsed.to_dict() == plan.to_dict()


def test_exec_fault_dimensions_are_minimizable():
    plan = FaultPlan(drop_p=0.1, exec_fail_p=0.5, exec_stall_p=0.5)
    dims = plan.dimensions()
    assert "exec_fail_p" in dims and "exec_stall_p" in dims
    without = plan.without("exec_fail_p")
    assert without.exec_fail_p == 0.0
    assert without.drop_p == 0.1


def test_injected_executor_failures_exhaust_retry_budget():
    async def main():
        runtime = RealtimeRuntime(retry=FAST_RETRY, rng=SimRandom(7))
        runtime.start()
        injector = runtime.install_faults(
            FaultPlan(exec_fail_p=1.0), SimRandom(7).spawn("faults"),
            retry=FAST_RETRY,
        )
        ran = []
        runtime.executor.submit(0.0, ran.append, "x")
        assert await runtime.join(timeout=5.0)
        # Every attempt (initial + 2 retries) drew an injected failure;
        # the work never ran and the give-up is recorded, not raised.
        assert ran == []
        assert injector.stats.exec_failures == 3
        [(name, err)] = runtime.executor.failures
        assert "InjectedFault" in err

    asyncio.run(main())


def test_injected_executor_stall_delays_but_completes():
    async def main():
        runtime = RealtimeRuntime(retry=FAST_RETRY, rng=SimRandom(7))
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
    """Two executors with the same rng seed draw identical backoffs."""

    def backoff_sequence(seed):
        async def main():
            runtime = RealtimeRuntime(
                retry=RetryPolicy(base_delay=0.01, factor=1.0,
                                  max_delay=0.01, jitter=0.5, budget=3),
                rng=SimRandom(seed),
            )
            runtime.start()
            backoffs = []
            runtime.executor.on_retry = (
                lambda fn, name, exc, attempt, backoff:
                backoffs.append(backoff)
            )

            def flaky():
                raise ValueError("transient")

            runtime.executor.submit(0.0, flaky)
            assert await runtime.join(timeout=5.0)
            return backoffs

        return asyncio.run(main())

    first = backoff_sequence(21)
    second = backoff_sequence(21)
    different = backoff_sequence(22)
    assert len(first) == 3
    assert first == second
    assert first != different


def test_executor_without_injector_never_consults_faults():
    async def main():
        runtime = RealtimeRuntime(retry=FAST_RETRY, rng=SimRandom(0))
        runtime.start()
        assert isinstance(runtime.executor, TaskExecutor)
        assert runtime.executor.faults is None
        ran = []
        runtime.executor.submit(0.0, ran.append, 1)
        assert await runtime.join(timeout=5.0)
        assert ran == [1]

    asyncio.run(main())


def test_injected_fault_is_transient():
    assert issubclass(InjectedFault, Exception)
    # The retry loop treats any non-cancellation exception as transient;
    # InjectedFault must not be a special-cased terminal error.
    from repro.errors import SimulationError

    assert issubclass(InjectedFault, SimulationError)


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
    has not landed by then is a liveness finding, not a hang.  Every step
    attempt fails (``execfail=1``), so no instance can land, however fast
    or slow the box runs."""
    from repro.analysis.chaos import run_realtime_chaos

    report = run_realtime_chaos(
        "centralized/normal", seed=3, plan_spec="execfail=1",
        instances=3, replays=1, timeout_s=0.001,
    )
    assert len(report.unfinished) == 3
    assert report.digests == [{}]
    assert not report.consistent
