"""How the wall clock waits: one timerfd deadline, not a loop timer.

``RealtimeClock`` arms a later head as the absolute deadline of its one
Linux ``timerfd``, which the loop watches with ``add_reader``.  A loop
timer (``call_at``) would fire it late by the selector's round-up to a
whole millisecond: 0.6–0.8 ms at the median on an idle loop, paid once
per link of a chain of steps.  Off Linux the clock arms ``call_at``;
the turn and conformance cases run on that fallback here too, by
monkeypatching the libc binding away.  The fd is released at
``WorkflowService.close()`` or when the clock is collected, reader first.
"""

import asyncio
import ctypes
import gc
import inspect
import math
import os
import statistics
import time

import pytest

from repro.runtime import realtime
from repro.runtime.realtime import RealtimeClock, RealtimeRuntime
from repro.service import WorkflowService
from tests.runtime import test_conformance, test_realtime_turn

needs_timerfd = pytest.mark.skipif(realtime._timerfd_create is None,
                                   reason="libc has no timerfd_create")

#: Median lateness an entry may fire with on an idle loop.  The selector
#: rounds a ``call_at`` wait up to a whole millisecond, so a loop timer
#: for an entry 0.3 ms (1.5 ms) out fires at least 0.7 ms (0.5 ms) late.
LATE_BOUND = 0.00035
#: Entries fired per delay.
FIRES = 40


def armed_deadline_ns(fd):
    """The timerfd's armed deadline on ``CLOCK_MONOTONIC``, in ns, and
    the uncertainty of reading it (``timerfd_gettime`` answers the time
    left)."""
    left = realtime._ITimerSpec()
    gettime = realtime._libc.timerfd_gettime
    gettime.argtypes = [ctypes.c_int, ctypes.POINTER(realtime._ITimerSpec)]
    gettime.restype = ctypes.c_int
    before = time.monotonic_ns()
    assert gettime(fd, left) == 0
    after = time.monotonic_ns()
    remaining = left.value_sec * 1_000_000_000 + left.value_nsec
    assert remaining > 0, "the timerfd is not armed"
    return before + remaining, after - before


def clock_timers(loop, clock):
    """The loop timers armed for the clock's turn."""
    return [timer for timer in loop._scheduled
            if not timer.cancelled() and getattr(timer._callback, "__self__", None) is clock]


@needs_timerfd
def test_a_later_head_is_the_timerfd_deadline_and_no_loop_timer():
    async def main():
        loop = asyncio.get_running_loop()
        clock = RealtimeClock()
        clock.start()
        cancelled = loop._timer_cancelled_count
        for delay in (0.5, 0.2, 0.35):
            clock.schedule(delay, lambda: None)
            head = clock._queue[0][0]
            assert clock_timers(loop, clock) == []
            deadline, slack = armed_deadline_ns(clock._timerfd)
            assert abs(deadline - (clock._epoch + head) * 1e9) <= slack + 2_000
        # re-arming for an earlier head cancelled no handle
        assert loop._timer_cancelled_count == cancelled
        assert await clock.join(timeout=2.0)

    asyncio.run(main())


@needs_timerfd
def test_an_expiry_that_finds_nothing_due_is_a_turn_that_fires_nothing():
    async def main():
        clock = RealtimeClock()
        clock.start()
        fired = []
        clock.schedule(0.002, fired.append, "cancelled").cancel()
        clock.schedule(0.2, fired.append, "kept")
        await asyncio.sleep(0.02)  # the first deadline has expired by now
        assert fired == [] and clock.pending == 1
        assert await clock.join(timeout=2.0)
        assert fired == ["kept"] and clock.events_processed == 1

    asyncio.run(main())


@needs_timerfd
def test_entries_fire_within_a_fraction_of_a_millisecond_on_an_idle_loop():
    async def main():
        loop = asyncio.get_running_loop()
        clock = RealtimeClock()
        clock.start()
        late = {}
        for delay in (0.0003, 0.0015):
            late[delay] = []
            for __ in range(FIRES):
                fired = loop.create_future()
                due = clock.now + delay
                clock.schedule(delay, lambda due=due, fired=fired:
                               fired.set_result(clock.now - due))
                late[delay].append(await fired)
        return {delay: statistics.median(lates) for delay, lates in late.items()}

    medians = asyncio.run(main())
    for delay, median in medians.items():
        assert 0 <= median < LATE_BOUND, f"{delay * 1e3} ms out fires {median * 1e3:.3f} ms late"


# -- the call_at fallback ------------------------------------------------------


def cases(module):
    return [pytest.param(module, name, id=f"{module.__name__.rsplit('.', 1)[1]}::{name}")
            for name, fn in vars(module).items()
            if name.startswith("test_") and inspect.isfunction(fn)]


@pytest.mark.parametrize(("module", "name"),
                         cases(test_realtime_turn) + cases(test_conformance))
def test_the_wall_clock_cases_hold_on_the_call_at_fallback(module, name, monkeypatch):
    monkeypatch.setattr(realtime, "_timerfd_create", None)
    arguments = {"monkeypatch": monkeypatch, "runtime": RealtimeRuntime(), "name": "asyncio"}
    fn = getattr(module, name)
    fn(*[arguments[parameter] for parameter in inspect.signature(fn).parameters])


def test_the_fallback_arms_a_loop_timer_and_no_timerfd(monkeypatch):
    monkeypatch.setattr(realtime, "_timerfd_create", None)

    async def main():
        loop = asyncio.get_running_loop()
        clock = RealtimeClock()
        clock.start()
        assert clock._timerfd is None
        clock.schedule(0.05, lambda: None)
        [timer] = clock_timers(loop, clock)
        assert timer.when() == pytest.approx(clock._epoch + clock._queue[0][0])
        assert await clock.join(timeout=2.0)

    asyncio.run(main())


# -- no fd leak ----------------------------------------------------------------


def open_fds():
    return len(os.listdir("/proc/self/fd"))


@needs_timerfd
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_closed_services_and_dropped_clocks_leave_no_fd_and_no_reader():
    async def main():
        loop = asyncio.get_running_loop()
        registered = len(loop._selector.get_map())
        gc.collect()
        fds = open_fds()
        for __ in range(100):
            service = WorkflowService(observability=False)
            service.start()
            fd = service.runtime.clock._timerfd
            assert fd is not None and fd in loop._selector.get_map()
            await service.close()
            assert fd not in loop._selector.get_map()
        assert open_fds() == fds
        # a closed clock keeps firing what is queued, by loop timer
        fired = []
        service.runtime.clock.schedule(0.001, fired.append, "after close")
        assert await service.runtime.clock.join(timeout=2.0)
        assert fired == ["after close"]

        for __ in range(100):
            clock = RealtimeClock()
            clock.start()
            clock.schedule(60.0, lambda: None)
            assert clock._timerfd in loop._selector.get_map()
            del clock
            gc.collect()
        assert open_fds() == fds
        assert len(loop._selector.get_map()) == registered

    asyncio.run(main())


@needs_timerfd
def test_close_is_idempotent_and_hands_a_pending_head_to_a_loop_timer():
    async def main():
        loop = asyncio.get_running_loop()
        clock = RealtimeClock()
        clock.start()
        fired = []
        clock.schedule(0.01, fired.append, "pending")
        assert clock_timers(loop, clock) == []
        clock.close()
        clock.close()
        [timer] = clock_timers(loop, clock)
        assert math.isclose(timer.when(), clock._epoch + clock._queue[0][0])
        assert await clock.join(timeout=2.0)
        assert fired == ["pending"]

    asyncio.run(main())
