"""The realtime turn: what has no delay runs in the loop turn that caused it.

Counts, no clocks.  ``RealtimeClock`` is the simulator's event queue
with one loop callback armed for its head; the callback fires what is
due — including what the callbacks themselves schedule with no delay, up
to ``TURN_LIMIT`` per turn.  ``TaskExecutor`` runs a step as clock
entries: the service time, then a backoff per failed attempt.  Loop
turns are counted with a self-rescheduling ``call_soon`` ticker: asyncio
runs a callback scheduled during a turn in the next one.
"""

import asyncio
import contextvars

from repro.runtime import realtime
from repro.runtime.realtime import RealtimeClock, RealtimeRuntime
from repro.runtime.retry import RetryPolicy


class Turns:
    """Counts loop turns while armed."""

    def __init__(self, loop):
        self.loop = loop
        self.count = 0
        self.running = True
        loop.call_soon(self._tick)

    def _tick(self):
        self.count += 1
        if self.running:
            self.loop.call_soon(self._tick)


def test_zero_delay_chain_fires_fifo_inside_one_turn():
    async def main():
        loop = asyncio.get_running_loop()
        clock = RealtimeClock()
        clock.start()
        fired = []
        pending_seen = []

        def link(k):
            fired.append((k, turns.count))
            pending_seen.append(clock.pending)
            if k < 40:
                clock.schedule(0, link, k + 2)

        # Two interleaved chains (even and odd links): FIFO across both.
        clock.schedule(0, link, 0)
        clock.schedule(0, link, 1)
        assert clock.pending == 2
        turns = Turns(loop)
        assert await clock.join(timeout=2.0)
        turns.running = False
        assert [k for k, __ in fired] == list(range(42))
        assert len({turn for __, turn in fired}) == 1, "the chain took more than one turn"
        # each link fires with its sibling still queued, except the last
        assert pending_seen == [1] * 41 + [0]
        assert clock.pending == 0 and clock.events_processed == 42

    asyncio.run(main())


def test_zero_delay_costs_no_timer_and_one_call_soon_per_turn():
    class CountingLoop(asyncio.SelectorEventLoop):
        later = soon = 0

        def call_at(self, when, callback, *args, context=None):
            self.later += 1
            return super().call_at(when, callback, *args, context=context)

        def call_soon(self, callback, *args, context=None):
            if getattr(callback, "__self__", None) is clock:
                self.soon += 1
            return super().call_soon(callback, *args, context=context)

    clock = RealtimeClock()

    async def main():
        clock.start()
        fired = []

        def parent(k):
            fired.append(k)
            clock.schedule(0, fired.append, -k)

        for k in range(1, 11):
            clock.schedule(0, parent, k)
        assert await clock.join()
        assert fired == list(range(1, 11)) + [-k for k in range(1, 11)]

    loop = CountingLoop()
    try:
        loop.run_until_complete(main())
    finally:
        loop.close()
    assert loop.later == 0
    assert loop.soon == 1


def test_cancelled_queued_entry_never_fires_and_pending_stays_exact():
    async def main():
        clock = RealtimeClock()
        clock.start()
        fired = []
        first = clock.schedule(0, fired.append, "first")
        doomed = clock.schedule(0, fired.append, "doomed")
        assert clock.pending == 2
        doomed.cancel()
        doomed.cancel()
        assert clock.pending == 1

        def cancel_its_successor():
            fired.append("canceller")
            successor.cancel()
            assert clock.pending == 1  # only "last" is left

        clock.schedule(0, cancel_its_successor)
        successor = clock.schedule(0, fired.append, "successor")
        clock.schedule(0, fired.append, "last")
        assert await clock.join(timeout=2.0)
        assert fired == ["first", "canceller", "last"]
        assert clock.pending == 0 and clock.events_processed == 3
        first.cancel()  # after the fire: a no-op
        assert clock.pending == 0

        # Cancelling all that is queued leaves the clock idle at once.
        lone = clock.schedule(0, fired.append, "never")
        lone.cancel()
        assert clock.pending == 0 and await clock.join(timeout=0.1)
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        assert "never" not in fired

    asyncio.run(main())


def test_a_cascade_longer_than_the_bound_yields_the_loop_and_keeps_order(monkeypatch):
    monkeypatch.setattr(realtime, "TURN_LIMIT", 8)

    async def main():
        loop = asyncio.get_running_loop()
        clock = RealtimeClock()
        clock.start()
        fired = []

        def link(k):
            fired.append((k, turns.count))
            if k < 19:
                clock.schedule(0, link, k + 1)

        clock.schedule(0, link, 0)
        turns = Turns(loop)
        assert await clock.join(timeout=2.0)
        turns.running = False
        assert [k for k, __ in fired] == list(range(20))
        per_turn = {}
        for __, turn in fired:
            per_turn[turn] = per_turn.get(turn, 0) + 1
        assert list(per_turn.values()) == [8, 8, 4]
        assert sorted(per_turn) == list(per_turn), "a later link ran in an earlier turn"

    asyncio.run(main())


def test_a_raising_callback_does_not_strand_the_rest_of_the_queue():
    async def main():
        loop = asyncio.get_running_loop()
        reported = []
        loop.set_exception_handler(lambda loop, context: reported.append(context))
        clock = RealtimeClock()
        clock.start()
        fired = []

        def boom():
            raise RuntimeError("step failed")

        clock.schedule(0, fired.append, "before")
        clock.schedule(0, boom)
        clock.schedule(0, fired.append, "after")
        assert await clock.join(timeout=2.0)
        assert fired == ["before", "after"]
        assert clock.pending == 0 and clock.events_processed == 3
        assert [type(c["exception"]) for c in reported] == [RuntimeError]
        # and the queue is armed again for what comes later
        clock.schedule(0, fired.append, "later")
        assert await clock.join(timeout=2.0)
        assert fired[-1] == "later"

    asyncio.run(main())


def test_zero_delay_runs_before_a_timer_and_timers_keep_their_order():
    async def main():
        clock = RealtimeClock()
        clock.start()
        fired = []
        clock.schedule(0.002, fired.append, "timer-2ms")
        clock.schedule(0.001, fired.append, "timer-1ms")
        clock.schedule(0, fired.append, "now")
        assert clock.pending == 3
        assert await clock.join(timeout=2.0)
        assert fired == ["now", "timer-1ms", "timer-2ms"]

    asyncio.run(main())


def test_a_queued_callback_runs_in_the_context_of_its_scheduler():
    """What ``call_later`` guarantees for a timer holds for the turn queue."""
    who = contextvars.ContextVar("who", default="nobody")

    async def main():
        clock = RealtimeClock()
        clock.start()
        seen = []

        def child():
            seen.append(("child", who.get()))

        def parent():
            seen.append(("parent", who.get()))
            who.set("parent's own")
            clock.schedule(0, child)

        who.set("first")
        clock.schedule(0, parent)
        who.set("second")
        clock.schedule(0, lambda: seen.append(("sibling", who.get())))
        assert await clock.join(timeout=2.0)
        assert seen == [("parent", "first"), ("sibling", "second"),
                        ("child", "parent's own")]

    asyncio.run(main())


# -- executor ---------------------------------------------------------------


def test_first_attempt_exception_arms_the_backoff_timer_and_numbering_continues():
    async def main():
        runtime = RealtimeRuntime(
            retry=RetryPolicy(budget=3, base_delay=0.001, factor=1.0,
                              max_delay=0.001, jitter=0.0))
        runtime.start()
        executor = runtime.executor
        attempts, retried = [], []
        executor.on_retry = (
            lambda fn, name, exc, attempt, backoff: retried.append((attempt, backoff)))

        def flaky():
            attempts.append(executor.inflight)
            if len(attempts) < 3:
                raise ValueError("transient")

        handle = executor.submit(0.0, flaky)
        assert executor.inflight == 1 and runtime.clock.pending == 1
        while not attempts:
            await asyncio.sleep(0)
        # Attempt 1 raised in its clock entry: the backoff queues the same
        # handle again and the submission still counts as in flight.
        assert retried == [(1, 0.001)]
        assert executor.inflight == 1 and runtime.clock.pending == 1
        assert not handle.cancelled
        assert not await executor.join(timeout=0)
        assert await runtime.join(timeout=5.0)
        assert retried == [(1, 0.001), (2, 0.001)]
        assert attempts == [1, 1, 1]  # in flight during every attempt
        assert executor.retries == 2 and executor.failures == []
        assert executor.inflight == 0 and runtime.clock.pending == 0

    asyncio.run(main())


def test_runtime_join_waits_for_an_armed_step_timer():
    """A step's service time is a pending clock entry: it keeps
    ``RealtimeRuntime.join`` waiting, and the clock work the step then
    schedules too."""

    async def main():
        runtime = RealtimeRuntime()
        runtime.start()
        done = []

        def step():
            runtime.clock.schedule(0.01, done.append, "follow-up")

        handle = runtime.executor.submit(0.02, step)
        assert runtime.clock.pending == 1 and runtime.executor.inflight == 1
        [(__, __, entry)] = runtime.clock._queue
        assert entry is handle
        assert not await runtime.join(timeout=0.001)
        assert await runtime.join(timeout=5.0)
        assert done == ["follow-up"]

    asyncio.run(main())


def test_cancel_disarms_whichever_timer_is_armed():
    async def main():
        runtime = RealtimeRuntime(
            retry=RetryPolicy(budget=5, base_delay=0.05, factor=1.0,
                              max_delay=0.05, jitter=0.0))
        runtime.start()
        executor = runtime.executor
        ran = []
        waiting = executor.submit(0.05, ran.append, "service time")
        waiting.cancel()
        waiting.cancel()
        assert executor.inflight == 0

        def always_fails():
            ran.append("attempt")
            raise ValueError("transient")

        backing_off = executor.submit(0.0, always_fails)
        while not ran:
            await asyncio.sleep(0)
        assert executor.inflight == 1
        backing_off.cancel()  # the armed timer is now the backoff
        assert executor.inflight == 0
        assert await runtime.join(timeout=0.5)
        await asyncio.sleep(0.12)
        assert ran == ["attempt"]
        assert executor.retries == 1 and executor.failures == []

    asyncio.run(main())


def test_a_raising_hook_is_swallowed_on_both_timer_paths():
    async def main():
        runtime = RealtimeRuntime(
            retry=RetryPolicy(budget=1, base_delay=0.001, max_delay=0.002))
        runtime.start()
        executor = runtime.executor

        def bad_hook(*args):
            raise RuntimeError("observer crashed")

        executor.on_retry = executor.on_give_up = bad_hook

        def always_fails():
            raise ValueError("transient")

        executor.submit(0.0, always_fails)
        assert await runtime.join(timeout=5.0)
        assert executor.retries == 1 and len(executor.failures) == 1
        assert executor.inflight == 0

    asyncio.run(main())
