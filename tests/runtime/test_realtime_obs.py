"""Observability seams of the wall-clock runtime.

The realtime layer cannot import ``obs`` (layering contract), so its
one hook is a duck-typed slot the service injects: the clock's
``event_hook``.  Also covered: the cancel-vs-fire race on
:class:`~repro.runtime.realtime.RealtimeClock` — a handle cancelled by
an earlier callback in the same loop tick must neither fire nor corrupt
the pending-count accounting.
"""

import asyncio

from repro.runtime.realtime import RealtimeClock, RealtimeRuntime


def test_cancel_racing_inflight_fire():
    """Two timers due the same tick; the first cancels the second."""

    async def main():
        clock = RealtimeClock()
        clock.start()
        fired = []
        handle_b = None

        def action_a():
            fired.append("a")
            handle_b.cancel()

        def action_b():  # pragma: no cover - must not run
            fired.append("b")

        clock.schedule(0.0, action_a)
        handle_b = clock.schedule(0.0, action_b)
        assert clock.pending == 2
        assert await clock.join(timeout=2.0)
        assert fired == ["a"]
        assert clock.pending == 0
        assert clock.events_processed == 1

    asyncio.run(main())


def test_cancel_after_fire_is_a_noop():
    async def main():
        clock = RealtimeClock()
        clock.start()
        fired = []
        handle = clock.schedule(0.0, fired.append, "x")
        assert await clock.join(timeout=2.0)
        assert fired == ["x"] and clock.pending == 0
        handle.cancel()  # late cancel must not decrement pending again
        handle.cancel()  # and must stay idempotent
        assert clock.pending == 0
        # the idle event must still be set (join returns immediately)
        assert await clock.join(timeout=0.1)

    asyncio.run(main())


def test_event_hook_sees_every_fire():
    async def main():
        clock = RealtimeClock()
        clock.start()
        hooked = []
        clock.event_hook = lambda now, pending: hooked.append(pending)

        def tick():
            pass

        clock.schedule(0.0, tick)
        clock.schedule(0.001, tick)
        assert await clock.join(timeout=2.0)
        assert len(hooked) == 2
        assert clock.events_processed == 2

    asyncio.run(main())


def test_a_raising_action_leaves_the_clock_serving():
    async def main():
        clock = RealtimeClock()
        clock.start()
        fired = []

        def boom():
            raise RuntimeError("step failed")

        clock.schedule(0.0, boom)
        clock.schedule(0.0, fired.append, "after")
        # the exception propagates to the loop's exception handler, not us
        await asyncio.sleep(0.05)
        assert fired == ["after"]
        assert clock.pending == 0

    asyncio.run(main())


def test_hooks_default_off_and_cost_nothing():
    async def main():
        runtime = RealtimeRuntime()
        runtime.start()
        assert runtime.clock.event_hook is None
        done = []
        runtime.executor.submit(0.0, done.append, 1)
        assert await runtime.join(timeout=2.0)
        assert done == [1]

    asyncio.run(main())
