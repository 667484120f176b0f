"""A graceful drain ends on the last outcome, or at its grace bound.

``WorkflowService.drained`` is what ``repro serve`` awaits after SIGTERM:
the outcome handler wakes it when the last running instance finishes.
A "turn" is one pass of the event loop, counted by a callback that
re-schedules itself with ``call_soon``.
"""

import asyncio

from repro.service import WorkflowService
from tests.service.test_service import MINI_SCHEMA


class TurnCounter:
    """Counts event-loop passes while it runs."""

    def __init__(self):
        self.turns = 0
        self._handle = asyncio.get_running_loop().call_soon(self._tick)

    def _tick(self):
        self.turns += 1
        self._handle = asyncio.get_running_loop().call_soon(self._tick)

    def stop(self):
        self._handle.cancel()


def test_the_wait_ends_within_a_couple_of_turns_of_the_last_outcome():
    async def main():
        service = WorkflowService(work_time_scale=0.001)
        service.start()
        counter = TurnCounter()
        try:
            assert await service.drained(0.0)  # nothing running: no wait
            last_outcome_at = []
            engine_outcome = service.system.on_outcome

            def on_outcome(outcome):
                engine_outcome(outcome)
                if not service.running_count():
                    last_outcome_at.append(counter.turns)

            service.system.on_outcome = on_outcome
            service.submit(schema=MINI_SCHEMA, inputs={"x": 1}, instances=3)
            service.begin_drain()
            assert await service.drained(5.0)
            woke_at = counter.turns
            assert service.running_count() == 0
            [at] = last_outcome_at
            assert woke_at - at <= 3, (at, woke_at)
        finally:
            counter.stop()
            await service.close()

    asyncio.run(main())


def test_the_wait_ends_at_the_grace_bound_when_an_instance_cannot_finish():
    async def main():
        # One step takes 1 000 s of wall clock: the instance outlives the
        # grace.
        service = WorkflowService(work_time_scale=1000.0)
        service.start()
        loop = asyncio.get_running_loop()
        try:
            service.submit(schema=MINI_SCHEMA, inputs={"x": 1})
            service.begin_drain()
            started = loop.time()
            assert not await asyncio.wait_for(service.drained(0.2), 10.0)
            waited = loop.time() - started
            assert 0.2 <= waited < 2.0, waited
            assert service.running_count() == 1
            assert service._idle is None
        finally:
            await service.close()

    asyncio.run(main())
