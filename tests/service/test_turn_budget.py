"""What one instance costs the event loop under ``repro serve``, by counts.

One 32-instance ``Orders`` batch at a time (one ``part``, so ``part_fifo``
chains the batch) through an in-process :class:`WorkflowService` on a loop
whose ``call_later`` and ``create_task`` are counted.  On the no-failure
path nothing spawns a Task, and the clock arms one loop timer for the
head of its queue, not one per entry: the seven to ten zero-latency
messages of an instance and its four step service times are all clock
events, and steps that come due together share a timer.  That
zero-delay work shares a loop turn is ``tests/runtime/test_realtime_turn.py``.

Before the turn queue the same batch took 14.3 timers and 4 tasks per
instance on centralized control; with a loop timer per step service
time, 4.0 to 5.1 timers per instance.
"""

import asyncio

import pytest

from repro.service import WorkflowService
from tests.conftest import ALL_ARCHITECTURES, install_orders

BATCH, BATCHES = 32, 4
#: ``Orders`` with ``qty=1`` runs Check, Reserve, Pack, Ship.
STEPS = 4


class CountingLoop(asyncio.SelectorEventLoop):
    def __init__(self):
        super().__init__()
        self.timers = self.tasks = 0
        self.counting = False

    def call_at(self, when, callback, *args, context=None):  # call_later lands here
        self.timers += self.counting
        return super().call_at(when, callback, *args, context=context)

    def create_task(self, coro, **kwargs):
        self.tasks += self.counting
        return super().create_task(coro, **kwargs)


#: Loop timers per instance the batch may arm, beside per-batch slack.
TIMERS_PER_INSTANCE = 1.25


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_a_batch_costs_its_step_timers_and_no_task(architecture):
    async def run(loop):
        service = WorkflowService(architecture=architecture, work_time_scale=0.001)
        service.start()
        install_orders(service.system)
        publish = service._on_outcome
        finished = 0
        batch_done = None

        def on_outcome(outcome):
            nonlocal finished
            publish(outcome)
            finished += 1
            if finished % BATCH == 0:
                batch_done.set_result(None)

        service.system.on_outcome = on_outcome
        messages = service.system.metrics.total_messages()
        clock_events = service.runtime.clock.events_processed
        try:
            loop.counting = True
            for batch in range(BATCHES):
                batch_done = loop.create_future()
                service.submit(workflow="Orders", instances=BATCH,
                               inputs={"part": f"part-{batch}", "qty": 1})
                await asyncio.wait_for(batch_done, 30.0)
            loop.counting = False
            messages = service.system.metrics.total_messages() - messages
            clock_events = service.runtime.clock.events_processed - clock_events
        finally:
            await service.close()
        assert len(service.system.committed_instances()) == BATCH * BATCHES
        return messages, clock_events

    loop = CountingLoop()
    try:
        messages, clock_events = loop.run_until_complete(run(loop))
    finally:
        loop.close()
    instances = BATCH * BATCHES
    assert loop.tasks == 0
    # `wait_for` arms one timer per batch; the purge flush may arm another.
    assert loop.timers <= TIMERS_PER_INSTANCE * instances + 2 * BATCHES
    # Every message and every step service time is a clock event.
    assert clock_events >= messages + STEPS * instances
    assert messages >= 7 * instances
