"""Runtime conformance: both clocks honour the same contract.

Every test here runs twice — once against the deterministic simulated
runtime (``SimRuntime``) and once against the wall-clock asyncio runtime
(``RealtimeRuntime``) — driving the *same* assertions through the
runtime's clock, transport and executor.  Both are one
:class:`~repro.runtime.executor.ClockRuntime` over their clock: the
engines cannot tell them apart, so neither should these tests.

The asyncio variants run real (tiny) wall-clock delays under
``asyncio.run``; tolerances are deliberately loose — ordering and
counting are asserted exactly, elapsed time only directionally.
"""

import asyncio

import pytest

from repro.errors import SimulationError, WorkloadError
from repro.runtime.faults import FaultPlan
from repro.runtime.metrics import Mechanism
from repro.runtime.node import Node
from repro.runtime.realtime import RealtimeRuntime
from repro.runtime.retry import RetryPolicy
from repro.runtime.rng import SimRandom
from repro.sim.kernel import SimRuntime

RUNTIMES = {"sim": SimRuntime, "asyncio": RealtimeRuntime}

#: Wall-clock scale for the asyncio variants: long enough to order
#: events reliably, short enough to keep the suite fast.
TICK = {"sim": 1.0, "asyncio": 0.01}


def drive(runtime, body, settle=None):
    """Run ``body(runtime)`` and then the runtime to quiescence.

    ``body`` does all the scheduling; under simulation the clock then
    runs synchronously, under asyncio we await the runtime's join.
    Returns whatever ``body`` returned.
    """
    if runtime.name == "sim":
        result = body(runtime)
        runtime.clock.run()
        return result

    async def main():
        runtime.clock.start()
        result = body(runtime)
        assert await runtime.join(timeout=5.0), "asyncio runtime failed to settle"
        if settle is not None:
            await asyncio.sleep(settle)
        return result

    return asyncio.run(main())


class Recorder(Node):
    def __init__(self, name, sim, net):
        super().__init__(name, sim, net)
        self.received = []

    def handle_message(self, message):
        self.received.append((message.interface, dict(message.payload)))


@pytest.fixture(params=sorted(RUNTIMES))
def runtime(request):
    return RUNTIMES[request.param]()


def test_clock_runs_callbacks_in_delay_order(runtime):
    tick = TICK[runtime.name]
    fired = []

    def body(rt):
        rt.clock.schedule(3 * tick, fired.append, "late")
        rt.clock.schedule(1 * tick, fired.append, "early")
        rt.clock.schedule(2 * tick, fired.append, "middle")

    drive(runtime, body)
    assert fired == ["early", "middle", "late"]
    assert runtime.clock.events_processed == 3
    assert runtime.clock.pending == 0


def test_clock_schedule_at_absolute_time(runtime):
    tick = TICK[runtime.name]
    fired = []

    def body(rt):
        rt.clock.schedule_at(2 * tick, lambda: fired.append(("at", rt.clock.now)))

    drive(runtime, body)
    assert len(fired) == 1
    assert fired[0][1] >= 2 * tick - 1e-9


def test_clock_cancel_prevents_firing(runtime):
    tick = TICK[runtime.name]
    fired = []

    def body(rt):
        handle = rt.clock.schedule(1 * tick, fired.append, "cancelled")
        rt.clock.schedule(2 * tick, fired.append, "kept")
        handle.cancel()
        assert handle.cancelled
        handle.cancel()  # idempotent

    drive(runtime, body)
    assert fired == ["kept"]
    assert runtime.clock.pending == 0


def test_event_hook_sees_the_pending_count(runtime):
    """The depth the hook sees is ``pending``: cancelled entries still in
    the heap are not queue depth on either clock."""
    tick = TICK[runtime.name]
    seen = []

    def body(rt):
        clock = rt.clock
        clock.event_hook = lambda time, depth: seen.append((depth, clock.pending))
        clock.schedule(1 * tick, lambda: None)
        for n in (2, 3, 4):
            clock.schedule(n * tick, lambda: None).cancel()
        clock.schedule(5 * tick, lambda: None)

    drive(runtime, body)
    assert seen == [(1, 1), (0, 0)]


def test_clock_rejects_negative_delay(runtime):
    def body(rt):
        with pytest.raises(SimulationError):
            rt.clock.schedule(-1.0, lambda: None)
        with pytest.raises(SimulationError):
            rt.clock.schedule_at(-1.0, lambda: None)

    drive(runtime, body)


def test_executor_runs_submitted_work(runtime):
    tick = TICK[runtime.name]
    ran = []

    def body(rt):
        rt.executor.submit(1 * tick, ran.append, "work")
        rt.executor.submit(0.0, ran.append, "now")

    drive(runtime, body)
    assert sorted(ran) == ["now", "work"]


def test_transport_delivers_and_counts(runtime):
    def body(rt):
        a = Recorder("a", rt.clock, rt.transport)
        b = Recorder("b", rt.clock, rt.transport)
        assert rt.transport.node_names() == ["a", "b"]
        assert rt.transport.is_up("a") and rt.transport.is_up("b")
        a.send("b", "wi", {"n": 1}, Mechanism.NORMAL)
        a.send("b", "wi", {"n": 2}, Mechanism.NORMAL)
        return b

    b = drive(runtime, body)
    assert [p["n"] for __, p in b.received] == [1, 2]
    assert runtime.metrics.total_messages(Mechanism.NORMAL) == 2
    assert runtime.transport.delivered == 2


def test_transport_parks_messages_for_down_node(runtime):
    def body(rt):
        a = Recorder("a", rt.clock, rt.transport)
        b = Recorder("b", rt.clock, rt.transport)
        b.is_up = False
        a.send("b", "wi", {"n": 1}, Mechanism.FAILURE)
        return a, b

    __, b = drive(runtime, body)
    assert b.received == []
    assert runtime.transport.parked_count("b") == 1
    b.is_up = True
    assert runtime.transport.flush_parked("b") == 1
    assert [p["n"] for __, p in b.received] == [1]
    assert runtime.transport.parked_count("b") == 0


def test_transport_rejects_self_send_and_unknown_destination(runtime):
    def body(rt):
        Recorder("a", rt.clock, rt.transport)
        with pytest.raises(SimulationError):
            rt.transport.send("a", "a", "wi", {}, Mechanism.NORMAL)
        with pytest.raises(SimulationError):
            rt.transport.send("a", "ghost", "wi", {}, Mechanism.NORMAL)

    drive(runtime, body)


def test_fault_support_is_declared_honestly(runtime):
    """Faults install on either clock, once."""
    injector = runtime.install_faults(FaultPlan(), SimRandom(1), RetryPolicy())
    assert runtime.faults is injector
    assert runtime.executor.faults is injector
    assert runtime.transport.faults is injector
    with pytest.raises(WorkloadError):
        runtime.install_faults(FaultPlan(), SimRandom(2), RetryPolicy())


@pytest.mark.parametrize("name", sorted(RUNTIMES))
def test_a_raising_step_runs_once_on_both_clocks(name):
    """The one executor decides a raising step the same way on either
    clock: it runs once and is not retried.  It escapes neither
    ``Simulator.run`` nor the event loop; it is counted in ``errors``,
    the first traceback is kept, and a simulated ``ControlSystem.run``
    fails on it."""
    runtime = RUNTIMES[name]()
    calls = []

    def broken(tag):
        calls.append(tag)
        raise ValueError(tag)

    def body(rt):
        rt.executor.submit(0.0, broken, "first")
        rt.executor.submit(0.0, broken, "second")
        rt.executor.submit(0.0, calls.append, "healthy")

    drive(runtime, body)
    executor = runtime.executor
    assert calls == ["first", "second", "healthy"]
    assert executor.errors == 2
    fn_name, trace = executor.first_error
    assert fn_name.endswith("broken")
    assert trace.startswith("Traceback") and "ValueError: first" in trace
    assert executor.inflight == 0


@pytest.mark.parametrize("name", sorted(RUNTIMES))
def test_injected_executor_faults_bite_on_both_clocks(name):
    """``execstall=`` reaches the executor of either runtime through the
    same ``install_faults``: the stall lengthens the service time and the
    work still runs, once.  ``execfail=`` is not the executor's: a
    control system draws it per program execution, so a bare submission
    never fails."""
    tick = TICK[name]
    runtime = RUNTIMES[name]()
    injector = runtime.install_faults(
        FaultPlan(exec_fail_p=1.0, exec_stall_p=1.0, exec_stall_s=2 * tick),
        SimRandom(7).spawn("faults"), RetryPolicy(),
    )
    ran = []
    drive(runtime, lambda rt: rt.executor.submit(tick, ran.append, "x"))
    assert ran == ["x"]
    assert injector.stats.exec_stalls == 1
    assert injector.stats.exec_failures == 0
    assert runtime.executor.errors == 0
    assert runtime.clock.now >= 3 * tick - 1e-9  # service time, then the stall
