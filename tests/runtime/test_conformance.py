"""Runtime conformance: both backends honour the same protocol contract.

Every test here runs twice — once against the deterministic simulated
runtime (``"sim"``) and once against the wall-clock asyncio runtime
(``"asyncio"``) — driving the *same* assertions through
:class:`repro.runtime.protocols.Clock`, ``Transport`` and ``Executor``.
That is the point of the pluggable runtime layer: the engines cannot
tell the substrates apart, so neither should these tests.

The asyncio variants run real (tiny) wall-clock delays under
``asyncio.run``; tolerances are deliberately loose — ordering and
counting are asserted exactly, elapsed time only directionally.
"""

import asyncio

import pytest

from repro.errors import SimulationError, WorkloadError
from repro.runtime import build_runtime
from repro.runtime.metrics import Mechanism
from repro.runtime.node import Node
from repro.runtime.protocols import (
    Clock,
    Executor,
    Runtime,
    Transport,
)

RUNTIMES = ("sim", "asyncio")

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


@pytest.fixture(params=RUNTIMES)
def runtime(request):
    return build_runtime(request.param)


def test_satisfies_runtime_protocols(runtime):
    assert isinstance(runtime, Runtime)
    assert isinstance(runtime.clock, Clock)
    assert isinstance(runtime.transport, Transport)
    assert isinstance(runtime.executor, Executor)


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
    from repro.runtime.faults import FaultPlan

    from repro.runtime.retry import RetryPolicy
    from repro.runtime.rng import SimRandom

    plan = FaultPlan()
    if runtime.supports_faults():
        injector = runtime.install_faults(plan, SimRandom(1), RetryPolicy())
        assert injector is not None
    else:
        with pytest.raises(WorkloadError):
            runtime.install_faults(plan, SimRandom(1), RetryPolicy())
