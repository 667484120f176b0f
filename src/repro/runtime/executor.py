"""The one step executor, and the runtime that wires it to a clock.

:class:`TaskExecutor` runs step programs as entries of whichever clock it
is given — the discrete-event :class:`repro.sim.kernel.Simulator` or the
wall-clock :class:`repro.runtime.realtime.RealtimeClock`; both are an
:class:`~repro.runtime.eventqueue.EventQueue`, and all the executor asks
of one is ``enqueue(handle, delay)`` and ``_on_cancel()``.  A submission
is one queue push; with no fault plan installed it draws nothing, so a
simulated schedule is the one a plain ``clock.schedule`` would give.

:class:`ClockRuntime` bundles a clock with the shared
:class:`~repro.runtime.transport.Network` and the executor, and installs
a :class:`~repro.runtime.faults.FaultInjector` under all three.  The two
backends are this class over their clock: ``SimRuntime`` in
:mod:`repro.sim.kernel` and ``RealtimeRuntime`` in
:mod:`repro.runtime.realtime`.
"""

from __future__ import annotations

from traceback import format_exc
from typing import Any, Callable

from repro.errors import SimulationError, WorkloadError
from repro.runtime.eventqueue import EventHandle, EventQueue
from repro.runtime.latency import LatencyModel
from repro.runtime.metrics import MetricsCollector
from repro.runtime.transport import Network

__all__ = ["ClockExecutor", "ClockRuntime", "TaskExecutor"]


def _name(fn: Callable[..., Any]) -> str:
    return getattr(fn, "__qualname__", repr(fn))


class TaskExecutor:
    """Step execution as clock entries.

    ``submit(delay, fn, *args)`` queues one clock entry for the service
    time, an injected ``execstall`` included; when it fires, ``fn`` runs
    once as a plain callback, so what it schedules with no delay runs at
    the same clock instant.  Nothing is retried.  A program turns its own
    exception into a failed step, and so does an injected ``execfail``
    (:meth:`repro.engines.base.ControlSystem.execute_program`), so a
    callback that raises is an engine defect: it is counted in
    :attr:`errors`, the first one's traceback is kept, and it escapes
    neither ``Simulator.run`` nor the event loop.  Cancelling the
    returned handle withdraws the queued entry.
    """

    def __init__(self, clock: EventQueue):
        self.clock = clock
        #: Optional fault injector (see :class:`repro.runtime.faults.
        #: FaultInjector`), set by :meth:`ClockRuntime.install_faults`.
        #: When present, each submission consults it for an injected stall.
        self.faults = None
        self._inflight = 0
        self.submitted = 0
        #: Callbacks that raised.  Each is an engine defect, and
        #: ``ControlSystem.run`` fails a simulated run on one.
        self.errors = 0
        #: ``(callable qualname, formatted traceback)`` of the first.
        self.first_error: tuple[str, str] | None = None

    def submit(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Run ``fn(*args)`` after ``delay`` units of service time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        faults = self.faults
        if faults is not None:
            delay += faults.executor_stall(_name(fn))
        self.submitted += 1
        self._inflight += 1
        handle = EventHandle(0.0, self._run, (fn, args), self)
        self.clock.enqueue(handle, delay)
        return handle

    def _run(self, fn: Callable[..., Any], args: tuple) -> None:
        try:
            fn(*args)
        except Exception:
            self.errors += 1
            if self.first_error is None:
                self.first_error = (_name(fn), format_exc())
        finally:
            self._inflight -= 1

    def _on_cancel(self) -> None:
        """A queued submission was cancelled: settled; the clock accounts it."""
        self._inflight -= 1
        self.clock._on_cancel()

    @property
    def inflight(self) -> int:
        """Submissions whose work has not run or been cancelled."""
        return self._inflight


class ClockExecutor(TaskExecutor):
    """A name only, for the layer probes that patch ``submit`` on it
    beside :class:`TaskExecutor` (``bench/layers.py``).  Nothing builds
    one."""


class ClockRuntime:
    """One execution substrate: a clock, the shared transport and the
    one executor.

    A subclass names the backend and picks the clock:
    :class:`repro.sim.kernel.SimRuntime` or
    :class:`repro.runtime.realtime.RealtimeRuntime`.  Fault injection is
    the same on both clocks: the seeded :class:`~repro.runtime.faults.
    FaultInjector` goes under the transport (message faults), on the
    clock (crashes) and into the executor (``execstall``).
    """

    name: str

    def __init__(
        self,
        clock: EventQueue,
        metrics: MetricsCollector | None = None,
        latency: LatencyModel | None = None,
    ):
        self.clock = clock
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.transport = Network(clock, self.metrics, latency)
        self.executor = TaskExecutor(clock)
        self.transport.executor = self.executor
        #: The installed fault injector, if any.
        self.faults = None

    def install_faults(self, plan: Any, rng: Any, retry: Any) -> Any:
        """Install a seeded :class:`~repro.runtime.faults.FaultInjector`.

        ``rng`` must be a dedicated child seed space (the caller spawns
        ``rng.spawn("faults")``) so installation never perturbs the
        workload's own streams; ``retry`` drives retransmission backoff.
        Crash, stall and outage times in the plan are clock times.  The
        decision streams replay from ``(seed, plan)`` on either clock, and
        on the simulator the whole run does.  Returns the injector.
        """
        from repro.runtime.faults import FaultInjector

        if self.faults is not None:
            raise WorkloadError("fault injector already installed")
        injector = FaultInjector(plan, rng, retry=retry)
        injector.install(self.transport)
        injector.arm(self.clock)
        self.executor.faults = injector
        self.faults = injector
        return injector

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} now={self.clock.now:.3f} "
                f"pending={self.clock.pending}>")
