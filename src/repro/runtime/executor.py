"""The one step executor, and the runtime that wires it to a clock.

:class:`TaskExecutor` runs step programs as entries of whichever clock it
is given — the discrete-event :class:`repro.sim.kernel.Simulator` or the
wall-clock :class:`repro.runtime.realtime.RealtimeClock`; both are an
:class:`~repro.runtime.eventqueue.EventQueue`, and all the executor asks
of one is ``enqueue(handle, delay)`` and ``_on_cancel()``.  A submission
is one queue push; with no fault plan installed and no program raising
it draws nothing and pushes nothing more, so a simulated schedule is the
one a plain ``clock.schedule`` would give.

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

from repro.errors import InjectedFault, SimulationError, WorkloadError
from repro.runtime.eventqueue import EventHandle, EventQueue
from repro.runtime.latency import LatencyModel
from repro.runtime.metrics import MetricsCollector
from repro.runtime.retry import RetryPolicy
from repro.runtime.rng import SimRandom
from repro.runtime.transport import Network

__all__ = ["ClockExecutor", "ClockRuntime", "TaskExecutor"]


def _name(fn: Callable[..., Any]) -> str:
    return getattr(fn, "__qualname__", repr(fn))


class TaskExecutor:
    """Step execution as clock entries, with retry-on-transient-failure.

    ``submit(delay, fn, *args)`` queues one clock entry for the service
    time; when it fires, ``fn`` runs as a plain callback, so what it
    schedules with no delay runs at the same clock instant.  A raising
    ``fn`` — a program's exception or an injected ``execfail`` — is
    retried on the :class:`~repro.runtime.retry.RetryPolicy` backoff, the
    same handle queued again, with the jitter drawn from a seeded stream
    (so a simulated run replays bit for bit).  Once the budget is spent
    the failure is recorded in :attr:`failures` and the step is dropped:
    it neither kills the event loop nor escapes ``Simulator.run``.  An
    exception that was not injected is also recorded in :attr:`errors`,
    on every attempt, so a simulated run can still fail on a defect.
    Cancelling the returned handle withdraws whichever wait is queued:
    service time, injected stall or backoff.
    """

    def __init__(self, clock: EventQueue, retry: RetryPolicy | None = None,
                 rng: SimRandom | None = None):
        self.clock = clock
        self.retry = retry if retry is not None else RetryPolicy()
        self._jitter = (rng if rng is not None else SimRandom(0)).stream(
            "executor:retry"
        )
        #: Optional fault injector (see :class:`repro.runtime.faults.
        #: FaultInjector`), set by :meth:`ClockRuntime.install_faults`.
        #: When present, each submission consults it for an injected
        #: pre-run stall and each attempt for an injected failure.
        self.faults = None
        self._inflight = 0
        self.submitted = 0
        self.retries = 0
        #: ``(callable qualname, repr(exception))`` of budget-exhausted work.
        self.failures: list[tuple[str, str]] = []
        #: ``(callable qualname, formatted traceback)`` of every attempt
        #: that raised something the fault plan did not inject, retried or
        #: not.  Programs turn their own exceptions into failed steps, so
        #: on the simulator each entry is an engine defect, and
        #: ``ControlSystem.run`` fails the run on it.
        self.errors: list[tuple[str, str]] = []
        #: Duck-typed observability hooks (``obs`` sits above ``runtime``
        #: in the layering contract, so the owning service injects these
        #: rather than the executor importing a logger/registry):
        #: ``on_retry(fn, name, exc, attempt, backoff)`` after each failed
        #: attempt that will be retried, ``on_give_up(fn, name, exc,
        #: attempts)`` once the budget is exhausted.  Hook exceptions are
        #: swallowed — observability must never kill the worker.
        self.on_retry: Callable[..., None] | None = None
        self.on_give_up: Callable[..., None] | None = None

    def submit(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Run ``fn(*args)`` after ``delay`` units of service time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self.submitted += 1
        self._inflight += 1
        handle = EventHandle(0.0, self._begin, (), self)
        handle.args = (handle, fn, args)
        self.clock.enqueue(handle, delay)
        return handle

    def _begin(self, handle: EventHandle, fn: Callable[..., Any],
               args: tuple) -> None:
        """The service time is over: an injected stall, then attempt 1."""
        faults = self.faults
        if faults is not None:
            stall = faults.executor_stall(_name(fn))
            if stall > 0:
                self._requeue(handle, stall, fn, args, 1)
                return
        self._attempt(handle, fn, args, 1)

    def _attempt(self, handle: EventHandle, fn: Callable[..., Any],
                 args: tuple, attempt: int) -> None:
        faults = self.faults
        try:
            if faults is not None and faults.executor_should_fail(_name(fn), attempt):
                raise InjectedFault(f"injected executor failure in {_name(fn)}")
            fn(*args)
        except Exception as exc:
            if not isinstance(exc, InjectedFault):
                self.errors.append((_name(fn), format_exc()))
            backoff = self.retry.backoff(attempt, self._jitter)
            if backoff is None:
                self.failures.append((_name(fn), repr(exc)))
                self._notify(self.on_give_up, fn, _name(fn), exc, attempt)
            elif not handle.cancelled:
                self.retries += 1
                self._notify(self.on_retry, fn, _name(fn), exc, attempt, backoff)
                self._requeue(handle, backoff, fn, args, attempt + 1)
                return
        # Ran, gave up, or was cancelled while it ran: settled.
        self._inflight -= 1
        handle.args = ()  # break the handle -> args -> handle cycle

    def _requeue(self, handle: EventHandle, delay: float, *args: Any) -> None:
        handle.action = self._attempt
        handle.args = (handle, *args)
        handle._owner = self
        self.clock.enqueue(handle, delay)

    def _on_cancel(self) -> None:
        """A queued submission was cancelled: settled; the clock accounts it."""
        self._inflight -= 1
        self.clock._on_cancel()

    @staticmethod
    def _notify(hook: Callable[..., None] | None, *args: Any) -> None:
        if hook is None:
            return
        try:
            hook(*args)
        except Exception:  # pragma: no cover - defensive
            pass

    @property
    def inflight(self) -> int:
        """Submissions whose work has not run, given up or been cancelled."""
        return self._inflight

    async def join(self, timeout: float | None = None) -> bool:
        """Wait until the wall clock, whose entries the submissions are,
        is idle (the simulator has no ``join``: ``run`` drains it)."""
        return await self.clock.join(timeout)


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
    clock (crashes) and into the executor (``execfail`` / ``execstall``).
    """

    name: str

    def __init__(
        self,
        clock: EventQueue,
        metrics: MetricsCollector | None = None,
        latency: LatencyModel | None = None,
        retry: RetryPolicy | None = None,
        rng: SimRandom | None = None,
    ):
        self.clock = clock
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.transport = Network(clock, self.metrics, latency)
        self.executor = TaskExecutor(clock, retry=retry, rng=rng)
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
