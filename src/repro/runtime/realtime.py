"""Wall-clock asyncio runtime: the same engine stack on real time.

Everything the engines schedule — frontend WIs, delivery latencies, step
service times, watchdogs — lands on :class:`RealtimeClock`, a monotonic
wall clock that maps ``schedule(delay, fn, *args)`` onto
``loop.call_later`` — except ``delay == 0``, which costs no timer and no
loop turn: it runs, FIFO, in the turn that caused it, as the simulated
kernel runs ``now + 0``.  The transport is the shared clock-agnostic
:class:`repro.runtime.transport.Network` (persistent-queue semantics,
per-mechanism accounting, Lamport stamping — identical to simulation),
with the configured :class:`~repro.runtime.latency.LatencyModel` applied
as *real* delay: ``FixedLatency(0.0)`` for an undelayed in-process
service, positive values to rehearse WAN pacing.  Step programs run as
loop timers through :class:`TaskExecutor`, which wraps transient
program exceptions in the engines' :class:`~repro.runtime.retry.
RetryPolicy` backoff instead of letting one flaky callback kill the
daemon.

Times reported by ``RealtimeClock.now`` are seconds since
:meth:`RealtimeClock.start` (captured lazily from the first running
loop), so traces and span durations read like the simulated ones: small
numbers starting near zero.

Determinism note: this backend is for *serving* and wall-clock
benchmarks.  :meth:`RealtimeRuntime.install_faults` accepts the same
seeded :class:`~repro.runtime.faults.FaultPlan` the simulated backend
runs — the *decision sequence* (which messages drop, duplicate, delay;
which executor submissions fail) replays deterministically from
``(seed, plan)``, but event interleaving rides the wall clock, so
reproducibility is at the outcome level, not byte-level.  Fixed-seed
bit-replay remains the business of the simulated backend.
"""

from __future__ import annotations

import asyncio
import contextvars
from collections import deque
from typing import Any, Callable

from repro.errors import InjectedFault, SimulationError, WorkloadError
from repro.runtime.latency import FixedLatency, LatencyModel
from repro.runtime.metrics import MetricsCollector
from repro.runtime.retry import RetryPolicy
from repro.runtime.rng import SimRandom
from repro.runtime.transport import Network

__all__ = ["RealtimeClock", "RealtimeHandle", "RealtimeRuntime", "TaskExecutor"]

#: Zero-delay callbacks one loop turn fires before the clock yields to the
#: loop's other work (socket reads, HTTP handlers); a longer cascade
#: continues, in order, on the next turn.
TURN_LIMIT = 256


async def _wait(idle: asyncio.Event, timeout: float | None) -> bool:
    try:
        await asyncio.wait_for(idle.wait(), timeout)
    except asyncio.TimeoutError:
        return False
    return True


class RealtimeHandle:
    """A cancellable reference to a scheduled wall-clock callback."""

    __slots__ = ("_clock", "_context", "_timer", "action", "args", "cancelled",
                 "time")

    def __init__(self, clock: "RealtimeClock", time: float,
                 action: Callable[..., Any], args: tuple):
        self._clock = clock
        #: The loop timer; ``None`` for a zero-delay entry on the turn queue.
        self._timer: asyncio.TimerHandle | None = None
        self.time = time
        self.action = action
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._timer is not None:
            self._timer.cancel()
        clock = self._clock
        if clock is not None:
            self._clock = None
            clock._on_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.action, "__name__", repr(self.action))
        return f"<RealtimeHandle t={self.time:.3f} {name} {state}>"


class RealtimeClock:
    """Monotonic wall clock over the asyncio event loop.

    Satisfies :class:`repro.runtime.protocols.Clock`.  ``now`` is seconds
    since :meth:`start`; callbacks are real ``call_later`` timers, or
    turn-queue entries when the delay is zero.  The clock keeps the same
    observability surface as the simulated kernel (``events_processed``,
    ``event_hook``, ``profile``, ``pending``) so the engines' obs wiring
    works unchanged under both substrates.

    There is deliberately no synchronous ``run()``: the asyncio loop is
    the driver.  Use :meth:`join` to await quiescence.
    """

    def __init__(self) -> None:
        self._loop: asyncio.AbstractEventLoop | None = None
        self._epoch = 0.0
        self._pending = 0
        self._idle = asyncio.Event()
        self._idle.set()
        #: Zero-delay entries in scheduling order, fired by :meth:`_drain`.
        self._turn: deque[RealtimeHandle] = deque()
        self._drain_armed = False
        self.events_processed = 0
        self._last_fire = 0.0
        #: Observability hook called as ``hook(time, pending)`` before each
        #: callback fires — same shape as the simulated kernel's.
        self.event_hook: Callable[[float, int], None] | None = None
        #: Duck-typed profiler (see :class:`repro.obs.profile.Profiler`),
        #: same slot the simulated kernel exposes.  When installed, every
        #: fired callback runs inside a named subsystem frame credited
        #: with the wall-clock advance since the previous event (the
        #: realtime analogue of the kernel's sim-dt credit).
        self.profile = None

    # -- lifecycle ---------------------------------------------------------

    def start(self, loop: asyncio.AbstractEventLoop | None = None) -> None:
        """Bind to ``loop`` (default: the running loop) and zero the clock."""
        if self._loop is not None:
            return
        self._loop = loop if loop is not None else asyncio.get_running_loop()
        self._epoch = self._loop.time()

    def _require_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            try:
                self.start()
            except RuntimeError:
                raise SimulationError(
                    "RealtimeClock is not bound to an event loop; call "
                    "start() inside a running loop (or run under "
                    "asyncio.run) before scheduling"
                ) from None
        return self._loop

    # -- Clock protocol ----------------------------------------------------

    @property
    def now(self) -> float:
        """Seconds since :meth:`start` (0.0 before the clock is bound)."""
        if self._loop is None:
            return 0.0
        return self._loop.time() - self._epoch

    def schedule(
        self, delay: float, action: Callable[..., Any], *args: Any
    ) -> RealtimeHandle:
        """Run ``action(*args)`` ``delay`` real seconds from now.

        ``delay == 0`` arms no timer: the entry joins the FIFO turn queue
        and fires in the loop turn a clock callback is already running in
        (else in the next one) — the simulated kernel's ``now + 0``.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        loop = self._require_loop()
        handle = RealtimeHandle(self, self.now + delay, action, args)
        if delay == 0:
            # As ``call_later`` would: the callback runs in the context
            # of whoever scheduled it, not of whoever armed the drain.
            handle._context = contextvars.copy_context()
            self._turn.append(handle)
            if not self._drain_armed:
                self._drain_armed = True
                loop.call_soon(self._drain)
        else:
            handle._timer = loop.call_later(delay, self._fire, handle)
        self._pending += 1
        self._idle.clear()
        return handle

    def _drain(self) -> None:
        """Fire the turn queue, including what its callbacks enqueue.

        At most :data:`TURN_LIMIT` callbacks per loop turn; the rest keep
        their order and run after the loop has polled its sockets.
        """
        turn = self._turn
        budget = TURN_LIMIT
        try:
            while turn and budget:
                handle = turn.popleft()
                if not handle.cancelled:
                    budget -= 1
                    handle._context.run(self._fire, handle)
        finally:
            # A raising callback goes to the loop's exception handler;
            # what it left queued still runs.
            if turn:
                self._loop.call_soon(self._drain)
            else:
                self._drain_armed = False

    def _fire(self, handle: RealtimeHandle) -> None:
        handle._clock = None  # a late cancel is a pure no-op
        self._pending -= 1
        self.events_processed += 1
        now = self.now
        if self.event_hook is not None:
            self.event_hook(now, self._pending)
        profile = self.profile
        if profile is not None:
            profile.begin_event(handle.action, now, now - self._last_fire,
                                self._pending)
            self._last_fire = now
        try:
            handle.action(*handle.args)
        finally:
            if profile is not None:
                profile.end_event()
            if self._pending == 0:
                self._idle.set()

    def schedule_at(
        self, time: float, action: Callable[..., Any], *args: Any
    ) -> RealtimeHandle:
        """Run ``action(*args)`` at absolute clock time ``time``."""
        now = self.now
        if time < now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={now})"
            )
        return self.schedule(time - now, action, *args)

    def _on_cancel(self) -> None:
        self._pending -= 1
        if self._pending == 0:
            self._idle.set()

    @property
    def pending(self) -> int:
        """Number of scheduled-but-unfired callbacks."""
        return self._pending

    # -- quiescence --------------------------------------------------------

    async def join(self, timeout: float | None = None) -> bool:
        """Wait until no callbacks are pending; ``False`` on timeout."""
        return await _wait(self._idle, timeout)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RealtimeClock now={self.now:.3f} pending={self._pending}>"


class _TaskHandle:
    """Cancellable reference to one submission: its currently armed timer."""

    __slots__ = ("_executor", "_timer", "cancelled")

    def __init__(self, executor: "TaskExecutor"):
        self._executor = executor
        #: Service time, injected stall or backoff; ``None`` while an
        #: attempt runs and once the submission is settled.
        self._timer: asyncio.TimerHandle | None = None
        self.cancelled = False

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        timer = self._timer
        if timer is not None:  # armed: neither running nor settled
            self._timer = None
            timer.cancel()
            self._executor._settle(self)


class TaskExecutor:
    """Timer-driven step execution with retry-on-transient-failure.

    ``submit(delay, fn, *args)`` arms one loop timer for the service
    time; when it fires, ``fn`` runs as a plain callback.  A raising
    ``fn`` is retried on the runtime's :class:`~repro.runtime.retry.
    RetryPolicy` backoff — the backoff is the submission's next timer —
    (with the jitter drawn from a seeded stream so retry pacing is at
    least *replayable* in logs); once the budget is exhausted the failure
    is recorded in :attr:`failures` instead of killing the event loop.
    """

    def __init__(self, clock: RealtimeClock, retry: RetryPolicy | None = None,
                 rng: SimRandom | None = None):
        self.clock = clock
        self.retry = retry if retry is not None else RetryPolicy()
        self._jitter = (rng if rng is not None else SimRandom(0)).stream(
            "executor:retry"
        )
        #: Optional fault injector (see :class:`repro.runtime.faults.
        #: FaultInjector`), set by :meth:`RealtimeRuntime.install_faults`.
        #: When present, each submission consults it for an injected
        #: pre-run stall and each attempt for an injected failure.
        self.faults = None
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self.submitted = 0
        self.retries = 0
        #: ``(callable qualname, repr(exception))`` of budget-exhausted work.
        self.failures: list[tuple[str, str]] = []
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
    ) -> _TaskHandle:
        """Run ``fn(*args)`` after ``delay`` seconds of service time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        loop = self.clock._require_loop()
        self.submitted += 1
        self._inflight += 1
        self._idle.clear()
        handle = _TaskHandle(self)
        handle._timer = loop.call_later(delay, self._begin, handle, fn, args)
        return handle

    def _begin(self, handle: _TaskHandle, fn: Callable[..., Any],
               args: tuple) -> None:
        """The service time is over: an injected stall, then attempt 1."""
        handle._timer = None
        name = getattr(fn, "__qualname__", repr(fn))
        stall = 0.0 if self.faults is None else self.faults.executor_stall(name)
        if stall > 0:
            handle._timer = self.clock._loop.call_later(
                stall, self._attempt, handle, fn, args, name, 1)
        else:
            self._attempt(handle, fn, args, name, 1)

    def _attempt(self, handle: _TaskHandle, fn: Callable[..., Any],
                 args: tuple, name: str, attempt: int) -> None:
        handle._timer = None
        faults = self.faults
        try:
            if faults is not None and faults.executor_should_fail(name, attempt):
                raise InjectedFault(f"injected executor failure in {name}")
            fn(*args)
        except Exception as exc:
            backoff = self.retry.backoff(attempt, self._jitter)
            if backoff is not None:
                self.retries += 1
                self._notify(self.on_retry, fn, name, exc, attempt, backoff)
                handle._timer = self.clock._loop.call_later(
                    backoff, self._attempt, handle, fn, args, name, attempt + 1)
                return
            self.failures.append((name, repr(exc)))
            self._notify(self.on_give_up, fn, name, exc, attempt)
        self._settle(handle)

    def _settle(self, handle: _TaskHandle) -> None:
        """The submission ran, gave up or was cancelled: no timer is armed."""
        self._inflight -= 1
        if self._inflight == 0:
            self._idle.set()

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
        """Wait for all in-flight submissions; ``False`` on timeout."""
        return await _wait(self._idle, timeout)


class RealtimeRuntime:
    """Asyncio substrate bundle: wall clock + shared transport + tasks.

    Satisfies :class:`repro.runtime.protocols.Runtime`.  The transport is
    the same :class:`~repro.runtime.transport.Network` the simulation
    uses, constructed over the wall clock; the default latency model is
    ``FixedLatency(0.0)`` (undelayed in-process delivery — pass a model
    to rehearse network pacing).
    """

    name = "asyncio"

    def __init__(
        self,
        metrics: MetricsCollector | None = None,
        latency: LatencyModel | None = None,
        retry: RetryPolicy | None = None,
        rng: SimRandom | None = None,
    ):
        self.clock = RealtimeClock()
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.transport = Network(
            self.clock, self.metrics,
            latency if latency is not None else FixedLatency(0.0),
        )
        self.executor = TaskExecutor(self.clock, retry=retry, rng=rng)
        self.transport.executor = self.executor
        #: The installed fault injector, if any.
        self.faults = None

    def start(self, loop: asyncio.AbstractEventLoop | None = None) -> None:
        """Bind the clock to a running loop (lazy on first schedule)."""
        self.clock.start(loop)

    # -- fault injection ---------------------------------------------------

    def supports_faults(self) -> bool:
        return True

    def install_faults(self, plan: Any, rng: Any, retry: Any) -> Any:
        """Install a seeded :class:`~repro.runtime.faults.FaultInjector`.

        Same contract as the simulated backend: ``rng`` is a dedicated
        child seed space (callers spawn ``rng.spawn("faults")``) so the
        injector's decision streams replay from ``(seed, plan)``; crash /
        stall / outage times in the plan are wall-clock seconds since the
        runtime started.  Returns the installed injector.
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

    # -- quiescence --------------------------------------------------------

    async def join(self, timeout: float | None = None) -> bool:
        """Wait until the clock and the executor are both idle.

        Work can ping-pong between the two (a clock callback submits a
        step whose completion schedules a clock callback), so the join
        loops until a pass observes both idle, or the timeout budget runs
        out.
        """
        loop = self.clock._require_loop()
        deadline = None if timeout is None else loop.time() + timeout
        while True:
            remaining = None if deadline is None else deadline - loop.time()
            if remaining is not None and remaining <= 0:
                return False
            if not await self.clock.join(remaining):
                return False
            remaining = None if deadline is None else deadline - loop.time()
            if not await self.executor.join(remaining):
                return False
            if self.clock.pending == 0 and self.executor.inflight == 0:
                return True
