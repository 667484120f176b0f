"""Wall-clock asyncio runtime: the same engine stack on real time.

Everything the engines schedule — frontend WIs, delivery latencies, step
service times, watchdogs — lands on :class:`RealtimeClock`: the
simulator's :class:`~repro.runtime.eventqueue.EventQueue`, fired by
**one** loop callback armed for its head (``call_soon`` when due,
``call_at`` otherwise).  The callback fires everything due in ``(time,
seq)`` order, including what the fired callbacks schedule with no delay:
a zero-latency message runs in the loop turn that sent it, as the
simulated kernel runs ``now + 0``.  The transport is the shared
clock-agnostic :class:`repro.runtime.transport.Network` (persistent-queue
semantics, per-mechanism accounting, Lamport stamping — identical to
simulation), with the configured :class:`~repro.runtime.latency.
LatencyModel` applied as *real* delay: ``FixedLatency(0.0)`` for an
undelayed in-process service, positive values to rehearse WAN pacing.
Step programs run as clock entries through :class:`TaskExecutor`, which
wraps transient program exceptions in the engines' :class:`~repro.
runtime.retry.RetryPolicy` backoff instead of letting one flaky callback
kill the daemon.

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
import heapq
from typing import Any, Callable

from repro.errors import InjectedFault, SimulationError, WorkloadError
from repro.runtime.eventqueue import EventHandle, EventQueue
from repro.runtime.latency import FixedLatency, LatencyModel
from repro.runtime.metrics import MetricsCollector
from repro.runtime.retry import RetryPolicy
from repro.runtime.rng import SimRandom
from repro.runtime.transport import Network

__all__ = ["RealtimeClock", "RealtimeRuntime", "TaskExecutor"]

#: Callbacks one loop turn fires before the clock yields to the loop's
#: other work (socket reads, HTTP handlers); a longer cascade continues,
#: in order, on the next turn.
TURN_LIMIT = 256


class RealtimeClock(EventQueue):
    """Monotonic wall clock over the asyncio event loop.

    Satisfies :class:`repro.runtime.protocols.Clock`.  The queue, its
    handles, ``pending``, ``events_processed``, ``event_hook`` and
    ``profile`` are the simulated kernel's; what differs is how ``now``
    advances.  Here it is seconds since :meth:`start`, read live, so a
    positive delay counts from the instant it was scheduled, and an entry
    fires once the wall clock has reached its time.

    There is deliberately no synchronous ``run()``: the asyncio loop is
    the driver.  Use :meth:`join` to await quiescence.
    """

    def __init__(self) -> None:
        super().__init__()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._epoch = 0.0
        self._idle = asyncio.Event()
        self._idle.set()
        #: The one loop callback armed for the head of the queue and the
        #: clock time it was armed for; ``None`` while a turn runs.
        self._armed: asyncio.Handle | None = None
        self._armed_at = 0.0
        #: The turn's last reading of ``now`` while a turn runs, else ``None``.
        self._horizon: float | None = None
        self._last_fire = 0.0

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
    ) -> EventHandle:
        """Run ``action(*args)`` ``delay`` real seconds from now.

        ``delay == 0`` inside a turn fires in that turn; from outside a
        turn, in the next one.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        handle = EventHandle(0.0, action, args, self)
        self.enqueue(handle, delay)
        return handle

    def schedule_at(
        self, time: float, action: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Run ``action(*args)`` at absolute clock time ``time``."""
        now = self.now
        if time < now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={now})"
            )
        return self.schedule(time - now, action, *args)

    def enqueue(self, handle: EventHandle, delay: float) -> None:
        """Queue ``handle`` to fire ``delay`` seconds from now.

        Inside a turn, a zero delay is the turn's reading of ``now`` —
        the simulator's ``now + 0``.  The entry runs in a copy of the
        caller's ``contextvars`` context, as ``call_later`` would run it.
        Its owner (``handle._owner``) answers a cancel: the clock, or an
        executor that forwards to it.
        """
        loop = self._require_loop()
        turn = self._horizon
        if turn is None or delay:
            time = loop.time() - self._epoch + delay
        else:
            time = turn
        handle.time = time
        handle._context = contextvars.copy_context()
        heapq.heappush(self._queue, (time, next(self._seq), handle))
        self._idle.clear()
        if turn is None:
            self._arm(time)

    def _arm(self, time: float) -> None:
        """Arm the loop callback for an entry due at ``time``, unless it is
        already armed for no later."""
        armed = self._armed
        if armed is not None:
            if self._armed_at <= time:
                return
            armed.cancel()
        loop = self._loop
        self._armed_at = time
        if time <= loop.time() - self._epoch:
            self._armed = loop.call_soon(self._turn)
        else:
            self._armed = loop.call_at(self._epoch + time, self._turn)

    def _turn(self) -> None:
        """The loop callback: fire what is due in ``(time, seq)`` order,
        at most :data:`TURN_LIMIT`, then arm for the new head.

        A raising callback goes to the loop's exception handler; what it
        left queued still runs.
        """
        self._armed = None
        now = self._horizon = self.now
        budget = TURN_LIMIT
        try:
            while budget:
                self._prune_cancelled_head()
                if not self._queue:
                    break
                time, __, handle = self._queue[0]
                if time > now:
                    now = self._horizon = self.now
                    if time > now:
                        break
                heapq.heappop(self._queue)
                handle._owner = None  # a late cancel is a pure no-op
                budget -= 1
                self.events_processed += 1
                if self.event_hook is not None:
                    self.event_hook(now, self.pending)
                profile = self.profile
                if profile is None:
                    handle._context.run(handle.action, *handle.args)
                    continue
                profile.begin_event(handle.action, now, now - self._last_fire,
                                    self.pending)
                self._last_fire = now
                try:
                    handle._context.run(handle.action, *handle.args)
                finally:
                    profile.end_event()
        finally:
            self._horizon = None
            self._prune_cancelled_head()
            if self._queue:
                self._arm(self._queue[0][0])
            else:
                self._idle.set()

    def _on_cancel(self) -> None:
        super()._on_cancel()
        if not self.pending:
            self._idle.set()

    # -- quiescence --------------------------------------------------------

    async def join(self, timeout: float | None = None) -> bool:
        """Wait until no callbacks are pending; ``False`` on timeout."""
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
        except asyncio.TimeoutError:
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RealtimeClock now={self.now:.3f} pending={self.pending}>"


class TaskExecutor:
    """Step execution as clock entries, with retry-on-transient-failure.

    ``submit(delay, fn, *args)`` queues one clock entry for the service
    time; when it fires, ``fn`` runs as a plain callback, so what it
    schedules with no delay runs in the same loop turn.  A raising ``fn``
    is retried on the runtime's :class:`~repro.runtime.retry.RetryPolicy`
    backoff — the same handle queued again — (with the jitter drawn from
    a seeded stream so retry pacing is at least *replayable* in logs);
    once the budget is exhausted the failure is recorded in
    :attr:`failures` instead of killing the event loop.  Cancelling the
    returned handle withdraws whichever wait is queued: service time,
    injected stall or backoff.
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
    ) -> EventHandle:
        """Run ``fn(*args)`` after ``delay`` seconds of service time."""
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
        name = getattr(fn, "__qualname__", repr(fn))
        stall = 0.0 if self.faults is None else self.faults.executor_stall(name)
        if stall > 0:
            self._requeue(handle, stall, fn, args, name, 1)
        else:
            self._attempt(handle, fn, args, name, 1)

    def _attempt(self, handle: EventHandle, fn: Callable[..., Any],
                 args: tuple, name: str, attempt: int) -> None:
        faults = self.faults
        try:
            if faults is not None and faults.executor_should_fail(name, attempt):
                raise InjectedFault(f"injected executor failure in {name}")
            fn(*args)
        except Exception as exc:
            backoff = self.retry.backoff(attempt, self._jitter)
            if backoff is None:
                self.failures.append((name, repr(exc)))
                self._notify(self.on_give_up, fn, name, exc, attempt)
            elif not handle.cancelled:
                self.retries += 1
                self._notify(self.on_retry, fn, name, exc, attempt, backoff)
                self._requeue(handle, backoff, fn, args, name, attempt + 1)
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
        """Wait until the clock, whose entries the submissions are, is idle."""
        return await self.clock.join(timeout)


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
        """Wait until the clock, step timers included, is idle."""
        return await self.clock.join(timeout)
