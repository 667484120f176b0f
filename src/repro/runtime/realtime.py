"""Wall-clock asyncio runtime: the same engine stack on real time.

Everything the engines schedule — frontend WIs, delivery latencies, step
service times, watchdogs — lands on :class:`RealtimeClock`: the
simulator's :class:`~repro.runtime.eventqueue.EventQueue`, fired by
**one** callback armed for its head.  The callback fires everything due
in ``(time, seq)`` order, including what the fired callbacks schedule
with no delay: a zero-latency message runs in the loop turn that sent
it, as the simulated kernel runs ``now + 0``.

How the clock waits: a head that is already due is a ``call_soon``.  A
later head is the absolute deadline of the clock's one Linux
``timerfd`` (``CLOCK_MONOTONIC``, the clock ``loop.time()`` reads),
which the loop watches with ``add_reader``; re-arming for an earlier
head is one ``timerfd_settime``.  An entry then fires 0.04–0.2 ms after
its time on an idle loop.  A loop timer (``call_at``) would fire it
0.5–0.8 ms late at the median: the selector rounds every wait up to a
whole millisecond, again each time the loop wakes for something else,
and a chain of steps pays that once per link.  Where libc has no
``timerfd_create`` (off Linux) the clock arms ``call_at`` instead; the
choice is made once, at import, from what the platform offers.

The transport is the shared clock-agnostic
:class:`repro.runtime.transport.Network` (persistent-queue semantics,
per-mechanism accounting, Lamport stamping — identical to simulation),
with the configured :class:`~repro.runtime.latency.LatencyModel`
applied as *real* delay: ``FixedLatency(0.0)`` for an
undelayed in-process service, positive values to rehearse WAN pacing.
Step programs run as clock entries through the one
:class:`~repro.runtime.executor.TaskExecutor`, which runs each callback
once and counts one that raises as a defect, so it cannot kill the
daemon.

Times reported by ``RealtimeClock.now`` are seconds since
:meth:`RealtimeClock.start` (captured lazily from the first running
loop), so traces and span durations read like the simulated ones: small
numbers starting near zero.

Determinism note: this backend is for *serving* and wall-clock
benchmarks.  It installs the same seeded :class:`~repro.runtime.faults.
FaultPlan` the simulated backend runs, through the same
:meth:`~repro.runtime.executor.ClockRuntime.install_faults` — the
*decision sequence* replays from ``(seed, plan)``, but event
interleaving rides the wall clock, so reproducibility is at the outcome
level, not byte-level.  Fixed-seed bit-replay, executor faults included,
is the business of the simulated backend.
"""

from __future__ import annotations

import asyncio
import contextvars
import heapq
import math
import os
import time as _time
import weakref
from typing import Any, Callable

from repro.errors import SimulationError
from repro.runtime.eventqueue import EventHandle, EventQueue
from repro.runtime.executor import ClockRuntime, TaskExecutor
from repro.runtime.latency import FixedLatency, LatencyModel
from repro.runtime.metrics import MetricsCollector

# ``TaskExecutor`` is re-exported: callers that patch it by this module
# path (``bench/layers.py``) find the one executor here.
__all__ = ["RealtimeClock", "RealtimeRuntime", "TaskExecutor"]

#: Callbacks one loop turn fires before the clock yields to the loop's
#: other work (socket reads, HTTP handlers); a longer cascade continues,
#: in order, on the next turn.
TURN_LIMIT = 256


try:  # ``os.timerfd_*`` is Python 3.13+; libc has had them since glibc 2.8.
    import ctypes

    _libc = ctypes.CDLL(None, use_errno=True)
    _timerfd_create = _libc.timerfd_create
    _timerfd_settime = _libc.timerfd_settime
except (ImportError, OSError, AttributeError, TypeError):  # pragma: no cover - off Linux
    _timerfd_create = None
else:

    class _ITimerSpec(ctypes.Structure):
        """``struct itimerspec``: two ``struct timespec``, flattened."""

        _fields_ = [("interval_sec", ctypes.c_long), ("interval_nsec", ctypes.c_long),
                    ("value_sec", ctypes.c_long), ("value_nsec", ctypes.c_long)]

    _timerfd_create.argtypes = [ctypes.c_int, ctypes.c_int]
    _timerfd_settime.argtypes = [ctypes.c_int, ctypes.c_int, ctypes.POINTER(_ITimerSpec),
                                 ctypes.c_void_p]
    _timerfd_create.restype = _timerfd_settime.restype = ctypes.c_int

#: ``timerfd_settime`` flag: ``it_value`` is an absolute clock reading.
TFD_TIMER_ABSTIME = 1


def _on_timerfd(fd: int, clock_ref: "weakref.ref[RealtimeClock]") -> None:
    """The loop's reader on a clock's timerfd: consume the expiry, then
    run a turn unless one is already queued.  A read that finds no
    expiry (the fd was re-armed after the loop saw it ready) does nothing.
    The clock is held weakly, so a dropped clock is collected."""
    try:
        os.read(fd, 8)
    except BlockingIOError:
        return
    clock = clock_ref()
    if clock is not None and clock._armed is None:
        clock._turn()


def _release_timerfd(loop: asyncio.AbstractEventLoop, fd: int) -> None:
    """Take the reader off, then close the fd: a number the kernel hands
    out again must not meet a stale registration in the selector."""
    loop.remove_reader(fd)  # a closed loop has dropped it already
    os.close(fd)


class RealtimeClock(EventQueue):
    """Monotonic wall clock over the asyncio event loop.

    The queue, its handles, ``pending``, ``events_processed`` and
    ``event_hook`` are the simulated kernel's; what
    differs is how ``now`` advances.  Here it is seconds since
    :meth:`start`, read live, so a positive delay counts from the instant
    it was scheduled, and an entry fires once the wall clock has reached
    its time.

    There is deliberately no synchronous ``run()``: the asyncio loop is
    the driver.  Use :meth:`join` to await quiescence.
    """

    def __init__(self) -> None:
        super().__init__()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._epoch = 0.0
        self._idle = asyncio.Event()
        self._idle.set()
        #: The loop callback queued for the head (``call_soon``, or
        #: ``call_at`` without a timerfd), else ``None``; and the clock
        #: time the clock is armed for (``inf``: not armed, or a turn runs).
        self._armed: asyncio.Handle | None = None
        self._armed_at = math.inf
        #: The timerfd the clock waits on, its ``itimerspec`` and the
        #: finalizer that releases it; ``None`` when it waits with ``call_at``.
        self._timerfd: int | None = None
        self._deadline: Any = None
        self._release: weakref.finalize | None = None
        #: The turn's last reading of ``now`` while a turn runs, else ``None``.
        self._horizon: float | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self, loop: asyncio.AbstractEventLoop | None = None) -> None:
        """Bind to ``loop`` (default: the running loop) and zero the clock."""
        if self._loop is not None:
            return
        self._loop = loop if loop is not None else asyncio.get_running_loop()
        self._epoch = self._loop.time()
        if _timerfd_create is not None:
            fd = _timerfd_create(_time.CLOCK_MONOTONIC, os.O_NONBLOCK | os.O_CLOEXEC)
            if fd < 0:
                raise OSError(ctypes.get_errno(), "timerfd_create failed")
            self._loop.add_reader(fd, _on_timerfd, fd, weakref.ref(self))
            self._timerfd = fd
            self._deadline = _ITimerSpec()
            self._release = weakref.finalize(self, _release_timerfd, self._loop, fd)

    def close(self) -> None:
        """Release the timerfd (idempotent; also done when the clock is
        collected).  Entries still queued go on firing, by ``call_at``."""
        release = self._release
        if release is None:
            return
        self._timerfd = self._deadline = self._release = None
        release()
        if (self._armed is None and self._horizon is None and self._queue
                and not self._loop.is_closed()):
            self._armed_at = math.inf
            self._arm(self._queue[0][0])

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

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Seconds since :meth:`start` (0.0 before the clock is bound)."""
        if self._loop is None:
            return 0.0
        return self._loop.time() - self._epoch

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
        the simulator's ``now + 0`` — so ``schedule(0, ...)`` fires in
        that turn, and from outside a turn in the next one.  The entry runs in a copy of the
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
        """Arm the clock for an entry due at ``time``, unless it is
        already armed for no later.

        A due entry is a ``call_soon``.  A later one sets the timerfd's
        absolute deadline, ``epoch + time`` rounded up to the microsecond
        (so the turn it wakes finds the entry due): one syscall, which
        replaces a later deadline and cancels nothing.  On an idle loop
        the entry fires 0.04–0.2 ms late.  An expiry left over from an
        earlier head (the queue emptied, or a ``call_soon`` turn ran
        first) is a turn that fires nothing and re-arms.  Without a
        timerfd a later entry is a ``call_at``, which the selector
        rounds up to a whole millisecond: 0.5–0.8 ms late at the median.
        """
        if self._armed_at <= time:
            return
        loop = self._loop
        self._armed_at = time
        armed = self._armed
        if armed is not None:  # only ever a ``call_at`` for a later head
            armed.cancel()
            self._armed = None
        if time <= loop.time() - self._epoch:
            self._armed = loop.call_soon(self._turn)
        elif self._timerfd is not None:
            deadline = self._deadline
            deadline.value_sec, deadline.value_nsec = divmod(
                math.ceil((self._epoch + time) * 1e6) * 1000, 1_000_000_000)
            if _timerfd_settime(self._timerfd, TFD_TIMER_ABSTIME, deadline, None):
                raise OSError(ctypes.get_errno(), "timerfd_settime failed")
        else:
            self._armed = loop.call_at(self._epoch + time, self._turn)

    def _turn(self) -> None:
        """The loop callback: fire what is due in ``(time, seq)`` order,
        at most :data:`TURN_LIMIT`, then arm for the new head.

        A raising callback goes to the loop's exception handler; what it
        left queued still runs.
        """
        self._armed = None
        self._armed_at = math.inf
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
                handle._context.run(handle.action, *handle.args)
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


class RealtimeRuntime(ClockRuntime):
    """The wall-clock backend: :class:`ClockRuntime` over a
    :class:`RealtimeClock`.

    The default latency model is ``FixedLatency(0.0)`` (undelayed
    in-process delivery — pass a model to rehearse network pacing).
    Crash, stall and outage times of an installed plan are wall-clock
    seconds since the runtime started.
    """

    name = "asyncio"

    def __init__(
        self,
        metrics: MetricsCollector | None = None,
        latency: LatencyModel | None = None,
    ):
        super().__init__(
            RealtimeClock(), metrics,
            latency if latency is not None else FixedLatency(0.0),
        )

    def start(self, loop: asyncio.AbstractEventLoop | None = None) -> None:
        """Bind the clock to a running loop (lazy on first schedule)."""
        self.clock.start(loop)

    async def join(self, timeout: float | None = None) -> bool:
        """Wait until the clock, step timers included, is idle."""
        return await self.clock.join(timeout)
