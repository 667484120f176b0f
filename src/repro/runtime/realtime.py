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
        #: The one loop callback armed for the head of the queue and the
        #: clock time it was armed for; ``None`` while a turn runs.
        self._armed: asyncio.Handle | None = None
        self._armed_at = 0.0
        #: The turn's last reading of ``now`` while a turn runs, else ``None``.
        self._horizon: float | None = None

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
