"""Deterministic discrete-event simulation kernel.

The CREW reproduction runs every workflow control architecture inside a
discrete-event simulation (DES).  The paper's evaluation reports *counts*
(physical messages per instance, load units per node) rather than
wall-clock times, so a DES reproduces the experiments exactly and
deterministically: the same seed always yields the same schedule, the same
failures, and the same counters.

The kernel is intentionally small: a priority queue of timestamped
callbacks with a strictly monotonic tie-breaking sequence number.  All
higher layers (network, nodes, engines) are built on :meth:`Simulator.schedule`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from repro.errors import SimulationError

__all__ = ["EventHandle", "Simulator"]


class EventHandle:
    """A cancellable reference to a scheduled simulation event."""

    __slots__ = ("_sim", "action", "args", "cancelled", "time")

    def __init__(self, time: float, action: Callable[..., Any], args: tuple,
                 sim: "Simulator | None" = None):
        self.time = time
        self.action = action
        self.args = args
        self.cancelled = False
        # Back-reference used for O(1) live-event accounting; detached when
        # the entry leaves the queue so late cancels stay pure no-ops.
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            self._sim = None
            sim._on_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.action, "__name__", repr(self.action))
        return f"<EventHandle t={self.time:.3f} {name} {state}>"


class Simulator:
    """A deterministic discrete-event simulator.

    Events scheduled for the same instant fire in scheduling order (FIFO),
    which makes multi-node protocols reproducible without relying on dict
    or hash ordering.

    Example::

        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "a")
        sim.schedule(1.0, fired.append, "b")
        sim.run()
        assert fired == ["b", "a"]
    """

    #: Compaction policy: rebuild the heap once more than half of at least
    #: this many queued entries are cancelled garbage.  Long OCR-heavy runs
    #: cancel watchdogs and timeouts by the thousand; without compaction
    #: every subsequent pop wades through them.
    COMPACT_MIN = 64

    def __init__(self) -> None:
        #: Heap of ``(time, seq, handle)``, ordered by ``(time, seq)`` for
        #: determinism: ``seq`` is unique, so two entries never compare
        #: their handles and the heap orders them in C.
        self._queue: list[tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        self._cancelled = 0  # cancelled entries still sitting in the queue
        self.events_processed = 0
        #: Optional observability hook called as ``hook(time, queue_len)``
        #: before each event fires.  Left ``None`` in benchmark runs so
        #: the hot loop pays only one attribute check per event.
        self.event_hook: Callable[[float, int], None] | None = None
        #: Optional duck-typed profiler (see :class:`repro.obs.profile.
        #: Profiler`), installed by ``Profiler.install``.  When set, every
        #: event runs inside a named profiler frame credited with the
        #: simulation-clock advance it caused; when ``None`` (the default)
        #: the hot loop pays one ``is None`` branch.
        self.profile = None

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def schedule(self, delay: float, action: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``action(*args)`` to fire ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, action, *args)

    def schedule_at(self, time: float, action: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``action(*args)`` to fire at absolute simulation time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        handle = EventHandle(time, action, args, self)
        heapq.heappush(self._queue, (time, next(self._seq), handle))
        return handle

    # -- heap hygiene ------------------------------------------------------

    def _on_cancel(self) -> None:
        """Account one newly cancelled queued entry; compact when garbage
        dominates the heap."""
        self._cancelled += 1
        if (self._cancelled >= self.COMPACT_MIN
                and self._cancelled * 2 > len(self._queue)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and rebuild the heap in O(live)."""
        profile = self.profile
        if profile is not None:
            profile.push("kernel.heap_compact")
        try:
            self._queue = [e for e in self._queue if not e[2].cancelled]
            heapq.heapify(self._queue)
            self._cancelled = 0
        finally:
            if profile is not None:
                profile.pop()

    def _prune_cancelled_head(self) -> None:
        """The single lazy-deletion point: discard cancelled entries at the
        head of the queue (with accounting) so ``self._queue[0]``, if any,
        is live."""
        while self._queue and self._queue[0][2].cancelled:
            heapq.heappop(self._queue)
            self._cancelled -= 1

    def step(self) -> bool:
        """Fire the single next pending event.

        Returns ``True`` if an event fired, ``False`` if the queue is empty.
        Cancelled events are skipped silently.
        """
        self._prune_cancelled_head()
        if not self._queue:
            return False
        time, _, handle = heapq.heappop(self._queue)
        handle._sim = None  # detached: a late cancel no longer counts
        profile = self.profile
        if profile is not None:
            profile.begin_event(handle.action, time,
                                time - self._now, len(self._queue))
        self._now = time
        self.events_processed += 1
        if self.event_hook is not None:
            self.event_hook(time, len(self._queue))
        if profile is None:
            handle.action(*handle.args)
            return True
        try:
            handle.action(*handle.args)
        finally:
            profile.end_event()
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Run until the queue drains, ``until`` is reached, or ``max_events`` fire.

        Returns the number of events processed by this call.  Re-entrant
        calls (``run`` from inside an event) are rejected because they would
        corrupt the clock.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        fired = 0
        try:
            while self._queue:
                if max_events is not None and fired >= max_events:
                    break
                if until is not None and self._peek_time() > until:
                    self._now = until
                    break
                if self.step():
                    fired += 1
        finally:
            self._running = False
        return fired

    def _peek_time(self) -> float:
        """Time of the next non-cancelled event (infinity if none)."""
        self._prune_cancelled_head()
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    @property
    def pending(self) -> int:
        """Number of non-cancelled events still queued.  O(1)."""
        return len(self._queue) - self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self._now:.3f} pending={self.pending}>"
