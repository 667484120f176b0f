"""The event queue both clocks fire.

One priority queue of timestamped callbacks with a strictly monotonic
tie-breaking sequence number: entries fire in ``(time, seq)`` order, so
two scheduled for the same instant fire in scheduling order.  Cancel is
lazy — a cancelled entry stays in the heap, counted, until it reaches the
head or garbage dominates and the heap is compacted.

Two clocks build on it and differ only in how ``now`` advances.  The
discrete-event :class:`repro.sim.kernel.Simulator` jumps ``now`` to each
entry's time as it pops it; :class:`repro.runtime.realtime.RealtimeClock`
reads ``now`` off the asyncio loop's monotonic clock and arms one loop
callback for the head of the queue.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from repro.errors import SimulationError

__all__ = ["EventHandle", "EventQueue"]


class EventHandle:
    """A cancellable reference to a scheduled event."""

    # ``_context`` is set by the wall clock only: the contextvars
    # context the entry runs in.
    __slots__ = ("_context", "_owner", "action", "args", "cancelled", "time")

    def __init__(self, time: float, action: Callable[..., Any], args: tuple,
                 owner: Any = None):
        self.time = time
        self.action = action
        self.args = args
        self.cancelled = False
        # Whoever accounts a cancel (``owner._on_cancel()``): the queue, or
        # an executor that forwards to it.  Detached when the entry leaves
        # the queue so late cancels stay pure no-ops.
        self._owner = owner

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        owner = self._owner
        if owner is not None:
            self._owner = None
            owner._on_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.action, "__name__", repr(self.action))
        return f"<EventHandle t={self.time:.3f} {name} {state}>"


class EventQueue:
    """Heap of ``(time, seq, handle)`` with lazy cancel and compaction.

    A clock provides ``now`` and pops the head; the queue keeps the
    observability surface both clocks share: ``events_processed``,
    ``event_hook``, ``profile`` and ``pending``.
    """

    #: Compaction policy: rebuild the heap once more than half of at least
    #: this many queued entries are cancelled garbage.  Long OCR-heavy runs
    #: cancel watchdogs and timeouts by the thousand; without compaction
    #: every subsequent pop wades through them.
    COMPACT_MIN = 64

    now: float

    def __init__(self) -> None:
        #: Heap of ``(time, seq, handle)``, ordered by ``(time, seq)`` for
        #: determinism: ``seq`` is unique, so two entries never compare
        #: their handles and the heap orders them in C.
        self._queue: list[tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._cancelled = 0  # cancelled entries still sitting in the queue
        self.events_processed = 0
        #: Optional observability hook called as ``hook(time, queue_len)``
        #: before each event fires.  Left ``None`` in benchmark runs so
        #: the hot loop pays only one attribute check per event.
        self.event_hook: Callable[[float, int], None] | None = None
        #: Optional duck-typed profiler (see :class:`repro.obs.profile.
        #: Profiler`), installed by ``Profiler.install``.  When set, every
        #: event runs inside a named profiler frame credited with the
        #: clock advance since the previous event; when ``None`` (the
        #: default) the hot loop pays one ``is None`` branch.
        self.profile = None

    def schedule(self, delay: float, action: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``action(*args)`` to fire ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, action, *args)

    def schedule_at(self, time: float, action: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``action(*args)`` to fire at absolute clock time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self.now})"
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
