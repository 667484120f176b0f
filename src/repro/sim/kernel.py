"""Deterministic discrete-event simulation kernel.

The CREW reproduction runs every workflow control architecture inside a
discrete-event simulation (DES).  The paper's evaluation reports *counts*
(physical messages per instance, load units per node) rather than
wall-clock times, so a DES reproduces the experiments exactly and
deterministically: the same seed always yields the same schedule, the same
failures, and the same counters.

The kernel is intentionally small: it drives the shared
:class:`~repro.runtime.eventqueue.EventQueue` — the one the wall clock
fires too — by popping its head and jumping ``now`` to the entry's time.
All higher layers (network, nodes, engines) are built on
:meth:`Simulator.schedule`.
"""

from __future__ import annotations

import heapq

from repro.errors import SimulationError
from repro.runtime.eventqueue import EventHandle, EventQueue

__all__ = ["EventHandle", "Simulator"]


class Simulator(EventQueue):
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

    def __init__(self) -> None:
        super().__init__()
        #: Current simulation time: the time of the last event fired.
        self.now = 0.0
        self._running = False

    def step(self) -> bool:
        """Fire the single next pending event.

        Returns ``True`` if an event fired, ``False`` if the queue is empty.
        Cancelled events are skipped silently.
        """
        self._prune_cancelled_head()
        if not self._queue:
            return False
        time, _, handle = heapq.heappop(self._queue)
        handle._owner = None  # detached: a late cancel no longer counts
        profile = self.profile
        if profile is not None:
            profile.begin_event(handle.action, time,
                                time - self.now, len(self._queue))
        self.now = time
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
                    self.now = until
                    break
                if self.step():
                    fired += 1
        finally:
            self._running = False
        return fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now:.3f} pending={self.pending}>"
