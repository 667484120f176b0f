"""The trivial executor: deferred work as plain clock callbacks.

:class:`ClockExecutor` satisfies :class:`repro.runtime.protocols.Executor`
by scheduling the callback directly on the runtime's clock — exactly what
nodes did before the runtime layer existed, so fixed-seed simulated
schedules stay byte-identical.  The asyncio backend replaces it with
:class:`repro.runtime.realtime.TaskExecutor`, which queues the same
callbacks on the wall clock with retry handling.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.runtime.protocols import Cancellable, Clock

__all__ = ["ClockExecutor"]


class ClockExecutor:
    """Run deferred work as a plain callback on the owning clock."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.submitted = 0

    def submit(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> Cancellable:
        """Schedule ``fn(*args)`` after ``delay`` units of service time."""
        self.submitted += 1
        return self.clock.schedule(delay, fn, *args)
