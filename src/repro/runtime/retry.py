"""Seeded retry/timeout/backoff policy shared by the engines.

Under fault injection (see :mod:`repro.runtime.faults`) the transport can
drop messages; :class:`RetryPolicy` decides when a dropped message is
retransmitted and when its per-message budget is exhausted.  The same
policy paces the central engine's step-retry watchdog, which re-dispatches
an in-flight step whose executor lost the work (agent crash) rather than
letting the instance wedge.

The jitter draw comes from the caller's seeded stream (the injector's
``"faults:retry"`` stream), so retry timing is as deterministic as every
other simulated decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import WorkloadError

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff with a per-message retry budget.

    ``backoff(attempt, rng)`` returns the delay before retransmission
    ``attempt`` (1-based: the first retransmission of a message is attempt
    1), or ``None`` once ``attempt`` exceeds ``budget`` — the message is
    then permanently lost and shows up in ``FaultInjector.lost``.
    """

    base_delay: float = 2.0
    factor: float = 2.0
    max_delay: float = 64.0
    jitter: float = 0.5
    budget: int = 12

    def __post_init__(self) -> None:
        if self.base_delay <= 0 or self.factor < 1.0 or self.max_delay <= 0:
            raise WorkloadError(
                f"invalid retry policy: base_delay={self.base_delay}, "
                f"factor={self.factor}, max_delay={self.max_delay}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise WorkloadError(f"jitter={self.jitter} must be in [0, 1]")
        if self.budget < 0:
            raise WorkloadError(f"budget={self.budget} must be >= 0")

    def backoff(self, attempt: int, rng: Any) -> float | None:
        """Delay before retransmission ``attempt``, or None when exhausted."""
        if attempt > self.budget:
            return None
        raw = min(self.base_delay * self.factor ** (attempt - 1), self.max_delay)
        if self.jitter:
            raw += raw * self.jitter * rng.random()
        return raw

    def worst_case_total(self) -> float:
        """Upper bound on the total retransmission window of one message."""
        total = 0.0
        for attempt in range(1, self.budget + 1):
            raw = min(self.base_delay * self.factor ** (attempt - 1), self.max_delay)
            total += raw * (1.0 + self.jitter)
        return total
