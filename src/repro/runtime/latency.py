"""Latency models: how long a message takes from ``send`` to ``_arrive``.

The same strategy objects drive both substrates: under simulation the
delay advances virtual time deterministically; under the asyncio runtime
it becomes a real interval (``FixedLatency(0.0)`` for an undelayed
in-process service, a positive value to rehearse WAN pacing).

Constructor parameters are validated eagerly with :class:`ParameterError`
(a ``ValueError``): a negative or inverted latency window would otherwise
surface far downstream as a "cannot schedule into the past" kernel error
— or, worse, as silently mis-ordered deliveries.
"""

from __future__ import annotations

import math

from repro.errors import ParameterError

__all__ = ["FixedLatency", "LatencyModel", "UniformLatency"]


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")


class LatencyModel:
    """Strategy object producing a delivery delay for each message."""

    def delay(self, src: str, dst: str) -> float:  # pragma: no cover - interface
        raise NotImplementedError


class FixedLatency(LatencyModel):
    """Every message takes exactly ``latency`` time units."""

    def __init__(self, latency: float = 1.0):
        _check_finite("latency", latency)
        if latency < 0:
            raise ParameterError(
                f"latency must be non-negative, got {latency!r}"
            )
        self.latency = latency

    def delay(self, src: str, dst: str) -> float:
        return self.latency


class UniformLatency(LatencyModel):
    """Delivery delay drawn uniformly from ``[low, high]`` per message."""

    def __init__(self, rng, low: float = 0.5, high: float = 1.5):
        _check_finite("low", low)
        _check_finite("high", high)
        if low < 0:
            raise ParameterError(
                f"latency lower bound must be non-negative, got {low!r}"
            )
        if low > high:
            raise ParameterError(
                f"inverted latency bounds: low={low!r} > high={high!r}"
            )
        self._rng = rng
        self.low = low
        self.high = high

    def delay(self, src: str, dst: str) -> float:
        return self._rng.uniform(self.low, self.high)
