"""Seeded, named random streams for reproducible simulations.

Every stochastic decision in the simulator (step failures, latencies,
workload arrivals, conflict draws) pulls from a *named* stream derived
from one master seed.  Named streams decouple the consumers: adding a new
random decision to one subsystem does not perturb the draws seen by any
other subsystem, so experiment results stay comparable across versions.
"""

from __future__ import annotations

import random
import zlib
from typing import Iterable

__all__ = ["SimRandom"]


class SimRandom:
    """A factory of deterministic, independently-seeded random streams.

    Example::

        rng = SimRandom(seed=42)
        failures = rng.stream("failures")
        latency = rng.stream("latency")
        # the two streams never interleave draws
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        derived = (self.seed * 0x9E3779B1 + zlib.crc32(name.encode("utf-8"))) & 0xFFFFFFFF
        stream = random.Random(derived)
        self._streams[name] = stream
        return stream

    def retire(self, names: Iterable[str]) -> None:
        """Forget the named streams; their consumer has drawn its last.

        A stream asked for again after this restarts from its seed.
        """
        for name in names:
            self._streams.pop(name, None)

    def spawn(self, name: str) -> "SimRandom":
        """Derive a child :class:`SimRandom` with an independent seed space."""
        derived = (self.seed * 0x85EBCA6B + zlib.crc32(name.encode("utf-8"))) & 0xFFFFFFFF
        return SimRandom(derived)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimRandom seed={self.seed} streams={sorted(self._streams)}>"
