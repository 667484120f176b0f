"""The replicated timestamp mutex as it was before it forgot releases.

This is the differential oracle for :class:`repro.engines.parallel.
TimestampMutex`, kept verbatim: it never removes a released request, so
``_requests`` and ``_released`` grow with every instance a ``(spec,
key)`` has ever seen and ``holder()``/``waiting()`` scan all of them.
"""

from __future__ import annotations

from typing import Any


class TimestampMutex:
    """Replicated timestamp-ordered lock (Lamport mutual exclusion).

    Every engine applies the same request/release broadcasts; the holder is
    the earliest-stamped unreleased requester, so all replicas agree
    without a central lock manager.
    """

    def __init__(self) -> None:
        self._requests: list[tuple[Any, str, str]] = []  # (stamp, schema, inst)
        self._released: set[str] = set()

    def request(self, stamp: Any, schema: str, instance: str) -> None:
        if instance in self._released:
            # Re-acquisition (e.g. a region re-executed after rollback):
            # retire the old request so the new stamp takes effect.
            self._requests = [e for e in self._requests if e[2] != instance]
            self._released.discard(instance)
        if not any(inst == instance for __, __s, inst in self._requests):
            self._requests.append((stamp, schema, instance))
            self._requests.sort(key=lambda e: (e[0], e[2]))

    def release(self, instance: str) -> None:
        self._released.add(instance)

    def holder(self) -> tuple[str, str] | None:
        for __, schema, instance in self._requests:
            if instance not in self._released:
                return (schema, instance)
        return None

    def waiting(self) -> int:
        return sum(1 for __, __s, i in self._requests if i not in self._released)

