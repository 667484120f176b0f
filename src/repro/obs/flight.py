"""Per-node flight recorder: a bounded ring of recent transport events.

Full tracing is often disabled in benchmark runs, which is exactly when a
crash is hardest to diagnose.  The flight recorder keeps the last
:data:`FLIGHT_CAPACITY` send/receive events per node in a fixed-size ring
(O(1) per message: one 6-tuple, which becomes the event dict only in a
snapshot) and is snapshotted into the trace — via
:meth:`repro.runtime.trace.Trace.snapshot`, which bypasses the ``enabled``
flag — when the node crashes or a step fails.

The owning control system keeps one ring per node, keyed by node name,
whatever its ``trace`` switch: as the network's observer it notes each
physical message at both ends, and its ``node.crash`` and ``step.fail``
event views take the snapshots.
"""

from __future__ import annotations

from collections import deque

__all__ = ["FLIGHT_CAPACITY", "FlightRecorder"]

#: Transport events a node's ring keeps.
FLIGHT_CAPACITY = 64

#: Keys of a snapshot event, in the order :meth:`FlightRecorder.note`
#: takes (and the ring keeps) their values.
_EVENT_KEYS = ("time", "dir", "interface", "peer", "msg_id", "lamport")


class FlightRecorder:
    """Fixed-capacity ring of a node's recent transport events."""

    def __init__(self, capacity: int = FLIGHT_CAPACITY):
        self.capacity = capacity
        self._events: deque[tuple] = deque(maxlen=capacity)
        self.recorded = 0

    def note(
        self,
        time: float,
        direction: str,
        interface: str,
        peer: str,
        msg_id: int,
        lamport: int,
    ) -> None:
        """Append one transport event (evicting the oldest when full)."""
        self.recorded += 1
        self._events.append((time, direction, interface, peer, msg_id, lamport))

    def snapshot(self) -> list[dict]:
        """The retained window, oldest first (fresh dicts, safe to serialize)."""
        return [dict(zip(_EVENT_KEYS, event)) for event in self._events]

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FlightRecorder {len(self._events)}/{self.capacity} "
                f"recorded={self.recorded}>")
