"""Workflow events and the per-instance event table.

Events use the compact token form of the sample workflow packet in the
paper's Figure 7 (``WF1.S  S1.D  S2.D``): ``<scope>.<suffix>`` where the
scope is a step name or ``WF`` and the suffix is one of

====== =====================================
``S``  started (``workflow.start`` for WF)
``D``  done (``step.done`` / ``workflow.done``)
``F``  failed (``step.fail``)
``C``  compensated (``step.compensate`` applied)
``A``  aborted (``workflow.abort``)
====== =====================================

Coordination events injected by the ``AddEvent()`` primitive live in the
``EXT`` scope (``EXT.RO.order1.S3``).

The :class:`EventTable` stores occurrences with their times and supports
the *invalidation* operation central to the paper's recovery scheme: "as
part of the rollback, events corresponding to the completion of steps
which are later rolled back have to be invalidated".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.errors import RuleError

__all__ = [
    "EventOccurrence",
    "EventTable",
    "WF_ABORT",
    "WF_DONE",
    "WF_START",
    "external_event",
    "is_step_done",
    "step_compensated",
    "step_done",
    "step_fail",
    "step_of_token",
]

WF_START = "WF.S"
WF_DONE = "WF.D"
WF_ABORT = "WF.A"


def step_done(step: str) -> str:
    """Token for ``step.done``."""
    return f"{step}.D"


def step_fail(step: str) -> str:
    """Token for ``step.fail``."""
    return f"{step}.F"


def step_compensated(step: str) -> str:
    """Token for a completed compensation of a step."""
    return f"{step}.C"


def external_event(name: str) -> str:
    """Token for an ``AddEvent()``-injected coordination event."""
    return f"EXT.{name}"


def is_step_done(token: str) -> bool:
    return token.endswith(".D") and not token.startswith("WF.") and not token.startswith("EXT.")


def step_of_token(token: str) -> str:
    """The scope (step name or ``WF``/``EXT``) of a token."""
    scope, sep, __ = token.rpartition(".")
    if not sep:
        raise RuleError(f"malformed event token {token!r}")
    return scope


@dataclass(slots=True)
class EventOccurrence:
    """One (possibly invalidated) occurrence of an event.

    ``round`` is the instance's *invalidation round* at posting time
    (bumped by every rollback and loop re-entry).  Invalidations carried by
    messages name a round and only kill occurrences from earlier rounds,
    so a re-established event is never clobbered by a stale cutoff — even
    when both happen at the same simulated instant.
    """

    token: str
    time: float
    seq: int
    valid: bool = True
    round: int = 0


class EventTable:
    """Per-instance table of event occurrences.

    Re-posting a token (e.g. a step re-executed after rollback) replaces
    the previous occurrence.  ``merge`` folds in the event set carried by
    an arriving workflow packet (distributed control), keeping the earliest
    time for already-known valid events.
    """

    __slots__ = ("_events", "_seq", "_listeners")

    def __init__(self) -> None:
        self._events: dict[str, EventOccurrence] = {}
        self._seq = 0
        self._listeners: tuple = ()

    def subscribe(self, listener) -> None:
        """Register ``listener(token, valid)`` for validity transitions.

        The listener fires exactly when a token flips between valid and
        invalid (never on a re-post of an already-valid token), so
        subscribers can maintain incremental state — the rule engine's
        token→rule index counts on the transitions strictly alternating.
        """
        self._listeners += (listener,)

    def _notify(self, token: str, valid: bool) -> None:
        for listener in self._listeners:
            listener(token, valid)

    def post(self, token: str, time: float, round: int = 0) -> EventOccurrence:
        """Record (or re-record, revalidating) an event occurrence."""
        if "." not in token:
            raise RuleError(f"malformed event token {token!r}")
        self._seq += 1
        existing = self._events.get(token)
        newly_valid = existing is None or not existing.valid
        occurrence = EventOccurrence(
            token=token, time=time, seq=self._seq, valid=True, round=round
        )
        self._events[token] = occurrence
        if newly_valid and self._listeners:
            self._notify(token, True)
        return occurrence

    def invalidate(self, tokens: Iterable[str]) -> list[str]:
        """Invalidate the given tokens; returns those actually invalidated."""
        hit = []
        for token in tokens:
            occurrence = self._events.get(token)
            if occurrence is not None and occurrence.valid:
                occurrence.valid = False
                hit.append(token)
                if self._listeners:
                    self._notify(token, False)
        return hit

    def invalidate_before_round(self, token: str, round: int) -> bool:
        """Invalidate ``token`` only if its occurrence belongs to an
        invalidation round strictly before ``round`` — a re-established
        occurrence survives stale cutoffs carried by late messages."""
        occurrence = self._events.get(token)
        if occurrence is not None and occurrence.valid and occurrence.round < round:
            occurrence.valid = False
            if self._listeners:
                self._notify(token, False)
            return True
        return False

    def is_valid(self, token: str) -> bool:
        occurrence = self._events.get(token)
        return occurrence is not None and occurrence.valid

    def occurrence(self, token: str) -> EventOccurrence | None:
        return self._events.get(token)

    def valid_tokens(self) -> frozenset[str]:
        return frozenset(t for t, o in self._events.items() if o.valid)

    @staticmethod
    def _normalize(value) -> tuple[float, int]:
        """Accept a bare time or a ``[time, round]`` pair."""
        if isinstance(value, (int, float)):
            return float(value), 0
        time, round = value
        return float(time), int(round)

    def merge(self, tokens: Mapping[str, object], time: float) -> list[str]:
        """Fold packet-carried events in; returns newly-valid tokens.

        A carried occurrence replaces the local one when the local one is
        invalid or belongs to an older round (the carried one is the
        re-established version).
        """
        events = self._events
        normalize = self._normalize
        # Only an occurrence that replaces the local one takes a ``seq``, so
        # only those are ordered: by (time, round), then token.
        replacing = []
        for token, value in tokens.items():
            stamp = normalize(value)
            existing = events.get(token)
            if existing is None or (
                stamp[1] > existing.round if existing.valid else stamp[1] >= existing.round
            ):
                replacing.append((stamp, token, existing is None or not existing.valid))
        replacing.sort()
        added = []
        for (original_time, round), token, newly_valid in replacing:
            self._seq += 1
            events[token] = EventOccurrence(
                token=token, time=original_time, seq=self._seq, valid=True,
                round=round,
            )
            if newly_valid:
                added.append(token)
                if self._listeners:
                    self._notify(token, True)
        return added

    def export(self) -> dict[str, float]:
        """Valid tokens with their occurrence times."""
        return {t: o.time for t, o in self._events.items() if o.valid}

    def export_versioned(self) -> dict[str, list]:
        """Valid tokens as ``[time, round]`` pairs (packet payload form)."""
        return {t: [o.time, o.round] for t, o in self._events.items() if o.valid}

    def __contains__(self, token: str) -> bool:
        return self.is_valid(token)

    def __iter__(self) -> Iterator[str]:
        return iter(self.valid_tokens())

    def __len__(self) -> int:
        return sum(1 for o in self._events.values() if o.valid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EventTable {sorted(self.valid_tokens())}>"
