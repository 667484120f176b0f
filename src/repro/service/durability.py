"""Crash-durable service state for ``repro serve --state-dir``.

The in-memory engine stores (:mod:`repro.storage`) give the *simulated*
nodes durability across injected crashes; this module gives the real
daemon durability across ``kill -9``.  There is one record layer: a
:class:`ServiceLog` holds a :class:`repro.storage.wal.WriteAheadLog`
(``log.wal``) that assigns each record's lsn, checks its payload, keeps
it and replays it, exactly as in an engine store.  The file adds lines:
each record is one JSON line checksummed by :func:`record_checksum`, this
file's pinned canonical-JSON convention, with group commit — ``append``
encodes and buffers, ``flush`` writes every buffered line and fsyncs
once, so one submission of N instances costs one disk sync.

Record kinds written by :class:`~repro.service.core.WorkflowService`:

``document``
    One installed workflow document, verbatim (``laws`` source text or a
    ``schema`` JSON payload).  Replayed first on recovery so every
    workflow class exists before instances are re-driven.
``submit``
    One acknowledged instance (``instance``, ``workflow``, ``inputs``,
    optional ``deadline``).  Flushed *before* the HTTP response, so an
    acknowledged submission is always durable.
``outcome``
    One terminal instance outcome (``instance``, ``status``,
    ``outputs``, ``finished_at``), appended the moment the engine
    reports it and flushed before anything shows it: no status record
    or stream event ever reports an outcome that is not on disk (the
    instance's stream events from the outcome on wait for that flush).
``redrive``
    Recovery re-drove an in-flight instance under a fresh id: one record
    (``original``, ``replacement``, ``workflow``, ``inputs``,
    ``deadline``) that is both the replacement's submission and the
    chain link, so no cut can leave one without the other.  The original
    id is permanently retired; queries for it resolve through the
    redrive chain.  Older logs wrote a ``submit`` + ``redrive`` pair
    (and ``fragment`` records); both still replay.

Torn tails are expected: ``kill -9`` can land mid-``write``.  A record
counts only with its newline.  On load, an unterminated final line, or
a final line that fails to parse or checksum, is truncated and reported
via :attr:`ServiceLog.torn_tail` — its batch's fsync never returned, so
nothing in it was acknowledged; a *non*-final corrupt record, or a gap
in the lsns, raises :class:`~repro.errors.StorageError` (silent mid-log
corruption is a recovery hazard, matching the engine log's ``verify``
contract).

Recovery semantics (documented honestly): committed outcomes are
**at-most-once** — a finished instance is never re-run, and a re-driven
instance gets a fresh id, so no instance id ever produces two outcomes.
Execution of *in-flight* work is **at-least-once**: steps an instance
completed before the crash run again under the replacement id (the
engines' OCR machinery handles intra-run crashes; a full-process kill
loses the engines' in-memory stores, so the service re-submits).
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.errors import StorageError
from repro.storage.wal import WalRecord, WriteAheadLog, canonical_json

__all__ = ["ServiceLog", "ServiceState", "record_checksum"]

_LOG_NAME = "service.wal"


def _encode(lsn: int, kind: str, payload: Mapping[str, Any]) -> tuple[int, str]:
    """A record's checksum and its log line, from one encoding of the payload.

    The crc covers ``[lsn, kind, payload]`` and the line is ``{"crc", "kind",
    "lsn", "payload"}``, both exactly as ``json.dumps(..., sort_keys=True,
    default=str)`` would write them; the payload's text is spliced into each.
    """
    kind_json, payload_json = canonical_json(kind), canonical_json(payload)
    crc = zlib.crc32(
        ("[%d, %s, %s]" % (lsn, kind_json, payload_json)).encode("utf-8"))
    return crc, '{"crc": %d, "kind": %s, "lsn": %d, "payload": %s}\n' % (
        crc, kind_json, lsn, payload_json)


def record_checksum(lsn: int, kind: str, payload: Mapping[str, Any]) -> int:
    """Content checksum of one ``service.wal`` record (crc32 over the
    canonical JSON form of ``[lsn, kind, payload]``).

    Files on disk carry these values, so the form is pinned: sorted keys,
    and ``default=str`` for what JSON cannot hold (enum members).
    """
    return _encode(lsn, kind, payload)[0]


class ServiceLog:
    """A :class:`WriteAheadLog` kept on disk: checksummed JSON lines,
    group-flushed, with a torn tail cut away on load."""

    def __init__(self, state_dir: str | Path):
        directory = Path(state_dir)
        directory.mkdir(parents=True, exist_ok=True)
        self.path = directory / _LOG_NAME
        #: The records: lsns, payload check, retention, iteration, replay.
        #: Its ``appends`` counts this process's appends, not the load.
        self.wal = WriteAheadLog()
        self._buffer: list[str] = []  # encoded lines awaiting flush
        #: True when load dropped a truncated final record (torn write).
        self.torn_tail = False
        self.flushes = 0
        if self.path.exists():
            self.wal.load(self._load())
        self._fh = open(self.path, "ab")

    # -- recovery load -----------------------------------------------------

    def _load(self) -> WriteAheadLog:
        """The records on disk, as a log; cuts a torn tail off the file."""
        lines = self.path.read_bytes().split(b"\n")
        final = max((i for i, line in enumerate(lines) if line.strip()),
                    default=-1)
        disk = WriteAheadLog()
        start = valid_end = 0
        for index, line in enumerate(lines):
            end = start + len(line) + 1
            if line.strip():
                # What follows the last newline is never a record.
                parsed = (None if index == len(lines) - 1
                          else self._parse_line(line))
                if parsed is None:
                    if index != final:
                        raise StorageError(
                            f"service log corruption in {self.path} at byte "
                            f"{start}: unreadable record before end of log"
                        )
                    self.torn_tail = True
                    with open(self.path, "r+b") as fh:
                        fh.truncate(valid_end)
                    break
                lsn, kind, payload = parsed
                expected = disk.append(kind, payload)
                if lsn != expected:
                    raise StorageError(
                        f"service log {self.path} skips from lsn "
                        f"{expected} to {lsn}"
                    )
                valid_end = end
            start = end
        return disk

    @staticmethod
    def _parse_line(line: bytes) -> tuple[int, str, Any] | None:
        try:
            doc = json.loads(line)
            lsn, kind, payload = int(doc["lsn"]), str(doc["kind"]), doc["payload"]
            crc = int(doc["crc"])
        except (ValueError, KeyError, TypeError):
            return None
        if crc != record_checksum(lsn, kind, payload):
            return None
        return lsn, kind, payload

    # -- appending ---------------------------------------------------------

    def append(self, kind: str, payload: Mapping[str, Any]) -> int:
        """Log one record and buffer its line; returns its lsn.  Durable
        after :meth:`flush`."""
        lsn = self.wal.append(kind, payload)
        self._buffer.append(_encode(lsn, kind, payload)[1])
        return lsn

    def flush(self) -> int:
        """Group commit: write every buffered record, one fsync.  Returns
        the number of records made durable."""
        if not self._buffer:
            return 0
        self._fh.write("".join(self._buffer).encode("utf-8"))
        self._fh.flush()
        os.fsync(self._fh.fileno())
        flushed = len(self._buffer)
        self._buffer.clear()
        self.flushes += 1
        return flushed

    def records(self) -> tuple[WalRecord, ...]:
        return tuple(self.wal)

    def close(self) -> None:
        self.flush()
        self._fh.close()


@dataclass
class ServiceState:
    """The replayed view of one :class:`ServiceLog`: what the recovery boot
    reads, and what the service then answers queries for old ids from."""

    #: Installed documents, install order: ``{"laws": text}`` or
    #: ``{"schema": payload}``.
    documents: list[dict[str, Any]] = field(default_factory=list)
    #: instance id -> its ``submit`` payload.
    submissions: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: instance id -> its ``outcome`` payload.
    outcomes: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: original id -> replacement id (one hop; chains span incarnations).
    redrives: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_records(cls, records: Iterable[WalRecord]) -> "ServiceState":
        state = cls()
        for record in records:
            state.apply(record.kind, record.payload)
        return state

    def apply(self, kind: str, payload: Mapping[str, Any]) -> None:
        """Fold one record into the view, as a boot replaying it would."""
        payload = dict(payload)
        if kind == "document":
            self.documents.append(payload)
        elif kind == "submit":
            self.submissions[payload["instance"]] = payload
        elif kind == "outcome":
            self.outcomes[payload["instance"]] = payload
        elif kind == "redrive":
            replacement = payload["replacement"]
            self.redrives[payload["original"]] = replacement
            if "workflow" in payload:  # one record per re-drive, not a pair
                self.submissions[replacement] = {
                    "instance": replacement, "workflow": payload["workflow"],
                    "inputs": payload["inputs"], "deadline": payload["deadline"],
                }
        elif kind == "fragment":
            pass  # written by older daemons, read by nothing
        else:
            raise StorageError(f"unknown service log record kind {kind!r}")

    def resolve(self, instance_id: str) -> str:
        """Follow the redrive chain to the id currently carrying the work."""
        seen = set()
        while instance_id in self.redrives:
            if instance_id in seen:  # pragma: no cover - defensive
                raise StorageError(
                    f"redrive cycle involving {instance_id!r}"
                )
            seen.add(instance_id)
            instance_id = self.redrives[instance_id]
        return instance_id

    def inflight(self) -> list[dict[str, Any]]:
        """Submissions needing a re-drive: acknowledged, no outcome, not
        already superseded by a redrive.  Submission (log) order."""
        return [
            payload
            for iid, payload in self.submissions.items()
            if iid not in self.outcomes and iid not in self.redrives
        ]

    def max_instance_index(self) -> int:
        """Highest numeric suffix across every acknowledged instance id.

        Instance ids are ``<schema>-<n>`` with one global counter; the
        recovery boot reserves past this so post-crash ids never collide
        with acknowledged pre-crash ids.
        """
        best = 0
        for iid in self.submissions:
            __, __, tail = iid.rpartition("-")
            if tail.isdigit():
                best = max(best, int(tail))
        return best
