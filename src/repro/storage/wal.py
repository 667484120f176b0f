"""Append-only write-ahead log providing simulated durability.

The paper's WFDB "provides the persistence necessary to facilitate forward
recovery in case of failure of the workflow engine", and each distributed
agent keeps an agent database "in which they store all relevant persistent
information".  In the simulation, durability means *surviving a node
crash*: a crashed node loses its in-memory tables but keeps its WAL, and
``on_recover`` replays the log to rebuild them.

Records are ``(lsn, kind, payload)``; payloads must be plain dict/list/
scalar structures (the stores only write snapshots, never live objects).
The log keeps each record as the bytes its checksum covers — the marshal
form of ``(lsn, kind, payload)`` — and its crc32, not the payload object:
a file backend would hold the same, a caller that mutates a dict after
the append changes nothing logged, and the garbage collector has no
logged payload left to walk.  Iteration and replay decode each record
into a :class:`WalRecord` view whose payload is the reader's own copy.
Only a record marshal refuses keeps its payload object (see
:func:`memory_checksum`).

The log holds what is live, not what ever happened: an instance's records
form a chain (:class:`InstanceChains` — one full snapshot, then one delta
per persist) that leaves the log when the instance is archived or purged.
"""

from __future__ import annotations

import copy
import marshal
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.errors import StorageError
from repro.obs.logging import canonical_json
from repro.storage.tables import (
    InstanceState,
    InstanceStatus,
    apply_delta,
    snapshot_delta,
)

__all__ = [
    "InstanceChains", "WalRecord", "WriteAheadLog", "memory_checksum",
]


def memory_checksum(
    lsn: int, kind: str, payload: Mapping[str, Any]
) -> tuple[bytes | None, int]:
    """The stored form of one in-memory record and its checksum.

    The form is ``marshal.dumps((lsn, kind, payload), 0)`` and the checksum
    its crc32; the log keeps the form, and :meth:`WriteAheadLog.verify`
    recomputes the crc32 over it.  Format version 0 encodes content and
    order only — later versions flag interned strings and write
    refcount-dependent back-references, so ``sys.intern`` or one more
    holder of a sub-list could change a record's bytes without changing
    the record.  A payload marshal refuses (an enum member, a ``Decimal``)
    has no stored form (``None``): it is checksummed over its canonical
    JSON form instead (``default=str``), which also depends only on
    content, and the log keeps the payload object itself.  These bytes
    never leave the process; the on-disk service log has its own pinned
    convention (``repro.service.durability``).
    """
    try:
        form = marshal.dumps((lsn, kind, payload), 0)
    except ValueError:
        return None, zlib.crc32(canonical_json([lsn, kind, payload]).encode("utf-8"))
    return form, zlib.crc32(form)


@dataclass(frozen=True, slots=True)
class WalRecord:
    """One log record as a reader sees it: a view decoded from the stored
    form on iteration and replay, so each view's payload is its own."""

    lsn: int
    kind: str
    payload: Mapping[str, Any]
    checksum: int = 0


def _view(stored: tuple[bytes, int] | WalRecord) -> WalRecord:
    if type(stored) is WalRecord:
        # A fallback record: hand out a copy, never the logged object.
        return WalRecord(stored.lsn, stored.kind, copy.deepcopy(stored.payload),
                         stored.checksum)
    form, checksum = stored
    lsn, kind, payload = marshal.loads(form)
    return WalRecord(lsn, kind, payload, checksum)


def _check(lsn: int, stored: tuple[bytes, int] | WalRecord) -> None:
    if type(stored) is WalRecord:
        intact = stored.checksum == memory_checksum(
            stored.lsn, stored.kind, stored.payload)[1]
    else:
        form, checksum = stored
        intact = checksum == zlib.crc32(form)
    if not intact:
        raise StorageError(
            f"WAL corruption detected at lsn {lsn}: checksum mismatch"
        )


class WriteAheadLog:
    """A durable, append-only sequence of records; records leave it by
    lsn when their chain is retired."""

    def __init__(self) -> None:
        #: by lsn, in lsn order: ``(form, checksum)``, or for a payload
        #: marshal refuses the :class:`WalRecord` holding the appended object
        self._records: dict[int, tuple[bytes, int] | WalRecord] = {}
        self._next_lsn = 1
        self.appends = 0

    def append(self, kind: str, payload: Mapping[str, Any]) -> int:
        """Log ``payload`` under ``kind``; returns the record's lsn."""
        if not isinstance(payload, dict):
            raise StorageError(
                f"WAL payload must be a dict, got {type(payload).__name__}"
            )
        lsn = self._next_lsn
        stored = memory_checksum(lsn, kind, payload)
        if stored[0] is None:  # marshal refused: the object is the record
            stored = WalRecord(lsn, kind, payload, stored[1])
        self._records[lsn] = stored
        self._next_lsn = lsn + 1
        self.appends += 1
        return lsn

    def verify(self) -> int:
        """Check every record's checksum; returns the count verified.

        Raises :class:`StorageError` naming the first corrupt LSN — a
        loud failure instead of the silent truncation / partial state a
        recovery from a damaged log would otherwise produce.
        """
        for lsn, stored in self._records.items():
            _check(lsn, stored)
        return len(self._records)

    def replay(self, handlers: Mapping[str, Callable[[WalRecord], None]]) -> int:
        """Replay all records through ``handlers`` (keyed by record kind).

        Each record's checksum is checked before its handler is given the
        :class:`WalRecord` (chain links are checked by lsn).  A kind with
        no handler raises: a recovery that silently skips records is a
        corruption vector.  Returns the number of records replayed.
        """
        for lsn, stored in self._records.items():
            _check(lsn, stored)
            record = _view(stored)
            handler = handlers.get(record.kind)
            if handler is None:
                raise StorageError(f"no WAL replay handler for kind {record.kind!r}")
            handler(record)
        return len(self._records)

    def retire(self, lsns: Iterable[int]) -> int:
        """Drop the records with these lsns; returns the number dropped."""
        dropped = 0
        for lsn in lsns:
            if self._records.pop(lsn, None) is not None:
                dropped += 1
        return dropped

    def load(self, other: "WriteAheadLog") -> None:
        """Hold the records ``other`` holds and append where it would — a
        fresh process reading the node's disk; a store then ``recover()``s."""
        self._records = dict(other._records)
        self._next_lsn = other._next_lsn

    def last_lsn(self) -> int:
        return next(reversed(self._records), 0)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[WalRecord]:
        return map(_view, self._records.values())


class InstanceChains:
    """The per-instance record chains of one log.

    The first persist of an instance appends its full snapshot (the chain's
    head, kind ``head_kind``); every later persist appends one ``delta_kind``
    record holding ``instance_id``, ``base_lsn`` — the lsn of the chain
    record it extends — and the :func:`~repro.storage.tables.
    snapshot_delta` against the snapshot last logged.  That snapshot (the
    *base*) is kept beside the chain's lsns and goes when the chain is
    retired.  Recovery folds head + deltas in lsn order and re-seeds the
    bases from the folded state, never from the crashed node's memory.
    """

    def __init__(self, wal: WriteAheadLog, head_kind: str, delta_kind: str):
        self._wal = wal
        self._head_kind = head_kind
        self._delta_kind = delta_kind
        #: instance id -> [base snapshot, lsns of the chain's records]
        self._chains: dict[str, list] = {}

    def persist(self, state: InstanceState) -> None:
        """One append: the head snapshot, or what changed since the last."""
        snap = state.snapshot()
        chain = self._chains.get(state.instance_id)
        if chain is None:
            self._chains[state.instance_id] = [
                snap, [self._wal.append(self._head_kind, snap)]
            ]
            return
        base, lsns = chain
        delta = snapshot_delta(base, snap)
        delta["instance_id"] = state.instance_id
        delta["base_lsn"] = lsns[-1]
        lsns.append(self._wal.append(self._delta_kind, delta))
        chain[0] = snap

    def retire(self, instance_id: str, keep_status_row: bool = False) -> None:
        """Take an instance's chain (and base) out of the log.

        ``keep_status_row`` leaves the chain's last record that carries a
        status — the terminal record an archived instance's summary row
        is read back from (see :meth:`replay_handlers`).
        """
        chain = self._chains.pop(instance_id, None)
        if chain is None:
            return
        lsns = chain[1]
        if keep_status_row:
            for index in reversed(range(len(lsns))):
                if "status" in _view(self._wal._records[lsns[index]]).payload:
                    del lsns[index]
                    break
        self._wal.retire(lsns)

    def replay_handlers(
        self, archived: dict[str, InstanceStatus] | None = None
    ) -> dict[str, Callable[[WalRecord], None]]:
        """Handlers (for :meth:`WriteAheadLog.replay`) that rebuild the chains.

        A delta must extend the record its chain currently ends with; one
        that does not — a record is missing — raises :class:`StorageError`
        rather than folding onto the wrong base.  The one legal base-less
        delta is the terminal-status row :meth:`retire` kept: with
        ``archived`` given, its status is recorded there and no chain (no
        instance table) is restored.
        """
        self._chains.clear()

        def on_head(record: WalRecord) -> None:
            # The view's payload is a private copy: the fold may write to it.
            self._chains[record.payload["instance_id"]] = [record.payload, [record.lsn]]

        def on_delta(record: WalRecord) -> None:
            payload = record.payload
            instance_id = payload["instance_id"]
            chain = self._chains.get(instance_id)
            if chain is None:
                status = InstanceStatus(payload.get("status", "running"))
                if archived is None or status is InstanceStatus.RUNNING:
                    raise StorageError(
                        f"WAL chain broken at lsn {record.lsn}: delta of "
                        f"instance {instance_id!r} extends lsn "
                        f"{payload['base_lsn']}, which is not in the log"
                    )
                archived[instance_id] = status
                return
            base, lsns = chain
            if payload["base_lsn"] != lsns[-1]:
                raise StorageError(
                    f"WAL chain broken at lsn {record.lsn}: delta of instance "
                    f"{instance_id!r} extends lsn {payload['base_lsn']} but "
                    f"the chain ends at lsn {lsns[-1]}"
                )
            apply_delta(base, payload)
            lsns.append(record.lsn)

        return {self._head_kind: on_head, self._delta_kind: on_delta}

    def snapshots(self) -> Iterator[tuple[str, Mapping[str, Any]]]:
        """``(instance id, snapshot last logged)`` per chain, oldest first."""
        return ((iid, chain[0]) for iid, chain in self._chains.items())
