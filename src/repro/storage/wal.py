"""Append-only write-ahead log providing simulated durability.

The paper's WFDB "provides the persistence necessary to facilitate forward
recovery in case of failure of the workflow engine", and each distributed
agent keeps an agent database "in which they store all relevant persistent
information".  In the simulation, durability means *surviving a node
crash*: a crashed node loses its in-memory tables but keeps its WAL, and
``on_recover`` replays the log to rebuild them.

Records are ``(lsn, kind, payload)``; payloads must be plain dict/list/
scalar structures (the stores only write snapshots, never live objects).

The log holds what is live, not what ever happened: an instance's records
form a chain (:class:`InstanceChains` — one full snapshot, then one delta
per persist) that leaves the log when the instance is archived or purged.
"""

from __future__ import annotations

import json
import marshal
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.errors import StorageError
from repro.storage.tables import (
    InstanceState,
    InstanceStatus,
    apply_delta,
    copy_snapshot,
    snapshot_delta,
)

__all__ = ["InstanceChains", "WalRecord", "WriteAheadLog", "memory_checksum"]

#: The fallback form's encoder, built once: ``json.dumps`` with these
#: arguments constructs an identical encoder on every call.
_canonical = json.JSONEncoder(sort_keys=True, default=str).encode


def memory_checksum(lsn: int, kind: str, payload: Mapping[str, Any]) -> int:
    """Content checksum of one in-memory record: crc32 over its marshal form.

    Format version 0 encodes content and order only — later versions flag
    interned strings and write refcount-dependent back-references, so
    ``sys.intern`` or one more holder of a sub-list could change a record's
    bytes without changing the record.  A payload marshal refuses (an enum
    member, a ``Decimal``) is checksummed over its canonical JSON form
    instead (``default=str``), which also depends only on content.  These
    bytes never leave the process; the on-disk service log has its own
    pinned convention (``repro.service.durability``).
    """
    try:
        form = marshal.dumps((lsn, kind, payload), 0)
    except ValueError:
        form = _canonical([lsn, kind, payload]).encode("utf-8")
    return zlib.crc32(form)


@dataclass(frozen=True, slots=True)
class WalRecord:
    lsn: int
    kind: str
    payload: Mapping[str, Any]
    checksum: int = 0


def _check(record: WalRecord) -> None:
    if record.checksum != memory_checksum(record.lsn, record.kind, record.payload):
        raise StorageError(
            f"WAL corruption detected at lsn {record.lsn} "
            f"(kind {record.kind!r}): checksum mismatch"
        )


class WriteAheadLog:
    """A durable, append-only sequence of records; records leave it by
    checkpoint truncation or by lsn when their chain is retired."""

    #: Optional duck-typed profiler (see :class:`repro.obs.profile.
    #: Profiler`), set per-instance by ``Profiler.install``.  A class
    #: attribute so unprofiled logs pay one ``is None`` check per append.
    profile = None

    def __init__(self) -> None:
        self._records: dict[int, WalRecord] = {}  # by lsn, in lsn order
        self._next_lsn = 1
        self.appends = 0

    def append(self, kind: str, payload: Mapping[str, Any]) -> WalRecord:
        profile = self.profile
        if profile is not None:
            profile.push("wal.append")
        try:
            if not isinstance(payload, dict):
                raise StorageError(
                    f"WAL payload must be a dict, got {type(payload).__name__}"
                )
            lsn = self._next_lsn
            record = WalRecord(lsn=lsn, kind=kind, payload=payload,
                               checksum=memory_checksum(lsn, kind, payload))
            self._next_lsn += 1
            self._records[lsn] = record
            self.appends += 1
            return record
        finally:
            if profile is not None:
                profile.pop()

    def verify(self) -> int:
        """Check every record's checksum; returns the count verified.

        Raises :class:`StorageError` naming the first corrupt LSN — a
        loud failure instead of the silent truncation / partial state a
        recovery from a damaged log would otherwise produce.
        """
        for record in self._records.values():
            _check(record)
        return len(self._records)

    def replay(
        self,
        handlers: Mapping[str, Callable[[Any], None]],
        strict: bool = True,
        verify: bool = False,
        records: bool = False,
    ) -> int:
        """Replay all records through ``handlers`` (keyed by record kind).

        Returns the number of records replayed.  Unknown kinds raise when
        ``strict`` (a recovery that silently skips records is a corruption
        vector), otherwise they are ignored.  ``verify=True`` additionally
        checks each record's checksum before handing it to its handler.
        A handler is given the record's payload, or with ``records=True``
        the :class:`WalRecord` itself (chain links are checked by lsn).
        """
        profile = self.profile
        if profile is not None:
            profile.push("wal.replay")
        try:
            replayed = 0
            for record in self._records.values():
                if verify:
                    _check(record)
                handler = handlers.get(record.kind)
                if handler is None:
                    if strict:
                        raise StorageError(
                            f"no WAL replay handler for kind {record.kind!r}"
                        )
                    continue
                handler(record if records else record.payload)
                replayed += 1
            return replayed
        finally:
            if profile is not None:
                profile.pop()

    def checkpoint(self, keep_from_lsn: int) -> int:
        """Drop records with ``lsn < keep_from_lsn``; returns dropped count."""
        return self.retire([lsn for lsn in self._records if lsn < keep_from_lsn])

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
        return iter(self._records.values())


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
            record = self._wal.append(self._head_kind, snap)
            self._chains[state.instance_id] = [snap, [record.lsn]]
            return
        base, lsns = chain
        profile = self._wal.profile
        if profile is not None:
            profile.push("wal.delta")
        try:
            delta = snapshot_delta(base, snap)
        finally:
            if profile is not None:
                profile.pop()
        delta["instance_id"] = state.instance_id
        delta["base_lsn"] = lsns[-1]
        record = self._wal.append(self._delta_kind, delta)
        chain[0] = snap
        lsns.append(record.lsn)

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
                if "status" in self._wal._records[lsns[index]].payload:
                    del lsns[index]
                    break
        self._wal.retire(lsns)

    def replay_handlers(
        self, archived: dict[str, InstanceStatus] | None = None
    ) -> dict[str, Callable[[WalRecord], None]]:
        """Handlers (for ``replay(records=True)``) that rebuild the chains.

        A delta must extend the record its chain currently ends with; one
        that does not — a record is missing — raises :class:`StorageError`
        rather than folding onto the wrong base.  The one legal base-less
        delta is the terminal-status row :meth:`retire` kept: with
        ``archived`` given, its status is recorded there and no chain (no
        instance table) is restored.
        """
        self._chains.clear()

        def on_head(record: WalRecord) -> None:
            payload = record.payload
            self._chains[payload["instance_id"]] = [
                copy_snapshot(payload), [record.lsn]
            ]

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
