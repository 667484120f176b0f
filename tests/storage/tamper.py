"""Bit rot behind the checksum's back, for the engine log's corruption tests.

The log keeps each record as ``(form, checksum)``: the marshal bytes its
checksum covers.  :func:`corrupt` rewrites those bytes and leaves the
checksum alone, the way a damaged medium would.
"""

from __future__ import annotations

import marshal

from repro.storage.wal import WriteAheadLog

__all__ = ["corrupt"]


def corrupt(wal: WriteAheadLog, lsn: int, /, **fields) -> None:
    """Make the record at ``lsn`` decode with ``fields`` (any of ``lsn``,
    ``kind``, ``payload``) replaced, keeping the checksum it was appended
    with."""
    form, checksum = wal._records[lsn]
    values = dict(zip(("lsn", "kind", "payload"), marshal.loads(form)))
    values.update(fields)
    wal._records[lsn] = (
        marshal.dumps((values["lsn"], values["kind"], values["payload"]), 0),
        checksum,
    )
