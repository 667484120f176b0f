"""A bounded FIFO table that keeps its rows as columns.

The flat :class:`~repro.runtime.trace.Trace` and the span
:class:`~repro.obs.spans.Tracer` of a long-running daemon each hold a
window of up to ``capacity`` rows.  Kept as one tuple (or object) per row,
every number in a row is a boxed object of its own and every row pays an
object header; :class:`ColumnRing` keeps the same rows with no per-row
object at all.  Rows live in fixed-size *chunks*: one :mod:`array` per
numeric column (times as ``'d'``, ids as ``'q'``, unboxed), one list per
reference column, and one list of variable-width references (a row's
detail values, in order) that each user of the ring indexes its own way.
Whoever reads a row builds the object it stands for.

Rows are numbered from 0 in append order.  Once ``capacity`` rows are
held each append evicts the oldest; a chunk is released once all its rows
are evicted and a new chunk starts, so a ring holds at most two chunks
beyond its capacity.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Iterator

__all__ = ["ColumnRing"]

#: Rows per chunk (fewer when the capacity is smaller).
CHUNK = 512


class ColumnRing:
    """Rows of typed columns, oldest evicted first.

    ``typecodes`` has one character per column: an :mod:`array` typecode
    for a numeric column, ``"O"`` for a column of references.  A chunk is
    a list of those columns with the chunk's variable-width value list
    last.  :meth:`claim` hands out the chunk and slot of a new row, which
    the caller fills; :meth:`segments` and :meth:`locate` find retained
    rows again.  Eviction costs an append nothing: the window is the last
    ``capacity`` rows, and the chunks wholly before it are released when
    the next chunk is started.
    """

    __slots__ = ("typecodes", "capacity", "next", "_size", "_base", "_chunks",
                 "_tail")

    def __init__(self, typecodes: str, capacity: int | None = None):
        self.typecodes = typecodes
        self.capacity = capacity
        #: Index the next row gets (= the number ever appended).
        self.next = 0
        self._size = CHUNK if capacity is None else max(1, min(CHUNK, capacity))
        #: Index of the first row of the oldest chunk held.
        self._base = 0
        self._chunks: deque[list] = deque()
        self._tail: list = []

    @property
    def first(self) -> int:
        """Index of the oldest retained row (= the number evicted)."""
        if self.capacity is None or self.next <= self.capacity:
            return 0
        return self.next - self.capacity

    def __len__(self) -> int:
        return self.next - self.first

    def claim(self) -> tuple[list, int]:
        """The chunk and slot of a new row at the end (evicting the oldest
        row when the ring is full).  The slot holds blanks until the caller
        writes its columns."""
        index = self.next
        self.next = index + 1
        slot = index % self._size
        if slot:
            return self._tail, slot
        return self._start_chunk(), 0

    def _start_chunk(self) -> list:
        size = self._size
        tail = self._tail = [[None] * size if code == "O" else array(code, [0]) * size
                             for code in self.typecodes]
        tail.append([])
        chunks = self._chunks
        chunks.append(tail)
        first = self.first
        while self._base + size <= first:  # wholly evicted
            chunks.popleft()
            self._base += size
        return tail

    def locate(self, index: int) -> tuple[list, int] | None:
        """The chunk and slot of row ``index``, or ``None`` once evicted."""
        capacity, end = self.capacity, self.next
        if not 0 <= index < end or capacity is not None and end - index > capacity:
            return None
        size = self._size
        return self._chunks[(index - self._base) // size], index % size

    def segments(self) -> Iterator[tuple[list, int, int, int]]:
        """``(chunk, lo, hi, index)`` per chunk, oldest first: slots
        ``lo``..``hi - 1`` of ``chunk`` are the retained rows ``index``..."""
        first, end, size = self.first, self.next, self._size
        start = self._base
        for chunk in self._chunks:
            lo, hi = max(first - start, 0), min(end - start, size)
            if lo < hi:
                yield chunk, lo, hi, start + lo
            start += size
