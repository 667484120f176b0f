"""In-memory span and count recorder for the traced benchmark run.

The traced run wraps the public callables at each layer boundary of the
program (see ``LAYER_BOUNDARIES`` in ``layers.py``) from the benchmark's
own files; nothing under ``src/`` is edited.  Each call becomes one span

    [name, start_ns, end_ns, self_ns, id, parent, request, weight]

where ``parent`` is the span that was current when this one started (the
span that caused it), ``request`` is the id of the outermost span still
running around it (shared by every span of one request), and ``self_ns``
is the duration minus the time covered by child spans that ran inside
it.  A callback the program scheduled from inside a span
(``loop.call_later``) runs later in a copy of that context: its span
keeps the causal ``parent`` link but starts a request of its own and no
longer subtracts from the finished parent's self time.

Times are ``time.monotonic_ns()`` (CLOCK_MONOTONIC), which is shared by
every process on the machine, so the load generator can cut the daemon's
spans to its own timed window.  Spans stay in memory and are written
once, when the traced process exits.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
import json
import time
from collections import Counter
from typing import Any, Callable

_now = time.monotonic_ns


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        #: Frame of the running span: [id, request, child_ns, open].
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "bench_span", default=None)
        self._ids = itertools.count(1)

    # -- span brackets -----------------------------------------------------

    def _enter(self):
        parent = self._current.get()
        span_id = next(self._ids)
        nested = parent is not None and parent[3]
        request = parent[1] if nested else span_id
        frame = [span_id, request, 0, True]
        token = self._current.set(frame)
        return parent, frame, token, _now()

    def _exit(self, name, weight, parent, frame, token, start) -> None:
        end = _now()
        duration = end - start
        frame[3] = False
        self._current.reset(token)
        if parent is not None and parent[3]:
            parent[2] += duration
        self.spans.append((name, start, end, duration - frame[2], frame[0],
                           None if parent is None else parent[0],
                           frame[1], weight))

    def wrap(self, owner: Any, attr: str, name: str,
             weigh: Callable[..., float] | None = None) -> None:
        """Replace ``owner.attr`` by a version that records one span per
        call.  ``weigh(*args, **kwargs)`` attaches a size to the span (for
        example the number of records replayed)."""
        fn = getattr(owner, attr)
        recorder = self

        if asyncio.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                weight = None if weigh is None else weigh(*args, **kwargs)
                state = recorder._enter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    recorder._exit(name, weight, *state)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                weight = None if weigh is None else weigh(*args, **kwargs)
                state = recorder._enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    recorder._exit(name, weight, *state)

        if isinstance(owner, type) and hasattr(fn, "__self__"):
            wrapper = staticmethod(wrapper)  # a classmethod, already bound
        setattr(owner, attr, wrapper)

    def count(self, owner: Any, attr: str, name: str,
              key: Callable[..., str | None] | None = None) -> None:
        """Replace ``owner.attr`` by a version that counts its calls under
        ``name`` — or under ``name:<key(result, *args)>`` when ``key``
        is given (``None`` from ``key`` skips the call)."""
        fn = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if key is None:
                counts[name] += 1
            else:
                suffix = key(result, *args, **kwargs)
                if suffix is not None:
                    counts[f"{name}:{suffix}"] += 1
            return result

        setattr(owner, attr, wrapper)

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


class Summary:
    """Aggregates of one span dump, optionally cut to a time window."""

    def __init__(self, dump: dict[str, Any],
                 window: tuple[int, int] | None = None):
        self.counts: Counter = Counter(dump["counts"])
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.weight: Counter = Counter()
        requests: dict[int, list[int]] = {}  # id -> [root ns, sum of self ns]
        for name, start, end, self_ns, span_id, __, request, weight in dump["spans"]:
            entry = requests.setdefault(request, [0, 0])
            if span_id == request:
                entry[0] = end - start
            entry[1] += self_ns
            if window is not None and not window[0] <= start <= window[1]:
                continue
            self.calls[name] += 1
            self.self_ns[name] += self_ns
            self.total_ns[name] += end - start
            if weight is not None:
                self.weight[name] += weight
        #: Largest relative gap, over every request of the dump, between
        #: the root span and the sum of the self times of its spans.
        self.request_gap = max(
            (abs(total - root) / root for root, total in requests.values()
             if root > 0), default=0.0)

    @classmethod
    def load(cls, path: str) -> "Summary":
        with open(path, encoding="utf-8") as handle:
            return cls(json.load(handle))

    @classmethod
    def load_cut(cls, path: str,
                 window: tuple[int, int]) -> tuple["Summary", "Summary"]:
        """One dump read once: (everything, only the spans in ``window``)."""
        with open(path, encoding="utf-8") as handle:
            dump = json.load(handle)
        return cls(dump), cls(dump, window)

    def mean_self(self, name: str, unit_ns: float) -> float:
        """Mean self time per call of ``name`` (0 when it never ran)."""
        calls = self.calls[name]
        return self.self_ns[name] / calls / unit_ns if calls else 0.0

    def merge(self, other: "Summary") -> "Summary":
        for field in ("counts", "calls", "self_ns", "total_ns", "weight"):
            getattr(self, field).update(getattr(other, field))
        self.request_gap = max(self.request_gap, other.request_gap)
        return self
