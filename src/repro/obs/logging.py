"""Structured JSON logging with instance/Lamport correlation fields.

The serve daemon's operational events — submissions, outcomes, executor
retries, drain transitions, trace-buffer losses — need to be greppable
and joinable against the causal trace, not prose on stderr.
:class:`StructuredLogger` emits one JSON object per line (NDJSON), every
record carrying:

* ``ts`` — wall-clock Unix epoch seconds (float);
* ``level`` / ``event`` — severity and a dotted event name
  (``serve.started``, ``instance.finished``, ``executor.retry``, ...);
* the logger's *bound* fields (service name, architecture, ...);
* per-call fields, by convention the correlation trio where it applies:
  ``instance`` (the workflow instance id), ``node`` (the engine/agent
  node name) and ``lamport`` (the node's Lamport stamp) — the same keys
  the trace records and NDJSON event stream use, so one ``jq`` join
  lines a log record up with the causal trace of the run.

Loggers are cheap and hierarchical: :meth:`StructuredLogger.bind`
returns a child sharing the parent's stream and level gate with extra
bound fields.  A disabled logger (``StructuredLogger(stream=None)``)
costs one integer compare per call, so runtime-layer hooks can log
unconditionally.

The runtime layer itself cannot import this module (``obs`` sits above
``runtime`` in the layering contract); the service injects logging
callbacks into the realtime executor's duck-typed hooks instead — the
same pattern the metrics registry and profiler use.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Callable, IO

__all__ = [
    "LEVELS", "StructuredLogger", "canonical_json", "correlation_fields", "open_log_stream",
]

#: Severity order; records below the logger's threshold are discarded.
LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

#: The canonical JSON form (sorted keys, ``str()`` for what JSON cannot
#: hold) of a log line, an engine log record and a service log line.  Built
#: once: ``json.dumps`` with these arguments builds one on every call.
canonical_json = json.JSONEncoder(sort_keys=True, default=str).encode


def correlation_fields(detail: Any) -> dict[str, Any]:
    """Extract the correlation trio from a mapping (trace-record detail).

    Returns whichever of ``instance`` / ``node`` / ``lamport`` are
    present, so ``logger.info("x", **correlation_fields(rec.detail))``
    stamps a log record with the same join keys as the trace.
    """
    fields: dict[str, Any] = {}
    for key in ("instance", "node", "lamport"):
        value = detail.get(key) if hasattr(detail, "get") else None
        if value is not None:
            fields[key] = value
    return fields


class StructuredLogger:
    """NDJSON event logger with bound fields and a level gate.

    ``stream=None`` disables output entirely (every call short-circuits
    on the level gate); pass ``sys.stderr`` (the daemon default), a file
    handle, or any object with ``write``/``flush``.  ``clock`` overrides
    the wall-clock source (tests pin it for deterministic ``ts``).
    """

    __slots__ = ("_bound", "_clock", "_min", "_sink", "stream")

    def __init__(
        self,
        stream: IO[str] | None = None,
        min_level: str = "info",
        clock: Callable[[], float] | None = None,
        **bound: Any,
    ):
        if min_level not in LEVELS:
            raise ValueError(
                f"min_level must be one of {sorted(LEVELS)}, got {min_level!r}"
            )
        self.stream = stream
        self._min = LEVELS[min_level] if stream is not None else _OFF
        self._clock = clock if clock is not None else time.time
        self._bound = dict(bound)
        #: Optional tap receiving every record dict that passes the level
        #: gate (before serialization) — `repro top` and tests hook this.
        self._sink: Callable[[dict[str, Any]], None] | None = None

    # -- construction ------------------------------------------------------

    def bind(self, **fields: Any) -> "StructuredLogger":
        """A child logger with extra bound fields (shared stream/gate)."""
        child = StructuredLogger.__new__(StructuredLogger)
        child.stream = self.stream
        child._min = self._min
        child._clock = self._clock
        child._bound = {**self._bound, **fields}
        child._sink = self._sink
        return child

    @property
    def enabled(self) -> bool:
        return self._min is not _OFF

    # -- emission ----------------------------------------------------------

    def log(self, level: str, event: str, **fields: Any) -> None:
        """Emit one record; unknown levels raise, gated levels are free."""
        severity = LEVELS[level]
        if severity < self._min:
            return
        record: dict[str, Any] = {
            "ts": round(self._clock(), 6),
            "level": level,
            "event": event,
        }
        record.update(self._bound)
        record.update(fields)
        if self._sink is not None:
            self._sink(record)
        if self.stream is not None:
            try:
                self.stream.write(canonical_json(record) + "\n")
                self.stream.flush()
            except (ValueError, OSError):  # pragma: no cover - closed stream
                pass

    def debug(self, event: str, **fields: Any) -> None:
        self.log("debug", event, **fields)

    def info(self, event: str, **fields: Any) -> None:
        self.log("info", event, **fields)

    def warning(self, event: str, **fields: Any) -> None:
        self.log("warning", event, **fields)

    def error(self, event: str, **fields: Any) -> None:
        self.log("error", event, **fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "off" if not self.enabled else f"min={self._min}"
        return f"<StructuredLogger {state} bound={sorted(self._bound)}>"


#: Sentinel gate above every level: a disabled logger never formats.
_OFF = LEVELS["error"] + 1


def open_log_stream(path: str | None) -> IO[str] | None:
    """Resolve a ``--log-out`` value: ``None``/"-" -> stderr, "off" ->
    disabled, anything else -> append-mode file handle."""
    if path == "off":
        return None
    if path is None or path == "-":
        return sys.stderr
    return open(path, "a", encoding="utf-8", buffering=1)
