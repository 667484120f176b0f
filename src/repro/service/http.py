"""Hand-rolled HTTP/1.1 front door for :class:`WorkflowService`.

The daemon speaks a deliberately tiny, dependency-free subset of HTTP
over :func:`asyncio.start_server` — enough for ``curl`` and the standard
library client, no more:

================================  =====================================
``GET /healthz``                  liveness: status summary (always 200)
``GET /readyz``                   readiness: 200 only when serving
``GET /version``                  package version
``POST /workflows``               submit (LAWS text or schema JSON)
``GET /instances``                all instances, submission order
``GET /instances/<id>``           one instance's status
``GET /instances/<id>/events``    live NDJSON event stream
``GET /events``                   firehose NDJSON stream (all instances)
``GET /metrics``                  Prometheus exposition scrape
``GET /debug/trace``              ``repro analyze``-compatible JSONL
``GET /debug/profile``            collapsed flamegraph stacks
``POST /debug/faults``            install a chaos plan (gated, see below)
``GET /debug/faults``             installed plan + fault decision stats
``POST /admin/drain``             begin graceful drain (load shedding)
================================  =====================================

``POST /workflows`` accepts a JSON object with either ``laws`` (LAWS
source text) or ``schema`` (a schema-JSON document, see
:func:`~repro.service.core.schema_from_dict`), plus optional
``workflow`` (class name), ``inputs`` (mapping) and ``instances``
(count).  Event streams respond with ``Content-Type:
application/x-ndjson`` and close when the instance finishes (or at
service shutdown for the firehose); a client hanging up mid-stream is
detected via connection EOF and its feed detached immediately.

``/healthz`` answers *liveness* (the process and loop are up) and always
returns 200; ``/readyz`` answers *readiness* (accepting traffic) — 503
before :meth:`WorkflowService.start` completes and during graceful
drain.  The observability surfaces return 503 with a hint when the
service was started with observability disabled.

Every error response is a JSON envelope ``{"error": {"code", "message"}}``
with a stable machine-readable ``code`` slug; admission refusals (429 /
503) additionally carry a ``Retry-After`` header.  ``POST /workflows``
accepts optional ``deadline_s``: instances still running that many
seconds after submission are aborted and reported ``deadline-exceeded``.
``/debug/faults`` is refused (403) unless the daemon was started with
``--enable-fault-endpoint`` — the plan it installs crashes nodes and
loses messages, so the flag must never leave a chaos rig.

Responses carry ``Connection: close`` — one request per connection keeps
the parser honest and is plenty for a local control plane.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.errors import AdmissionError, CrewError, FrontEndError, WorkloadError
from repro.service.core import WorkflowService

__all__ = ["serve", "start_server"]

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Default machine-readable error codes per status (the envelope's
#: ``error.code`` when the raiser did not pick a more specific one).
_DEFAULT_CODES = {
    400: "bad-request",
    403: "forbidden",
    404: "not-found",
    405: "method-not-allowed",
    409: "conflict",
    413: "payload-too-large",
    429: "rate-limited",
    500: "internal",
    503: "unavailable",
    504: "deadline-exceeded",
}

#: Prometheus text exposition content type (the version tag matters to
#: strict scrapers).
_PROM_TYPE = "text/plain; version=0.0.4; charset=utf-8"
_NDJSON_TYPE = "application/x-ndjson"
_STREAM_HEAD = (
    f"HTTP/1.1 200 OK\r\nContent-Type: {_NDJSON_TYPE}\r\n"
    "Connection: close\r\n\r\n"
).encode()


def _version() -> str:
    from repro import __version__

    return __version__


class _HttpError(Exception):
    def __init__(self, status: int, message: str, code: str | None = None,
                 retry_after: float | None = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.code = code if code is not None else _DEFAULT_CODES.get(
            status, "error"
        )
        self.retry_after = retry_after

    def response(self) -> bytes:
        """The standard JSON error envelope for this error."""
        headers = None
        if self.retry_after is not None:
            headers = {"Retry-After": f"{self.retry_after:g}"}
        return _response(
            self.status,
            {"error": {"code": self.code, "message": self.message}},
            headers=headers,
        )


def _response(
    status: int, payload: dict[str, Any], *, headers: dict[str, str] | None = None
) -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def _text_response(status: int, text: str, content_type: str) -> bytes:
    """A non-JSON body (Prometheus exposition, JSONL dumps, stacks)."""
    body = text.encode()
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    )
    return head.encode() + body


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, Any] | None]:
    """Parse one request; returns ``(method, path, json_body_or_None)``."""
    head = await reader.readuntil(b"\r\n\r\n")
    if len(head) > _MAX_HEADER_BYTES:
        raise _HttpError(413, "request head too large")
    request_line, *header_lines = head.decode("latin-1").split("\r\n")
    parts = request_line.split(" ")
    if len(parts) != 3:
        raise _HttpError(400, f"malformed request line {request_line!r}")
    method, path, __ = parts
    content_length = 0
    for line in header_lines:
        name, sep, value = line.partition(":")
        if sep and name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                raise _HttpError(400, "bad Content-Length") from None
    if content_length > _MAX_BODY_BYTES:
        raise _HttpError(413, "request body too large")
    body: dict[str, Any] | None = None
    if content_length:
        raw = await reader.readexactly(content_length)
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _HttpError(400, f"request body is not JSON: {exc}") from None
        if not isinstance(body, dict):
            raise _HttpError(400, "request body must be a JSON object")
    return method, path.split("?", 1)[0], body


def _watch_hangup(reader: asyncio.StreamReader, on_hangup) -> asyncio.Future:
    """The one read of a streaming connection, and a call when it ends.

    The connection is one-request-per-connection, so a further read
    resolving — EOF, a stray byte or a reset — means the client went away.
    """
    def done(read: asyncio.Future) -> None:
        if not read.cancelled():
            read.exception()  # retrieved: a reset is a hang-up too
        on_hangup()

    read = asyncio.ensure_future(reader.read(1))
    read.add_done_callback(done)
    return read


async def _stream_events(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    service: WorkflowService,
    instance_id: str | None,
) -> None:
    """Pump one NDJSON event stream until it ends or the client hangs up.

    ``instance_id=None`` selects the firehose (every instance's events).
    Each pass writes, in one ``write``, everything the feed collected
    since the last one — the response head rides with the first.  The
    feed is detached in ``finally`` however the stream ends: a
    disconnected client must not leave its feed accumulating events
    until the instance finishes.
    """
    if instance_id is None:
        feed = service.subscribe_events()
    else:
        feed = service.subscribe(instance_id)
    hung_up = _watch_hangup(reader, feed.wake)
    try:
        chunk = _STREAM_HEAD
        while True:
            events = feed.take()
            ended = bool(events) and events[-1] is None
            if ended:
                events.pop()
            chunk += "".join(
                json.dumps(event, sort_keys=True) + "\n" for event in events
            ).encode()
            if chunk:
                writer.write(chunk)
                await writer.drain()
                chunk = b""
            if ended or hung_up.done():
                return
            if feed.empty():
                await feed.wait()
    finally:
        hung_up.cancel()
        if instance_id is None:
            service.unsubscribe_events(feed)
        else:
            service.unsubscribe(instance_id, feed)


async def _dispatch(
    service: WorkflowService,
    method: str,
    path: str,
    body: dict[str, Any] | None,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> bytes | None:
    """Route one request; returns a full response, or ``None`` if the
    handler streamed the response itself."""
    if path == "/healthz":
        if method != "GET":
            raise _HttpError(405, "use GET")
        return _response(200, service.status())
    if path == "/readyz":
        if method != "GET":
            raise _HttpError(405, "use GET")
        ready, reason = service.readiness()
        return _response(200 if ready else 503,
                         {"ready": ready, "reason": reason})
    if path == "/metrics":
        if method != "GET":
            raise _HttpError(405, "use GET")
        try:
            return _text_response(200, service.metrics_text(), _PROM_TYPE)
        except WorkloadError as exc:
            raise _HttpError(503, str(exc)) from None
    if path == "/debug/trace":
        if method != "GET":
            raise _HttpError(405, "use GET")
        try:
            return _text_response(200, service.trace_jsonl(), _NDJSON_TYPE)
        except WorkloadError as exc:
            raise _HttpError(503, str(exc)) from None
    if path == "/debug/profile":
        if method != "GET":
            raise _HttpError(405, "use GET")
        try:
            return _text_response(
                200, service.profile_collapsed(), "text/plain; charset=utf-8"
            )
        except WorkloadError as exc:
            raise _HttpError(503, str(exc)) from None
    if path == "/events":
        if method != "GET":
            raise _HttpError(405, "use GET")
        await _stream_events(reader, writer, service, None)
        return None
    if path == "/instances":
        if method != "GET":
            raise _HttpError(405, "use GET")
        return _response(200, {"instances": service.instances()})
    if path == "/version":
        if method != "GET":
            raise _HttpError(405, "use GET")
        return _response(200, {"version": _version()})
    if path == "/workflows":
        if method != "POST":
            raise _HttpError(405, "use POST")
        if body is None:
            raise _HttpError(400, "POST /workflows needs a JSON body")
        try:
            instances = int(body.get("instances", 1))
            deadline = body.get("deadline_s")
            deadline_s = None if deadline is None else float(deadline)
        except (TypeError, ValueError) as exc:
            raise _HttpError(400, f"bad submission field: {exc}") from None
        try:
            result = service.submit(
                laws=body.get("laws"),
                schema=body.get("schema"),
                workflow=body.get("workflow"),
                inputs=body.get("inputs"),
                instances=instances,
                deadline_s=deadline_s,
            )
        except AdmissionError as exc:
            raise _HttpError(exc.status, str(exc), code=exc.code,
                             retry_after=exc.retry_after) from None
        except CrewError as exc:
            raise _HttpError(400, str(exc)) from None
        return _response(200, result)
    if path == "/debug/faults":
        if method == "GET":
            try:
                return _response(200, service.fault_stats())
            except CrewError as exc:
                raise _HttpError(403, str(exc),
                                 code="fault-endpoint-disabled") from None
        if method != "POST":
            raise _HttpError(405, "use GET or POST")
        if body is None or "plan" not in body:
            raise _HttpError(
                400, "POST /debug/faults needs a JSON body with 'plan' "
                     "(a fault-plan spec string)"
            )
        try:
            return _response(200, service.install_faults(str(body["plan"])))
        except FrontEndError as exc:
            raise _HttpError(403, str(exc),
                             code="fault-endpoint-disabled") from None
        except WorkloadError as exc:
            raise _HttpError(409, str(exc)) from None
        except CrewError as exc:
            raise _HttpError(400, str(exc)) from None
    if path == "/admin/drain":
        if method != "POST":
            raise _HttpError(405, "use POST")
        service.begin_drain()
        return _response(200, {"draining": True})
    if path.startswith("/instances/"):
        if method != "GET":
            raise _HttpError(405, "use GET")
        rest = path[len("/instances/"):]
        if rest.endswith("/events"):
            instance_id = rest[: -len("/events")]
            try:
                await _stream_events(reader, writer, service, instance_id)
            except CrewError as exc:
                raise _HttpError(404, str(exc)) from None
            return None
        try:
            return _response(200, service.instance(rest))
        except CrewError as exc:
            raise _HttpError(404, str(exc)) from None
    raise _HttpError(404, f"no route for {path!r}")


def _make_handler(service: WorkflowService):
    async def handle(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        method, path, status = "-", "-", 200
        try:
            try:
                method, path, body = await _read_request(reader)
                result = await _dispatch(service, method, path, body,
                                         reader, writer)
            except _HttpError as exc:
                status = exc.status
                result = exc.response()
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            except Exception as exc:  # pragma: no cover - defensive
                status = 500
                result = _response(
                    500, {"error": {"code": "internal", "message": repr(exc)}}
                )
            if result is not None:
                writer.write(result)
                await writer.drain()
        except ConnectionError:  # pragma: no cover - client went away
            pass
        finally:
            service.logger.debug("http.request", method=method, path=path,
                                 status=status)
            writer.close()

    return handle


async def start_server(
    service: WorkflowService, host: str = "127.0.0.1", port: int = 8450
) -> asyncio.AbstractServer:
    """Bind the front door and start the service's background machinery."""
    service.start()
    return await asyncio.start_server(_make_handler(service), host, port)


async def serve(
    service: WorkflowService,
    host: str = "127.0.0.1",
    port: int = 8450,
    ready: asyncio.Event | None = None,
) -> None:
    """Run the daemon until cancelled (the ``repro serve`` entry point)."""
    server = await start_server(service, host, port)
    if ready is not None:
        ready.set()
    try:
        async with server:
            await server.serve_forever()
    finally:
        await service.close()
