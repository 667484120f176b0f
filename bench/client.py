"""Minimal asyncio HTTP/1.1 client for the daemon's front door.

The daemon answers one request per connection (``Connection: close``),
so a request is: connect, write, read to EOF.  Event streams are NDJSON
bodies read line by line until the daemon closes them.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, AsyncIterator

from daemon import HOST


def _encode(method: str, path: str, body: dict[str, Any] | None) -> bytes:
    data = b"" if body is None else json.dumps(body).encode()
    head = (f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
            f"Content-Length: {len(data)}\r\n\r\n")
    return head.encode() + data


async def request(port: int, method: str, path: str,
                  body: dict[str, Any] | None = None) -> tuple[int, Any]:
    """One request; returns ``(status, parsed JSON body or text)``."""
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        writer.write(_encode(method, path, body))
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    head, __, payload = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    if b"application/json" in head:
        return status, json.loads(payload)
    return status, payload.decode()


async def stream(port: int, path: str) -> AsyncIterator[dict[str, Any]]:
    """Yield the NDJSON records of an event stream until it closes."""
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        writer.write(_encode("GET", path, None))
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        if status != 200:
            raise ConnectionError(f"GET {path} answered {status}")
        while True:
            line = await reader.readline()
            if not line:
                return
            yield json.loads(line)
    finally:
        writer.close()
