"""The HTTP front door, exercised over real sockets."""

import asyncio
import json

from repro.service import WorkflowService, start_server

MINI_SCHEMA = {
    "name": "Mini",
    "inputs": ["x"],
    "steps": [
        {"name": "A", "outputs": ["y"], "cost": 1},
        {"name": "B", "inputs": ["A.y"], "outputs": ["z"]},
    ],
    "arcs": [{"src": "A", "dst": "B"}],
    "outputs": {"z": "B.z"},
}


async def request(port, method, path, body=None):
    """One minimal HTTP exchange; returns (status, parsed JSON body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = b"" if body is None else json.dumps(body).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: localhost\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    ).encode()
    writer.write(head + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    header_blob, __, body_blob = raw.partition(b"\r\n\r\n")
    status = int(header_blob.split(b" ", 2)[1])
    if b"application/x-ndjson" in header_blob:
        parsed = [json.loads(line) for line in body_blob.splitlines()]
    else:
        parsed = json.loads(body_blob)
    return status, parsed


async def booted(port):
    service = WorkflowService()
    server = await start_server(service, "127.0.0.1", port)
    return service, server


async def shutdown(service, server):
    server.close()
    await server.wait_closed()
    await service.close()


def test_healthz_and_version():
    async def main():
        service, server = await booted(8460)
        try:
            status, body = await request(8460, "GET", "/healthz")
            assert status == 200 and body["ok"] is True
            status, body = await request(8460, "GET", "/version")
            from repro import __version__

            assert status == 200 and body["version"] == __version__
        finally:
            await shutdown(service, server)

    asyncio.run(main())


def test_submit_poll_and_stream():
    async def main():
        service, server = await booted(8461)
        try:
            status, body = await request(
                8461, "POST", "/workflows",
                {"schema": MINI_SCHEMA, "inputs": {"x": 1}},
            )
            assert status == 200
            [iid] = body["instances"]
            # the NDJSON stream blocks until the instance finishes
            status, events = await asyncio.wait_for(
                request(8461, "GET", f"/instances/{iid}/events"), timeout=10.0
            )
            assert status == 200
            assert events[-1]["kind"] == "instance.finished"
            assert events[-1]["status"] == "committed"
            status, record = await request(8461, "GET", f"/instances/{iid}")
            assert status == 200 and record["status"] == "committed"
        finally:
            await shutdown(service, server)

    asyncio.run(main())


def test_error_responses():
    async def main():
        service, server = await booted(8462)
        try:
            status, body = await request(8462, "GET", "/nope")
            assert status == 404
            status, body = await request(8462, "POST", "/healthz")
            assert status == 405
            status, body = await request(8462, "POST", "/workflows")
            assert status == 400
            status, body = await request(
                8462, "POST", "/workflows", {"workflow": "Ghost"}
            )
            assert status == 400 and "Ghost" in body["error"]["message"]
            assert body["error"]["code"] == "bad-request"
            status, body = await request(8462, "GET", "/instances/nope-1")
            assert status == 404
        finally:
            await shutdown(service, server)

    asyncio.run(main())


# -- the route matrix --------------------------------------------------------

#: Every fixed path: the methods it serves, and the 405 hint otherwise.
FIXED_ROUTES = {
    "/healthz": ("GET", "use GET"),
    "/readyz": ("GET", "use GET"),
    "/version": ("GET", "use GET"),
    "/workflows": ("POST", "use POST"),
    "/instances": ("GET", "use GET"),
    "/events": ("GET", "use GET"),
    "/metrics": ("GET", "use GET"),
    "/debug/trace": ("GET", "use GET"),
    "/debug/profile": ("GET", "use GET"),
    "/debug/faults": ("GET POST", "use GET or POST"),
    "/admin/drain": ("POST", "use POST"),
}


async def serving(**options):
    """A service on an ephemeral port; returns ``(service, server, port)``."""
    service = WorkflowService(**options)
    server = await start_server(service, "127.0.0.1", 0)
    return service, server, server.sockets[0].getsockname()[1]


async def raw_request(port, method, path):
    """One exchange whose body is not JSON; returns (status, body text)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, __, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body.decode()


def test_a_wrong_method_is_405_with_the_routes_hint():
    async def main():
        service, server, port = await serving()
        try:
            for path, (methods, hint) in FIXED_ROUTES.items():
                for method in ("GET", "POST", "PUT", "DELETE"):
                    if method in methods.split():
                        continue
                    status, body = await request(port, method, path)
                    assert (status, body) == (405, {"error": {
                        "code": "method-not-allowed", "message": hint,
                    }}), (method, path)
            for path in ("/instances/x-1", "/instances/x-1/events"):
                status, body = await request(port, "POST", path)
                assert status == 405 and body["error"]["message"] == "use GET"
            status, body = await request(port, "PUT", "/nope")
            assert status == 404 and body["error"]["code"] == "not-found"
        finally:
            await shutdown(service, server)

    asyncio.run(main())


def test_every_fixed_path_answers_its_own_method():
    async def main():
        service, server, port = await serving()
        try:
            from repro import __version__

            status, body = await request(port, "GET", "/healthz")
            assert status == 200 and body["ok"] is True
            assert await request(port, "GET", "/readyz") == (
                200, {"ready": True, "reason": "ok"})
            assert await request(port, "GET", "/version") == (
                200, {"version": __version__})
            assert await request(port, "GET", "/instances") == (
                200, {"instances": []})
            status, body = await request(port, "POST", "/workflows")
            assert (status, body["error"]) == (400, {
                "code": "bad-request",
                "message": "POST /workflows needs a JSON body",
            })
            for path in ("/metrics", "/debug/trace", "/debug/profile"):
                status, __ = await raw_request(port, "GET", path)
                assert status == 200, path
            # Disabled fault endpoint: refused on both methods; a POST
            # without a plan is malformed before it is refused.
            for method, body in (("GET", None), ("POST", {"plan": "none"})):
                status, reply = await request(port, method, "/debug/faults",
                                              body)
                assert status == 403, method
                assert reply["error"]["code"] == "fault-endpoint-disabled"
                assert "--enable-fault-endpoint" in reply["error"]["message"]
            status, reply = await request(port, "POST", "/debug/faults")
            assert (status, reply["error"]["code"]) == (400, "bad-request")
            status, reply = await request(port, "GET", "/instances/nope-1/events")
            assert (status, reply["error"]["code"]) == (404, "not-found")
            assert "nope-1" in reply["error"]["message"]
            # The firehose stays open until the drain closes it.
            firehose = asyncio.ensure_future(request(port, "GET", "/events"))
            await asyncio.sleep(0.05)
            assert not firehose.done()
            assert await request(port, "POST", "/admin/drain") == (
                200, {"draining": True})
            assert await asyncio.wait_for(firehose, timeout=5.0) == (200, [])
            assert await request(port, "GET", "/readyz") == (
                503, {"ready": False, "reason": "draining"})
            status, reply = await request(port, "POST", "/workflows",
                                          {"schema": MINI_SCHEMA})
            assert (status, reply["error"]["code"]) == (503, "draining")
        finally:
            await shutdown(service, server)

    asyncio.run(main())


def test_observability_surfaces_answer_503_with_a_hint_when_disabled():
    async def main():
        service, server, port = await serving(observability=False)
        try:
            for path in ("/metrics", "/debug/trace", "/debug/profile"):
                status, body = await request(port, "GET", path)
                assert status == 503, path
                assert body["error"]["code"] == "unavailable"
                assert "--no-observability" in body["error"]["message"]
                status, body = await request(port, "POST", path)
                assert (status, body["error"]["message"]) == (405, "use GET")
        finally:
            await shutdown(service, server)

    asyncio.run(main())


def test_the_fault_endpoint_installs_one_plan_and_reports_it():
    async def main():
        service, server, port = await serving(enable_fault_endpoint=True)
        try:
            assert await request(port, "GET", "/debug/faults") == (
                200, {"installed": None})
            for body in (None, {"spec": "delay=0.5"}):
                status, reply = await request(port, "POST", "/debug/faults",
                                              body)
                assert (status, reply["error"]["code"]) == (400, "bad-request")
                assert "'plan'" in reply["error"]["message"]
            status, reply = await request(port, "POST", "/debug/faults",
                                          {"plan": "bogus"})
            assert (status, reply["error"]["code"]) == (400, "bad-request")
            assert service.system.faults is None
            assert await request(port, "POST", "/debug/faults",
                                 {"plan": "delay=0.5"}) == (
                200, {"installed": "delay=0.5"})
            status, reply = await request(port, "POST", "/debug/faults",
                                          {"plan": "drop=0.1"})
            assert (status, reply["error"]) == (409, {
                "code": "conflict",
                "message": "fault injector already installed",
            })
            # A bad spec is still malformed once a plan is installed.
            status, reply = await request(port, "POST", "/debug/faults",
                                          {"plan": "bogus"})
            assert status == 400
            status, reply = await request(port, "GET", "/debug/faults")
            assert status == 200
            assert reply["installed"] == "delay=0.5"
            assert reply["lost_messages"] == 0
            assert reply["stats"] == service.system.faults.stats.as_dict()
            status, body = await request(port, "GET", "/healthz")
            assert body["faults_installed"] == "delay=0.5"
        finally:
            await shutdown(service, server)

    asyncio.run(main())
