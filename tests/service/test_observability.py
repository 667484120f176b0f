"""The daemon's observability plane: scrape, streams, readiness, logs."""

import asyncio
import io
import json

import pytest

from repro.errors import WorkloadError
from repro.obs.logging import StructuredLogger
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

#: One expensive step: ~2s of wall-clock service time at the default
#: work_time_scale, long enough to disconnect from mid-run.
SLOW_SCHEMA = {
    "name": "Slow",
    "inputs": ["x"],
    "steps": [{"name": "Grind", "outputs": ["y"], "cost": 200}],
    "outputs": {"y": "Grind.y"},
}


async def raw_request(port, method, path, body=None):
    """One HTTP exchange; returns (status, content_type, body_bytes)."""
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
    content_type = ""
    for line in header_blob.decode("latin-1").split("\r\n")[1:]:
        name, sep, value = line.partition(":")
        if sep and name.strip().lower() == "content-type":
            content_type = value.strip()
    return status, content_type, body_blob


async def booted(port, **service_kwargs):
    service = WorkflowService(**service_kwargs)
    server = await start_server(service, "127.0.0.1", port)
    return service, server


async def shutdown(service, server):
    server.close()
    await server.wait_closed()
    await service.close()


async def wait_outcome(service, instance_id, timeout=10.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        if instance_id in service.system.outcomes:
            return service.system.outcomes[instance_id]
        await asyncio.sleep(0.02)
    raise AssertionError(f"{instance_id} did not finish within {timeout}s")


# -- scrape surfaces -------------------------------------------------------


def test_metrics_scrape_after_commit():
    async def main():
        service, server = await booted(8470)
        try:
            result = service.submit(schema=MINI_SCHEMA, inputs={"x": 1})
            [iid] = result["instances"]
            # latency is recorded in the same engine call as the outcome
            await wait_outcome(service, iid)
            status, ctype, body = await raw_request(8470, "GET", "/metrics")
            text = body.decode()
            assert status == 200
            assert ctype.startswith("text/plain")
            assert ('crew_instances_finished_total{architecture='
                    '"centralized",status="COMMITTED"} 1') in text
            assert "crew_service_instance_latency_seconds_bucket" in text
            assert ('crew_service_instance_latency_seconds_count'
                    '{architecture="centralized",status="committed"} 1') in text
            assert "crew_realtime_pending_timers" in text
            assert "crew_executor_submitted_total" in text
            assert "crew_service_uptime_seconds" in text
        finally:
            await shutdown(service, server)

    asyncio.run(main())


def test_metrics_scrape_is_idempotent():
    """Two scrapes with no traffic in between expose identical counters
    (scrape-time syncing must assign, not increment)."""

    async def main():
        service, server = await booted(8471)
        try:
            [iid] = service.submit(
                schema=MINI_SCHEMA, inputs={"x": 1})["instances"]
            await wait_outcome(service, iid)
            await service.runtime.join(timeout=5.0)
            __, __, first = await raw_request(8471, "GET", "/metrics")
            __, __, second = await raw_request(8471, "GET", "/metrics")

            def counters(blob):
                return sorted(
                    line for line in blob.decode().splitlines()
                    if line.startswith(("crew_executor_", "crew_profile_",
                                        "crew_trace_dropped_"))
                )

            assert counters(first) == counters(second)
        finally:
            await shutdown(service, server)

    asyncio.run(main())


def test_debug_trace_is_analyzable_jsonl():
    from repro.analysis.causal import CausalTrace

    async def main():
        service, server = await booted(8472)
        try:
            [iid] = service.submit(
                schema=MINI_SCHEMA, inputs={"x": 1})["instances"]
            await wait_outcome(service, iid)
            status, ctype, body = await raw_request(8472, "GET", "/debug/trace")
            assert status == 200
            assert ctype == "application/x-ndjson"
            rows = [json.loads(line) for line in body.decode().splitlines()]
            assert any(r.get("type") == "span" for r in rows)
            return body.decode()
        finally:
            await shutdown(service, server)

    text = asyncio.run(main())
    causal = CausalTrace.from_jsonl(text)
    assert "Mini-1" in causal.instances()


def test_debug_profile_returns_collapsed_stacks():
    async def main():
        service, server = await booted(8473)
        try:
            [iid] = service.submit(
                schema=MINI_SCHEMA, inputs={"x": 1})["instances"]
            await wait_outcome(service, iid)
            status, ctype, body = await raw_request(
                8473, "GET", "/debug/profile")
            assert status == 200
            assert ctype.startswith("text/plain")
            lines = body.decode().strip().splitlines()
            assert lines
            for line in lines:
                frames, count = line.rsplit(" ", 1)
                assert frames and int(count) >= 1
        finally:
            await shutdown(service, server)

    asyncio.run(main())


def test_step_work_profiles_under_the_executor_frame():
    """A step's service time is an executor entry on the clock: its work
    profiles as ``executor.step`` (the sends it makes nested under it),
    not as an ``event:TaskExecutor`` catch-all row nor at the root."""

    async def main():
        service = WorkflowService()
        service.start()
        try:
            [iid] = service.submit(schema=MINI_SCHEMA, inputs={"x": 1})["instances"]
            await wait_outcome(service, iid)
            return service.profile_collapsed()
        finally:
            await service.close()

    stacks = [line.rsplit(" ", 1)[0].split(";")
              for line in asyncio.run(main()).splitlines()]
    roots = {stack[0] for stack in stacks}
    assert ["executor.step", "transport.send"] in stacks
    assert not [root for root in roots if root.startswith("event:")], roots
    assert "transport.send" not in roots


def test_observability_off_returns_503_with_hint():
    async def main():
        service, server = await booted(8474, observability=False)
        try:
            assert service.profiler is None
            for path in ("/metrics", "/debug/trace", "/debug/profile"):
                status, __, body = await raw_request(8474, "GET", path)
                assert status == 503, path
                assert "--no-observability" in json.loads(body)["error"]["message"]
            # liveness and submissions still work without observability
            status, __, body = await raw_request(8474, "GET", "/healthz")
            assert status == 200
            assert json.loads(body)["observability"] is False
            [iid] = service.submit(
                schema=MINI_SCHEMA, inputs={"x": 1})["instances"]
            outcome = await wait_outcome(service, iid)
            assert outcome.committed
        finally:
            await shutdown(service, server)

    asyncio.run(main())


def test_metrics_text_raises_without_observability():
    service = WorkflowService(observability=False)
    for method in (service.metrics_text, service.trace_jsonl,
                   service.profile_collapsed):
        with pytest.raises(WorkloadError):
            method()


# -- liveness / readiness --------------------------------------------------


def test_readiness_lifecycle():
    service = WorkflowService()
    assert service.readiness() == (False, "starting")

    async def main():
        server = await start_server(service, "127.0.0.1", 8475)
        try:
            assert service.readiness() == (True, "ok")
            status, __, body = await raw_request(8475, "GET", "/readyz")
            assert status == 200
            assert json.loads(body) == {"ready": True, "reason": "ok"}
            service.begin_drain()
            status, __, body = await raw_request(8475, "GET", "/readyz")
            assert status == 503
            assert json.loads(body) == {"ready": False, "reason": "draining"}
            # liveness is unaffected by drain
            status, __, __body = await raw_request(8475, "GET", "/healthz")
            assert status == 200
        finally:
            server.close()
            await server.wait_closed()
            await service.close()

    asyncio.run(main())
    assert service.readiness() == (False, "draining")


# -- event streams ---------------------------------------------------------


def test_stream_disconnect_cleans_up_subscriber_queue():
    """A client hanging up mid-stream must not leak its queue."""

    async def main():
        service, server = await booted(8476)
        try:
            [iid] = service.submit(
                schema=SLOW_SCHEMA, inputs={"x": 1})["instances"]
            reader, writer = await asyncio.open_connection("127.0.0.1", 8476)
            writer.write(
                f"GET /instances/{iid}/events HTTP/1.1\r\n"
                f"Host: localhost\r\nContent-Length: 0\r\n\r\n".encode()
            )
            await writer.drain()
            await reader.readuntil(b"\r\n\r\n")  # response head: streaming
            for __ in range(100):
                if service._subscribers.get(iid):
                    break
                await asyncio.sleep(0.02)
            assert len(service._subscribers[iid]) == 1
            writer.close()  # client disconnects while the instance runs
            await writer.wait_closed()
            for __ in range(100):
                if iid not in service._subscribers:
                    break
                await asyncio.sleep(0.02)
            assert iid not in service._subscribers
            assert iid not in service.system.outcomes  # still running
        finally:
            await shutdown(service, server)

    asyncio.run(main())


def test_firehose_stream_sees_all_instances_and_cleans_up():
    async def main():
        service, server = await booted(8477)
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", 8477)
            writer.write(b"GET /events HTTP/1.1\r\n"
                         b"Host: localhost\r\nContent-Length: 0\r\n\r\n")
            await writer.drain()
            await reader.readuntil(b"\r\n\r\n")
            for __ in range(100):
                if service._event_taps:
                    break
                await asyncio.sleep(0.02)
            result = service.submit(schema=MINI_SCHEMA, inputs={"x": 1},
                                    instances=2)
            seen = set()
            while len(seen) < 2:
                line = await asyncio.wait_for(reader.readline(), timeout=10.0)
                seen.add(json.loads(line)["instance"])
            assert seen == set(result["instances"])
            writer.close()
            await writer.wait_closed()
            for __ in range(100):
                if not service._event_taps:
                    break
                await asyncio.sleep(0.02)
            assert service._event_taps == []
        finally:
            await shutdown(service, server)

    asyncio.run(main())


def test_unsubscribe_removes_queue_and_empty_entry():
    service = WorkflowService()
    service._submit_times["I-1"] = 0.0
    first = service.subscribe("I-1")
    second = service.subscribe("I-1")
    service.unsubscribe("I-1", first)
    assert service._subscribers["I-1"] == [second]
    service.unsubscribe("I-1", first)  # unknown queue: ignored
    service.unsubscribe("I-1", second)
    assert "I-1" not in service._subscribers
    service.unsubscribe("I-1", second)  # unknown instance: ignored


# -- structured logging & flight recorder ----------------------------------


def test_lifecycle_events_are_logged_with_correlation():
    stream = io.StringIO()
    logger = StructuredLogger(stream=stream, clock=lambda: 1.0)

    async def main():
        service, server = await booted(8478, logger=logger)
        try:
            [iid] = service.submit(
                schema=MINI_SCHEMA, inputs={"x": 1})["instances"]
            await wait_outcome(service, iid)
        finally:
            await shutdown(service, server)

    asyncio.run(main())
    records = [json.loads(line) for line in stream.getvalue().splitlines()]
    events = [r["event"] for r in records]
    assert "service.ready" in events
    assert "instance.submitted" in events
    assert "instance.finished" in events
    assert "service.draining" in events
    assert "service.closed" in events
    finished = next(r for r in records if r["event"] == "instance.finished")
    assert finished["instance"] == "Mini-1"
    assert finished["status"] == "committed"
    assert finished["latency"] > 0
    assert all(r["architecture"] == "centralized" for r in records)


def test_trace_drops_are_reported_at_close():
    stream = io.StringIO()
    logger = StructuredLogger(stream=stream, clock=lambda: 1.0)

    async def main():
        # A 4-record ring overflows on any real run (~10 flat records).
        service, server = await booted(8479, trace_capacity=4, logger=logger)
        try:
            [iid] = service.submit(
                schema=MINI_SCHEMA, inputs={"x": 1})["instances"]
            await wait_outcome(service, iid)
            assert service.system.trace.dropped > 0
        finally:
            await shutdown(service, server)
        return service.system.trace.dropped

    dropped = asyncio.run(main())
    records = [json.loads(line) for line in stream.getvalue().splitlines()]
    warning = next(r for r in records if r["event"] == "trace.dropped")
    assert warning["level"] == "warning"
    assert warning["dropped"] == dropped
    assert warning["policy"] == "oldest"


def test_executor_give_up_snapshots_flight_recorder():
    service = WorkflowService()
    network = service.system.network
    node = network.node(sorted(network.node_names())[0])
    before = len(service.system.trace.records)
    service._on_executor_give_up(
        node.receive, "Node.receive", ValueError("boom"), attempts=3
    )
    snapshots = [
        rec for rec in list(service.system.trace.records)[before:]
        if rec.kind == "flight.snapshot"
    ]
    [snap] = snapshots
    assert snap.node == node.name
    assert snap.detail["reason"] == "task.failure"
    assert snap.detail["error"] == "ValueError('boom')"
    assert snap.detail["attempts"] == 3


def test_executor_retry_hook_logs_warning():
    stream = io.StringIO()
    logger = StructuredLogger(stream=stream, clock=lambda: 1.0)
    service = WorkflowService(logger=logger)
    network = service.system.network
    node = network.node(sorted(network.node_names())[0])
    service._on_executor_retry(
        node.receive, "Node.receive", ValueError("flaky"), 1, 0.125
    )
    [rec] = [json.loads(line) for line in stream.getvalue().splitlines()]
    assert rec["event"] == "executor.retry"
    assert rec["level"] == "warning"
    assert rec["node"] == node.name
    assert rec["attempt"] == 1
    assert rec["backoff"] == 0.125


# -- instance listing ------------------------------------------------------


def test_instances_listing_over_http():
    async def main():
        service, server = await booted(8480)
        try:
            result = service.submit(schema=MINI_SCHEMA, inputs={"x": 1},
                                    instances=2)
            for iid in result["instances"]:
                await wait_outcome(service, iid)
            status, __, body = await raw_request(8480, "GET", "/instances")
            assert status == 200
            rows = json.loads(body)["instances"]
            assert [r["instance"] for r in rows] == result["instances"]
            assert all(r["status"] == "committed" for r in rows)
            assert all(r["age"] >= 0 for r in rows)
        finally:
            await shutdown(service, server)

    asyncio.run(main())
