"""The daemon's observability plane: scrape, streams, readiness, logs."""

import asyncio
import io
import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.engines.base import ControlSystem
from repro.errors import WorkloadError
from repro.obs.logging import StructuredLogger
import repro
from repro.obs.profile import LAYERS, LOOP_MODULE, function_name
from repro.runtime.executor import TaskExecutor
from repro.runtime.realtime import RealtimeClock
from repro.service import WorkflowService, start_server
from tests.conftest import sampling_calls_to

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
            # The sampler charges the CPU the scrapes spend themselves, so
            # it is stopped first: both scrapes then publish one set of
            # profile totals, and a second publish must not add to it.
            service.profiler.stop()
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
                assert frames.startswith("repro.") and int(count) >= 1
            __, __, scrape = await raw_request(8473, "GET", "/metrics")
            series = [line for line in scrape.decode().splitlines()
                      if line.startswith("crew_profile_samples_total{")]
            assert series
            assert {line.split('"')[1] for line in series} <= set(LAYERS)
        finally:
            await shutdown(service, server)

    with sampling_calls_to(ControlSystem.execute_program) as calls:
        asyncio.run(main())
    assert calls == ["ControlSystem.execute_program"] * 2
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_the_daemon_loop_has_its_own_row_not_the_cli_entry_frame(tmp_path):
    """On a ``repro serve`` daemon under load, what the asyncio loop does
    between callbacks is the ``loop`` row: no sample charged to
    ``service`` has ``cli:cmd_serve`` as its innermost frame."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    base = f"http://127.0.0.1:{port}"

    def request(path, body=None):
        data = None if body is None else json.dumps(body).encode()
        method = "GET" if body is None else "POST"
        with urllib.request.urlopen(urllib.request.Request(base + path, data, method=method),
                                    timeout=10) as response:
            return response.read().decode()

    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    log = tmp_path / "serve.log"
    with open(log, "wb") as sink:
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", str(port),
             "--work-time-scale", "0.001"], stdout=subprocess.DEVNULL, stderr=sink, env=env)
    try:
        deadline = time.monotonic() + 30.0
        while b"repro serve:" not in log.read_bytes():
            assert daemon.poll() is None and time.monotonic() < deadline, log.read_text()
            time.sleep(0.05)
        loop_row = 'crew_profile_samples_total{layer="loop"}'
        while loop_row not in request("/metrics"):
            assert time.monotonic() < deadline, "no sample reached the loop row"
            for x in range(40):
                request("/workflows", {"schema": MINI_SCHEMA, "inputs": {"x": x},
                                       "instances": 4})
        collapsed = request("/debug/profile")
    finally:
        daemon.terminate()
        daemon.wait(timeout=30)
    innermost = [line.rsplit(" ", 1)[0].rsplit(";", 1)[-1]
                 for line in collapsed.splitlines()]
    assert innermost and "repro.cli:cmd_serve" not in innermost
    assert any(frame.startswith(f"{LOOP_MODULE}:") for frame in innermost)


def test_step_work_profiles_under_the_executor_frame():
    """A step's service time is an executor entry on the clock: a sample
    taken in its program runs under ``TaskExecutor._run`` fired by the
    clock's turn, and is charged to the layer of its innermost frame."""

    async def main():
        service = WorkflowService()
        service.start()
        try:
            [iid] = service.submit(schema=MINI_SCHEMA, inputs={"x": 1})["instances"]
            await wait_outcome(service, iid)
            return service.profile_collapsed(), service.profiler.layers()
        finally:
            await service.close()

    with sampling_calls_to(ControlSystem.execute_program):
        collapsed, layers = asyncio.run(main())
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    program = [stack for stack in (line.rsplit(" ", 1)[0].split(";")
                                   for line in collapsed.splitlines())
               if stack[-1] == function_name(ControlSystem.execute_program.__code__)]
    assert program
    for stack in program:
        turn = stack.index(function_name(RealtimeClock._turn.__code__))
        assert stack[turn + 1] == function_name(TaskExecutor._run.__code__)
    assert {row["layer"] for row in layers} <= set(LAYERS)
    assert any(row["layer"] == "facade" for row in layers)


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
    assert warning["capacity"] == 4 and "policy" not in warning


def test_a_raising_engine_callback_runs_once_and_is_counted(monkeypatch):
    """An engine callback that raises is a defect: it runs once, is not
    retried, is counted on ``/healthz`` and ``/metrics``, and the daemon
    keeps serving: the next submission still commits."""
    from repro.engines.centralized.agents import ApplicationAgentNode

    complete_step = ApplicationAgentNode._complete_step
    calls = []

    def defective(self, message):
        calls.append(message.payload["instance_id"])
        if len(calls) == 1:
            raise KeyError("defect in the engine")
        complete_step(self, message)

    monkeypatch.setattr(ApplicationAgentNode, "_complete_step", defective)

    async def main():
        service, server = await booted(8486)
        try:
            [broken] = service.submit(
                schema=MINI_SCHEMA, inputs={"x": 1})["instances"]
            while not calls:
                await asyncio.sleep(0.01)
            [healthy] = service.submit(
                schema=MINI_SCHEMA, inputs={"x": 2})["instances"]
            outcome = await wait_outcome(service, healthy)
            assert outcome.committed
            assert calls.count(broken) == 1
            __, __, body = await raw_request(8486, "GET", "/healthz")
            status = json.loads(body)
            assert status["executor_errors"] == 1
            assert status["executor_retries"] == 0
            __, __, text = await raw_request(8486, "GET", "/metrics")
            assert "crew_executor_errors_total 1" in text.decode()
            assert "crew_executor_retries_total" not in text.decode()
        finally:
            await shutdown(service, server)

    asyncio.run(main())


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
