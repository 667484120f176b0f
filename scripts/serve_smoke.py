#!/usr/bin/env python
"""Wall-clock smoke test for the ``repro serve`` daemon.

Boots the daemon as a real subprocess, waits for ``/healthz``, submits
the example LAWS workflow over HTTP, and asserts the instance commits
within a loose wall-clock budget.  This is the CI gate for the asyncio
runtime: it proves the whole chain — CLI entry point, HTTP front door,
realtime clock/transport/executor, engine stack — actually serves.

It also gates the observability plane: mid-run it checks ``/readyz``,
scrapes ``/metrics`` and asserts the commit counter and the service
latency histogram are present, then fetches ``/debug/trace`` and runs
``repro analyze --check-invariants`` on the export — a live wall-clock
run must satisfy the same protocol-invariant catalog as the simulated
ones.

Timing bounds are deliberately generous (CI runners are slow and
noisy); correctness bounds are exact.

Exit status: 0 on success, 1 on any failure (diagnostics on stderr).
"""

import json
import pathlib
import subprocess
import sys
import time
import urllib.error
import urllib.request

HOST = "127.0.0.1"
PORT = 8455
BASE = f"http://{HOST}:{PORT}"
BOOT_BUDGET = 30.0      # daemon must answer /healthz within this
COMMIT_BUDGET = 30.0    # the workflow must commit within this
REPO = pathlib.Path(__file__).resolve().parent.parent


def req(method, path, body=None, timeout=10.0):
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(BASE + path, data=data, method=method)
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def req_text(path, timeout=10.0):
    """GET a non-JSON surface (/metrics, /debug/trace); returns str."""
    with urllib.request.urlopen(BASE + path, timeout=timeout) as response:
        return response.read().decode()


def wait_for(predicate, budget, what):
    deadline = time.monotonic() + budget
    while time.monotonic() < deadline:
        try:
            result = predicate()
        except (urllib.error.URLError, ConnectionError, OSError):
            result = None
        if result is not None:
            return result
        time.sleep(0.2)
    raise TimeoutError(f"{what} did not happen within {budget:.0f}s")


def main() -> int:
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--host", HOST, "--port", str(PORT)],
        cwd=REPO,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    try:
        started = time.monotonic()
        health = wait_for(
            lambda: req("GET", "/healthz"), BOOT_BUDGET, "daemon boot"
        )
        boot_seconds = time.monotonic() - started
        assert health["ok"] is True, health
        assert health["runtime"] == "asyncio", health

        version = req("GET", "/version")
        assert version["version"], version

        laws = (REPO / "examples" / "order_fulfilment.laws").read_text()
        submitted = req("POST", "/workflows", {
            "laws": laws,
            "inputs": {"part": "gasket", "qty": 2},
        })
        [instance_id] = submitted["instances"]

        def finished():
            record = req("GET", f"/instances/{instance_id}")
            return record if record["status"] != "running" else None

        record = wait_for(finished, COMMIT_BUDGET, "workflow commit")
        commit_seconds = time.monotonic() - started - boot_seconds
        assert record["status"] == "committed", record
        assert record["outputs"].get("tracking"), record

        after = req("GET", "/healthz")
        assert after["instances_finished"] >= 1, after
        assert after["messages_sent"] > 0, after

        # Readiness split: the daemon is serving, so /readyz must be 200.
        ready = req("GET", "/readyz")
        assert ready == {"ready": True, "reason": "ok"}, ready

        # Mid-run /metrics scrape: the committed instance must show up in
        # the engine's commit counter and the service latency histogram.
        # Latency is recorded in the same engine call as the outcome, so
        # the first scrape after the commit already has the histogram.
        metrics = req_text("/metrics")
        assert ('crew_instances_finished_total{architecture="centralized",'
                'status="COMMITTED"}') in metrics, "commit counter missing"
        assert "crew_service_instance_latency_seconds_bucket" in metrics
        assert "crew_service_instance_latency_seconds_count" in metrics
        assert "crew_realtime_pending_timers" in metrics
        assert "crew_executor_submitted_total" in metrics

        # The live trace export must satisfy the same protocol-invariant
        # catalog as simulated runs (`repro analyze --check-invariants`).
        trace_file = REPO / "serve_smoke_trace.jsonl"
        trace_file.write_text(req_text("/debug/trace"))
        analyze = subprocess.run(
            [sys.executable, "-m", "repro", "analyze", str(trace_file),
             "--check-invariants"],
            cwd=REPO, capture_output=True, text=True,
        )
        if analyze.returncode != 0:
            sys.stderr.write(analyze.stdout + analyze.stderr)
            raise AssertionError("repro analyze --check-invariants failed "
                                 "on the /debug/trace export")

        print(f"serve smoke OK: boot {boot_seconds:.1f}s, "
              f"commit {commit_seconds:.1f}s, "
              f"{after['messages_sent']} messages, "
              f"{after['events_processed']} clock events, "
              f"{len(metrics.splitlines())} metric lines, "
              f"invariants OK on {len(trace_file.read_text().splitlines())} "
              f"trace lines")
        return 0
    except Exception as exc:
        print(f"serve smoke FAILED: {exc!r}", file=sys.stderr)
        daemon.terminate()
        try:
            output, __ = daemon.communicate(timeout=5)
            sys.stderr.write(output.decode(errors="replace"))
        except subprocess.TimeoutExpired:
            daemon.kill()
        return 1
    finally:
        if daemon.poll() is None:
            daemon.terminate()
            try:
                daemon.wait(timeout=5)
            except subprocess.TimeoutExpired:
                daemon.kill()


if __name__ == "__main__":
    raise SystemExit(main())
