#!/usr/bin/env python
"""Kill-and-recover chaos harness for ``repro serve --state-dir``.

For each of the three architectures this script:

1. boots the daemon as a real subprocess with a crash-durable state
   directory and a slowed work-time scale,
2. submits a batch of workflow instances (>= 20) over HTTP,
3. waits until some — but not all — have finished, snapshots the
   terminal outcomes seen so far, and ``SIGKILL``\\ s the daemon
   mid-flight (no shutdown hooks run; this is the crash the WAL is for),
   then tears the log's tail: a valid, checksummed ``submit`` of an id
   nobody acknowledged, cut just before its newline,
4. restarts the daemon on the same state directory and asserts

   - recovery happened (``instances_recovered`` > 0 on ``/healthz``),
   - every acknowledged instance reaches a terminal outcome,
   - **zero lost commits**: every outcome that was terminal before the
     kill is still reported with the same status and outputs,
   - **zero duplicate commits**: the service WAL holds at most one
     ``outcome`` record per instance id, and redrive chains resolve to
     exactly one terminal carrier,
   - the live ``/debug/trace`` export passes
     ``repro analyze --check-invariants``,
   - the torn ``submit`` counts for nothing: its id answers 404,

5. shuts the recovered daemon down gracefully (SIGTERM drain),
6. runs a graceful-stop cycle on a fresh state directory: submit, follow
   every instance's event stream to its ``instance.finished``, SIGTERM the
   instant the last one arrives, restart, and assert that nothing is
   re-driven and every id is served ``committed`` from the durable log —
   an outcome a client has seen is already on disk.

State directories are left under ``serve-chaos-state/`` so CI can
upload them as a forensic artifact when an assertion fails.

Exit status: 0 on success, 1 on any failure (diagnostics on stderr).
"""

import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

HOST = "127.0.0.1"
BOOT_BUDGET = 30.0      # each daemon must answer /healthz within this
DRAIN_BUDGET = 120.0    # recovery + re-driven instances must finish in this
INSTANCES = 24          # acknowledged instances per architecture (>= 20)
GRACEFUL_INSTANCES = 6  # instances of the graceful-stop cycle
WORK_TIME_SCALE = 0.1   # slow enough that the kill lands mid-flight
REPO = pathlib.Path(__file__).resolve().parent.parent
STATE_ROOT = REPO / "serve-chaos-state"

sys.path.insert(0, str(REPO / "src"))

ARCHITECTURES = {
    "centralized": 8456,
    "parallel": 8457,
    "distributed": 8458,
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    ).rstrip(os.pathsep)
    return env


def req(base, method, path, body=None, timeout=10.0):
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(base + path, data=data, method=method)
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def req_text(base, path, timeout=10.0):
    with urllib.request.urlopen(base + path, timeout=timeout) as response:
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


def boot_daemon(architecture, port, state_dir):
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--host", HOST, "--port", str(port),
         "--architecture", architecture,
         "--state-dir", str(state_dir),
         "--work-time-scale", str(WORK_TIME_SCALE),
         "--log-out", "off"],
        cwd=REPO, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    base = f"http://{HOST}:{port}"
    health = wait_for(lambda: req(base, "GET", "/healthz"),
                      BOOT_BUDGET, f"{architecture} daemon boot")
    assert health["ok"] is True, health
    assert health["durable"] is True, health
    return daemon, base, health


def reap(daemon):
    if daemon.poll() is None:
        daemon.terminate()
        try:
            daemon.wait(timeout=10)
        except subprocess.TimeoutExpired:
            daemon.kill()


def dump_output(daemon, label):
    try:
        output, __ = daemon.communicate(timeout=5)
    except (subprocess.TimeoutExpired, ValueError):
        return
    if output:
        sys.stderr.write(f"--- {label} output ---\n")
        sys.stderr.write(output.decode(errors="replace"))


def audit_wal(state_dir, acknowledged):
    """Offline WAL audit: at-most-once outcomes, resolvable redrives."""
    from repro.service.durability import ServiceLog, ServiceState

    log = ServiceLog(state_dir)
    try:
        state = ServiceState.from_records(log.records())
    finally:
        log.close()
    outcome_counts = {}
    for record in log.records():
        if record.kind == "outcome":
            iid = record.payload["instance"]
            outcome_counts[iid] = outcome_counts.get(iid, 0) + 1
    duplicates = {iid: n for iid, n in outcome_counts.items() if n > 1}
    assert not duplicates, f"duplicate outcome records in WAL: {duplicates}"
    for iid in acknowledged:
        carrier = state.resolve(iid)
        assert carrier in state.outcomes, (
            f"acknowledged instance {iid} (carrier {carrier}) has no "
            f"durable outcome"
        )
    return len(state.redrives)


def tear_tail(state_dir, workflow):
    """Leave the log as a kill just before a newline would: a valid,
    checksummed ``submit`` of an id nobody acknowledged, with no newline.
    A partial final line the kill itself left is cut first, as a load
    would cut it.  Returns the unacknowledged id."""
    from repro.service.durability import record_checksum

    path = state_dir / "service.wal"
    data = path.read_bytes()
    data = data[:data.rfind(b"\n") + 1]
    lsn = json.loads(data.splitlines()[-1])["lsn"] + 1
    phantom = f"{workflow}-{10 ** 6}"
    payload = {"instance": phantom, "workflow": workflow,
               "inputs": {"part": "gasket", "qty": 2}, "deadline": None}
    line = json.dumps({"crc": record_checksum(lsn, "submit", payload),
                       "kind": "submit", "lsn": lsn, "payload": payload},
                      sort_keys=True)
    path.write_bytes(data + line.encode())
    return phantom


def follow_to_finished(base, instance_id, failures):
    """Read one instance's NDJSON stream up to its ``instance.finished``."""
    try:
        with urllib.request.urlopen(f"{base}/instances/{instance_id}/events",
                                    timeout=DRAIN_BUDGET) as stream:
            for line in stream:
                if json.loads(line).get("kind") == "instance.finished":
                    return
        failures.append(f"{instance_id}: stream ended without a final event")
    except (OSError, ValueError) as exc:
        failures.append(f"{instance_id}: {exc!r}")


def run_graceful_stop(architecture, port):
    """SIGTERM right behind the last ``instance.finished``: nothing a
    client saw may be missing from the log the next daemon replays."""
    state_dir = STATE_ROOT / f"{architecture}-graceful"
    if state_dir.exists():
        shutil.rmtree(state_dir)
    laws = (REPO / "examples" / "order_fulfilment.laws").read_text()
    daemon, base, __ = boot_daemon(architecture, port, state_dir)
    try:
        acknowledged = req(base, "POST", "/workflows", {
            "laws": laws, "inputs": {"part": "gasket", "qty": 2},
            "instances": GRACEFUL_INSTANCES,
        })["instances"]
        failures = []
        followers = [
            threading.Thread(target=follow_to_finished,
                             args=(base, iid, failures))
            for iid in acknowledged
        ]
        for follower in followers:
            follower.start()
        for follower in followers:
            follower.join(DRAIN_BUDGET)
        daemon.send_signal(signal.SIGTERM)  # at once: no settling sleep
        assert not failures, failures
        assert not any(f.is_alive() for f in followers), "stream still open"
        daemon.wait(timeout=30)
    except BaseException:
        reap(daemon)
        dump_output(daemon, f"{architecture} graceful-stop daemon")
        raise

    daemon, base, health = boot_daemon(architecture, port, state_dir)
    try:
        assert health["instances_redriven"] == 0, health
        assert health["instances_recovered"] == len(acknowledged), health
        for iid in acknowledged:
            record = req(base, "GET", f"/instances/{iid}")
            assert record["status"] == "committed", record
            assert record.get("recovered") is True, record
    finally:
        reap(daemon)
    print(f"  {architecture}: SIGTERM behind the last of "
          f"{len(acknowledged)} final events, 0 re-driven after restart")


def run_architecture(architecture, port):
    state_dir = STATE_ROOT / architecture
    if state_dir.exists():
        shutil.rmtree(state_dir)
    laws = (REPO / "examples" / "order_fulfilment.laws").read_text()

    # -- phase 1: boot, submit, kill -9 mid-flight ------------------------
    daemon, base, __ = boot_daemon(architecture, port, state_dir)
    acknowledged = []
    try:
        first = req(base, "POST", "/workflows", {
            "laws": laws,
            "inputs": {"part": "gasket", "qty": 2},
            "instances": INSTANCES // 3,
        })
        acknowledged += first["instances"]
        workflow = first["workflow"]
        while len(acknowledged) < INSTANCES:
            batch = req(base, "POST", "/workflows", {
                "workflow": workflow,
                "inputs": {"part": "valve", "qty": 1},
                "instances": min(INSTANCES // 3, INSTANCES - len(acknowledged)),
            })
            acknowledged += batch["instances"]
        assert len(acknowledged) >= 20, acknowledged

        def mid_flight():
            health = req(base, "GET", "/healthz")
            finished = health["instances_finished"]
            return health if 0 < finished < len(acknowledged) else None

        wait_for(mid_flight, 60.0, f"{architecture} mid-flight window")
        pre_crash = {
            row["instance"]: row
            for row in req(base, "GET", "/instances")["instances"]
            if row["status"] not in ("running",)
        }
        daemon.kill()  # SIGKILL: no atexit, no flush, no close
        daemon.wait(timeout=10)
    except BaseException:
        reap(daemon)
        dump_output(daemon, f"{architecture} phase-1 daemon")
        raise
    assert pre_crash, f"{architecture}: kill landed before any outcome"
    assert len(pre_crash) < len(acknowledged), (
        f"{architecture}: kill landed after every outcome; nothing in flight"
    )
    phantom = tear_tail(state_dir, workflow)

    # -- phase 2: restart, recover, drain to terminal ---------------------
    daemon, base, health = boot_daemon(architecture, port, state_dir)
    try:
        assert health["instances_recovered"] >= 1, health

        def all_terminal():
            records = [req(base, "GET", f"/instances/{iid}")
                       for iid in acknowledged]
            if all(r["status"] not in ("running",) for r in records):
                return records
            return None

        records = wait_for(all_terminal, DRAIN_BUDGET,
                           f"{architecture} post-recovery drain")
        by_id = {r["instance"]: r for r in records}

        # Zero lost commits: pre-crash terminal outcomes survive verbatim.
        for iid, before in pre_crash.items():
            after = by_id[iid]
            assert after["status"] == before["status"], (iid, before, after)

        # Liveness: every acknowledged id is terminal, none wedged.
        statuses = sorted({r["status"] for r in records})
        assert "running" not in statuses, statuses

        # A record without its newline was never acknowledged.
        try:
            phantom_record = req(base, "GET", f"/instances/{phantom}")
        except urllib.error.HTTPError as exc:
            assert exc.code == 404, (phantom, exc.code)
        else:
            raise AssertionError(f"torn submit {phantom} was recovered: "
                                 f"{phantom_record}")

        # Live trace passes the protocol-invariant catalog.
        trace_file = REPO / f"serve_chaos_{architecture}.trace.jsonl"
        trace_file.write_text(req_text(base, "/debug/trace"))
        analyze = subprocess.run(
            [sys.executable, "-m", "repro", "analyze", str(trace_file),
             "--check-invariants"],
            cwd=REPO, env=child_env(), capture_output=True, text=True,
        )
        if analyze.returncode != 0:
            sys.stderr.write(analyze.stdout + analyze.stderr)
            raise AssertionError(
                f"{architecture}: invariants failed on the recovered "
                f"daemon's /debug/trace export"
            )
        trace_file.unlink()

        # Graceful exit: SIGTERM drains and the process leaves cleanly.
        daemon.send_signal(signal.SIGTERM)
        daemon.wait(timeout=30)
    except BaseException:
        reap(daemon)
        dump_output(daemon, f"{architecture} phase-2 daemon")
        raise

    # -- phase 3: offline WAL audit (at-most-once outcomes) ---------------
    redrives = audit_wal(state_dir, acknowledged)
    committed = sum(1 for r in records if r["status"] == "committed")
    recovered = sum(1 for r in records if r.get("recovered"))
    print(f"  {architecture}: {len(acknowledged)} acknowledged, "
          f"{len(pre_crash)} terminal pre-kill ({recovered} served from "
          f"the durable log after restart), {redrives} re-driven, "
          f"{committed} committed, 0 lost, 0 duplicated, torn submit "
          f"{phantom} not recovered")


def main() -> int:
    failures = 0
    for architecture, port in ARCHITECTURES.items():
        print(f"serve chaos: {architecture} kill -9 / recover ...",
              flush=True)
        try:
            run_architecture(architecture, port)
            run_graceful_stop(architecture, port)
        except Exception as exc:
            failures += 1
            print(f"serve chaos FAILED ({architecture}): {exc!r}",
                  file=sys.stderr, flush=True)
    if failures:
        print(f"serve chaos: {failures} architecture(s) failed; state dirs "
              f"kept under {STATE_ROOT}", file=sys.stderr)
        return 1
    print("serve chaos OK: neither kill -9 mid-flight nor SIGTERM behind "
          "the last outcome lost anything on any architecture")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
