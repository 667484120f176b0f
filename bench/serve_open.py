"""Workload ``serve-open``: the client-visible latency path, open loop.

A seeded Poisson schedule at 40 submissions per second drives one
``repro serve --architecture centralized --state-dir <tmp>`` daemon at its
default ``--work-time-scale 0.01`` (about 28 % of one CPU).  Every POST
carries the full LAWS text — the documented idempotent-submit path, so
``load_laws`` re-parses it per submission — and the outcome is awaited on
the instance's own event stream.  Latency is timed from the instant the
submission was *due*, so a stall delays every request behind it.

The run closes with three crash cycles on the same state directory:
submit 64, acknowledge, SIGKILL, restart, every acknowledged id resolves
to ``committed``.  That is the durability layer used the other way —
replay reads beside journal writes.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import client
import inputs
from calibrator import Calibrator, Timed
from daemon import SRC, Daemon
from loadgen import (INSTANCE_TIMEOUT_S, LAWS, Final, boot, delta, healthz,
                     read_final, submit, wait_ready)
from layers import engine_layer_metrics, service_layer_metrics
from result import Outcome
from spans import Summary
from stats import percentile

ARCHITECTURE = "centralized"
WORK_TIME_SCALE = 0.01
RATE_PER_S = 40.0
COMMIT_LIMIT_S = 0.5
#: An instance that cannot park an event stream because this many are
#: already open is failed: the backlog is growing.
STREAM_CAP = 32
#: The generator's own p99 lateness above which a window is invalid.
LATE_LIMIT_S = 0.010
SETUP_STARTS = 5
#: Latency percentiles are taken per slice of the schedule and the median
#: slice is reported, so one stall of the box moves one slice, not the run.
SLICES = 8
CRASH_CYCLES = 3
CRASH_GROUPS = 8          # submissions per cycle ...
CRASH_GROUP_SIZE = 8      # ... of this many instances each (64 per cycle)
CRASH_HEAD_START_S = 0.2  # lets the first of each chain commit before the kill


@dataclass
class Sample:
    late: float
    instance: str | None = None
    ack: float | None = None
    commit: float | None = None
    lag: float | None = None       # workflow.commit event -> instance.finished
    events: int = 0
    requests: int = 1
    failure: str | None = None


@dataclass
class Window:
    samples: list[Sample]
    timed: Timed
    peak_parked: int
    before: dict[str, Any]
    after: dict[str, Any]
    wal_bytes: int

    @property
    def late_p99(self) -> float:
        return percentile([s.late for s in self.samples], 0.99)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s.failure is not None)


async def open_window(daemon: Daemon, plan: inputs.OpenLoopPlan,
                      wal: Path) -> Window:
    loop = asyncio.get_running_loop()
    port = daemon.port
    samples: list[Sample | None] = [None] * len(plan.due)
    tasks: list[asyncio.Task] = []
    parked = peak_parked = 0

    async def one(index: int, due_at: float) -> None:
        nonlocal parked, peak_parked
        sample = samples[index] = Sample(late=loop.time() - due_at)
        ids = await submit(port, {"laws": LAWS, "inputs": plan.inputs[index]})
        if ids is None:
            sample.failure = "refused-or-errored"
            return
        sample.ack, sample.instance = loop.time() - due_at, ids[0]
        if parked >= STREAM_CAP:
            sample.failure = "no-stream-slot"
            return
        parked += 1
        peak_parked = max(peak_parked, parked)
        try:
            final: Final = await read_final(port, ids[0])
        finally:
            parked -= 1
        sample.requests, sample.events = 2, final.events
        if not final.ok:
            sample.failure = "wrong-or-missing-outcome"
            return
        sample.commit = final.finished_at - due_at
        if final.commit_seen_at is not None:
            sample.lag = final.finished_at - final.commit_seen_at
        if sample.commit > COMMIT_LIMIT_S:
            sample.failure = "over-commit-limit"

    before = await healthz(port)
    wal_before = wal.stat().st_size
    cpu_before = daemon.cpu_seconds()
    start = loop.time() + 0.05
    for index, due in enumerate(plan.due):
        loop.call_at(start + due, lambda i=index, at=start + due:
                     tasks.append(loop.create_task(one(i, at))))
    await asyncio.sleep(start + plan.due[-1] - loop.time() + 0.001)
    while len(tasks) < len(plan.due):   # a timer still to fire: generator late
        await asyncio.sleep(0.001)
    await asyncio.gather(*tasks)
    end = loop.time()
    cpu_s = daemon.cpu_seconds() - cpu_before
    return Window(
        samples=samples,
        timed=Timed(int(start * 1e9), int(end * 1e9), end - start, cpu_s),
        peak_parked=peak_parked, before=before, after=await healthz(port),
        wal_bytes=wal.stat().st_size - wal_before,
    )


def sliced(values_by_slice: list[list[float]], share: float) -> float:
    """Median over the schedule's slices of each slice's percentile."""
    return statistics.median(
        percentile(values, share) for values in values_by_slice if values)


def commit_slices(samples: list[Sample]) -> list[list[float]]:
    """Commit latencies (s) in ``SLICES`` runs of consecutive due times.  A
    failed instance without a time misses any limit: it is given the
    instance timeout."""
    size = max(1, len(samples) // SLICES)
    values = [s.commit if s.commit is not None else INSTANCE_TIMEOUT_S
              for s in samples]
    return [values[i:i + size] for i in range(0, size * SLICES, size)]


# -- crash epilogue ------------------------------------------------------------


@dataclass
class Epilogue:
    attempted: int = 0
    failed: int = 0
    violations: list[str] = field(default_factory=list)
    acknowledged: list[str] = field(default_factory=list)
    recover_s: list[float] = field(default_factory=list)
    redriven: int = 0
    redone_steps: int = 0


async def _collect_step_done(port: int, done: set[tuple[str, str]]) -> None:
    """Firehose tap: the (instance, step) pairs whose ``step.done`` reached
    us before the daemon died."""
    try:
        async for event in client.stream(port, "/events"):
            if event.get("kind") == "step.done":
                done.add((event["instance"], event["step"]))
    except (OSError, ValueError, asyncio.IncompleteReadError):
        pass  # SIGKILL tears the stream down mid-line


async def _resolve(port: int, instance_id: str) -> dict[str, Any] | None:
    """Poll one id until it is no longer running."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + INSTANCE_TIMEOUT_S
    while loop.time() < deadline:
        status, record = await client.request(port, "GET",
                                              f"/instances/{instance_id}")
        if status == 200 and record.get("status") != "running":
            return record
        await asyncio.sleep(0.02)
    return None


async def crash_cycle(daemon: Daemon, seed: int, cycle: int, state_dir: Path,
                      span_dump: Path | None, result: Epilogue) -> Daemon:
    """Submit 64, SIGKILL, restart on the same state directory, resolve
    every acknowledged id.  Returns the recovered daemon."""
    loop = asyncio.get_running_loop()
    done_before: set[tuple[str, str]] = set()
    tap = loop.create_task(_collect_step_done(daemon.port, done_before))
    await asyncio.sleep(0.02)   # the tap must be subscribed before the submits
    acknowledged: list[str] = []
    for order in inputs.crash_inputs(seed, cycle, CRASH_GROUPS):
        result.attempted += CRASH_GROUP_SIZE
        ids = await submit(daemon.port, {"laws": LAWS, "inputs": order,
                                         "instances": CRASH_GROUP_SIZE})
        if ids is None:
            result.failed += CRASH_GROUP_SIZE
            result.violations.append(f"cycle {cycle}: submission refused")
        else:
            acknowledged += ids
    await asyncio.sleep(CRASH_HEAD_START_S)
    __, listing = await client.request(daemon.port, "GET", "/instances")
    ours = set(acknowledged)
    terminal_before = {row["instance"]: row["status"]
                       for row in listing["instances"]
                       if row["instance"] in ours and row["status"] != "running"}
    daemon.kill()
    await tap

    recovered = Daemon(ARCHITECTURE, WORK_TIME_SCALE, daemon.cpu,
                       state_dir=state_dir, span_dump=span_dump)
    try:
        await wait_ready(recovered)
        carriers: dict[str, str] = {}
        for iid in acknowledged:
            record = await _resolve(recovered.port, iid)
            ok = (record is not None and record["status"] == "committed"
                  and bool(record["outputs"].get("tracking")))
            before = terminal_before.get(iid)
            if ok and before is not None and before != record["status"]:
                ok = False
            if not ok:
                result.failed += 1
                result.violations.append(
                    f"cycle {cycle}: {iid} acknowledged before the kill "
                    f"(then {before or 'running'}) resolved to {record}")
            elif "resolved" in record:
                carriers[record["resolved"]] = iid
        result.recover_s.append(
            (time.monotonic_ns() - recovered.spawned_ns) / 1e9)
        # Steps that were durably done before the crash and ran again.
        __, trace = await client.request(recovered.port, "GET", "/debug/trace")
        result.redriven += len(carriers)
        for line in trace.splitlines():
            row = json.loads(line)
            if row.get("kind") == "step.done":
                detail = row["detail"]
                original = carriers.get(detail.get("instance"))
                if (original, detail.get("step")) in done_before:
                    result.redone_steps += 1
    except BaseException:
        recovered.stop()
        raise
    result.acknowledged += acknowledged
    return recovered


def audit_log(state_dir: Path, acknowledged: list[str]) -> list[str]:
    """Offline audit of the durable log once every daemon is gone: at most
    one outcome per instance id, and every acknowledged id's carrier has
    a committed outcome — nothing lost, nothing committed twice."""
    sys.path.insert(0, str(SRC))
    from repro.service.durability import ServiceLog, ServiceState

    log = ServiceLog(state_dir)
    try:
        records = log.records()
    finally:
        log.close()
    state = ServiceState.from_records(records)
    violations = []
    outcomes: dict[str, int] = {}
    for record in records:
        if record.kind == "outcome":
            iid = record.payload["instance"]
            outcomes[iid] = outcomes.get(iid, 0) + 1
    for iid, count in outcomes.items():
        if count > 1:
            violations.append(f"{iid} has {count} outcome records")
    carriers: dict[str, str] = {}
    for iid in acknowledged:
        carrier = state.resolve(iid)
        outcome = state.outcomes.get(carrier)
        if outcome is None or outcome.get("status") != "committed":
            violations.append(f"{iid} (carrier {carrier}) has no committed "
                              f"outcome in the log")
        if carriers.setdefault(carrier, iid) != iid:
            violations.append(f"{iid} and {carriers[carrier]} share carrier "
                              f"{carrier}")
    return violations


# -- the workload --------------------------------------------------------------


@dataclass
class Measurement:
    setup: list[Timed]
    window: Window
    peak_rss_mb: float
    epilogue: Epilogue
    notes: list[str]
    spans: list[str]            # span dumps: the window's daemon first


async def measure(seed: int, instances: int, tmp: Path, cpu: int, *,
                  traced: bool, setup_starts: int, crash: bool,
                  tag: str) -> Measurement:
    state_dir = tmp / f"state-{tag}"
    dumps = iter(tmp / f"spans-{tag}-{k}.json" for k in range(CRASH_CYCLES + 1))

    def next_dump() -> Path | None:
        return next(dumps) if traced else None

    setup: list[Timed] = []
    for start in range(setup_starts - 1):
        spare, timed = await boot(ARCHITECTURE, WORK_TIME_SCALE, cpu,
                                  state_dir=tmp / f"state-{tag}-spare{start}")
        spare.stop()
        setup.append(timed)
    daemon, timed = await boot(ARCHITECTURE, WORK_TIME_SCALE, cpu,
                               state_dir=state_dir, span_dump=next_dump())
    setup.append(timed)
    notes: list[str] = []
    spans: list[str] = []
    epilogue = Epilogue()
    acknowledged: list[str] = []
    try:
        plan = inputs.open_loop_plan(seed, instances, RATE_PER_S)
        wal = state_dir / "service.wal"
        peak_rss_mb = None
        for attempt in (1, 2):
            window = await open_window(daemon, plan, wal)
            acknowledged += [s.instance for s in window.samples if s.instance]
            # Memory does not depend on how punctual the generator was, and
            # a second window would add its instances to the peak.
            peak_rss_mb = peak_rss_mb or daemon.peak_rss_mb()
            if window.late_p99 <= LATE_LIMIT_S:
                break
            notes.append(
                f"window {attempt} INVALID: the generator ran "
                f"{window.late_p99 * 1e3:.1f} ms late at p99 "
                f"(limit {LATE_LIMIT_S * 1e3:.0f} ms), {window.failed} failed"
                + ("; measured again" if attempt == 1 else "; reported anyway"))
        if window.peak_parked >= STREAM_CAP:
            notes.append(f"backlog: all {STREAM_CAP} stream slots were in use")
        for cycle in range(CRASH_CYCLES if crash else 0):
            if traced:
                spans.append(daemon.dump_spans())
            daemon = await crash_cycle(daemon, seed, cycle, state_dir,
                                       next_dump(), epilogue)
        if traced:
            spans.append(daemon.dump_spans())
        # An outcome is visible over HTTP up to one 50 ms sweep of the
        # outcome watcher before it is journaled, and a SIGTERM in that gap
        # drops it; give the last outcomes two sweeps to reach the log.
        await asyncio.sleep(0.12)
    finally:
        daemon.stop()
    if crash:
        epilogue.violations += audit_log(
            state_dir, acknowledged + epilogue.acknowledged)
    return Measurement(setup, window, peak_rss_mb, epilogue, notes, spans)


def _ms(seconds: float) -> float:
    return seconds * 1e3


async def run(seed: int, seconds: int, traced: bool, tmp: Path,
              cpu: int, cal: Calibrator) -> Outcome:
    instances = max(SLICES, round(RATE_PER_S * seconds))
    if not traced:
        m = await measure(seed, instances, tmp, cpu, traced=False,
                          setup_starts=SETUP_STARTS, crash=True, tag="run")
        cal.stop()
        outcome = _outcome(m, instances)
        window = m.window
        slices = commit_slices(window.samples)
        outcome.end_to_end = {
            "setup_s": statistics.median(cal.wall_s(t) for t in m.setup),
            "throughput_per_s":
                (instances - window.failed) / window.timed.wall_s,
            "commit_p50_ms": _ms(sliced(slices, 0.50)),
            "commit_p95_ms": _ms(sliced(slices, 0.95)),
            "cpu_ms_per_instance": _ms(cal.cpu_s(window.timed)) / instances,
            "peak_rss_mb": m.peak_rss_mb,
            "messages_per_instance": delta(window, "messages_sent") / instances,
        }
        return outcome
    # The traced run measures half the window untraced, then half traced:
    # the first is the base of trace.overhead_share.
    instances = max(SLICES, instances // 2)
    base = await measure(seed, instances, tmp, cpu, traced=False,
                         setup_starts=1, crash=False, tag="base")
    m = await measure(seed, instances, tmp, cpu, traced=True, setup_starts=1,
                      crash=True, tag="traced")
    cal.stop()
    outcome = _outcome(m, instances)
    outcome.notes += base.notes
    outcome.per_layer = _per_layer(m, base, instances, cal)
    return outcome


def _outcome(m: Measurement, instances: int) -> Outcome:
    window, epilogue = m.window, m.epilogue
    outcome = Outcome(
        attempted=instances + epilogue.attempted,
        failed=window.failed + epilogue.failed,
        violations=[f"instance {s.instance}: {s.failure}"
                    for s in window.samples
                    if s.failure == "wrong-or-missing-outcome"]
        + epilogue.violations,
        notes=m.notes,
    )
    failures = Counter(s.failure for s in window.samples if s.failure)
    if failures:
        outcome.notes.append(f"failed in the window: {dict(failures)}")
    return outcome


def _per_layer(m: Measurement, base: Measurement, instances: int,
               cal: Calibrator) -> dict[str, float]:
    window, epilogue = m.window, m.epilogue
    samples = window.samples
    commits = [s.commit for s in samples if s.commit is not None]
    acks = [s.ack for s in samples if s.ack is not None]
    lags = [s.lag for s in samples if s.lag is not None]
    life, cut = Summary.load_cut(
        m.spans[0], (window.timed.start_ns, window.timed.end_ns))
    recovered = Summary.load(m.spans[1])
    for path in m.spans[2:]:
        recovered.merge(Summary.load(path))
    life_instances = window.after["instances_submitted"]
    admission = {key: window.after["admission"][key] - window.before["admission"][key]
                 for key in window.after["admission"]}
    decided = sum(value for key, value in admission.items()
                  if key != "deadline_exceeded")
    replayed = recovered.weight["service.durability.replay"]
    cpu_ms = _ms(cal.cpu_s(window.timed)) / instances
    base_cpu_ms = _ms(cal.cpu_s(base.window.timed)) / instances
    layer = {
        "loadgen.late_p99_ms": _ms(window.late_p99),
        "loadgen.samples": len(commits),
        "loadgen.ack_p50_ms": _ms(percentile(acks, 0.50)),
        "loadgen.ack_p95_ms": _ms(percentile(acks, 0.95)),
        "loadgen.commit_p99_ms": _ms(percentile(commits, 0.99)),
        "service.http.stream_events_per_instance":
            sum(s.events for s in samples) / instances,
        "service.core.outcome_lag_p50_ms": _ms(percentile(lags, 0.50)),
        "service.core.outcome_lag_p95_ms": _ms(percentile(lags, 0.95)),
        "service.admission.rejected_share":
            (decided - admission["accepted"]) / decided if decided else 0.0,
        "service.durability.bytes_per_instance": window.wal_bytes / instances,
        "service.durability.replay_ms_per_krecord":
            (recovered.total_ns["service.durability.load"]
             + recovered.total_ns["service.durability.replay"])
            / replayed / 1e3 if replayed else 0.0,
        "service.durability.recover_s": statistics.median(epilogue.recover_s),
        "service.durability.redone_steps_per_redrive":
            epilogue.redone_steps / epilogue.redriven if epilogue.redriven else 0.0,
        f"engines.{ARCHITECTURE}.messages_per_instance":
            delta(window, "messages_sent") / instances,
        f"engines.{ARCHITECTURE}.serve_throughput_per_s":
            (instances - window.failed) / window.timed.wall_s,
        f"engines.{ARCHITECTURE}.serve_cpu_ms_per_instance": cpu_ms,
        "runtime.messages_per_instance":
            delta(window, "messages_sent") / instances,
        "runtime.clock.events_per_instance":
            delta(window, "events_processed") / instances,
        "runtime.executor.retries": delta(window, "executor_retries"),
        "obs.trace_dropped": window.after["trace_dropped"],
        "trace.overhead_share": cpu_ms / base_cpu_ms - 1.0,
        "trace.request_gap_share": max(life.request_gap, recovered.request_gap),
    }
    layer.update(service_layer_metrics(cut, instances))
    layer.update(engine_layer_metrics(life, cut, instances, life_instances))
    return layer
