"""Workload ``serve-batch``: saturation, closed loop.

Two clients each submit batches of 32 instances by installed workflow
name and wait for the batch's last instance to finish before sending the
next, against a memory-only daemon (no ``--state-dir``) at
``--work-time-scale 0.001`` — so the daemon is CPU-bound: engines and
``service.http`` do the work, durability and LAWS parsing are bypassed.
A batch shares its ``part``, so the ``part_fifo`` ordering spec chains
all 32 instances: coordinated execution is heavy here and light in
``serve-open``.

There is one segment per architecture, each on a fresh daemon.  The work
is CPU-bound, so its times are scaled by the CPU's slowdown while it ran
(``calibrator.py``); each segment is repeated, interleaved with the
others, and the median repeat is reported.
"""

from __future__ import annotations

import asyncio
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import inputs
from calibrator import Calibrator, Timed
from layers import engine_layer_metrics, service_layer_metrics
from loadgen import (INSTANCE_TIMEOUT_S, WORKFLOW, boot, delta, healthz,
                     read_final, submit)
from result import Outcome
from spans import Summary
from stats import percentile

WORK_TIME_SCALE = 0.001
CLIENTS = 2
BATCH = 32
REPEATS = 3
#: Batches per client at the declared ``run_seconds`` of 12.  Distributed
#: control costs about 2.5x the CPU per instance, so it gets fewer.
BATCHES = {"centralized": 6, "parallel": 6, "distributed": 3}


@dataclass
class Segment:
    architecture: str
    instances: int
    failed: int                 # refused or errored, plus ``wrong``
    wrong: int                  # acknowledged, but not committed + tracking
    timed: Timed
    turnaround_s: list[list[float]]     # per client, in batch order
    stream_events: int
    setup: Timed
    peak_rss_mb: float
    before: dict[str, Any]
    after: dict[str, Any]
    spans: str | None


async def _client(port: int, orders: list[dict], turnaround_s: list[float],
                  ids: list[str]) -> tuple[int, int]:
    """One closed-loop client; returns (failed, stream events)."""
    loop = asyncio.get_running_loop()
    failed = events = 0
    for order in orders:
        sent = loop.time()
        batch = await submit(port, {"workflow": WORKFLOW, "inputs": order,
                                    "instances": BATCH})
        if batch is None:
            failed += BATCH
            turnaround_s.append(INSTANCE_TIMEOUT_S)  # misses any limit
            continue
        ids += batch
        last = await read_final(port, batch[-1])
        events += last.events
        turnaround_s.append(last.finished_at - sent)
    return failed, events


async def _verify(port: int, ids: list[str]) -> int:
    """Read every instance's final record through its event stream."""
    failed = 0
    for iid in ids:
        if not (await read_final(port, iid)).ok:
            failed += 1
    return failed


async def segment(architecture: str, seed: int, batches: int, cpu: int,
                  span_dump: Path | None) -> Segment:
    loop = asyncio.get_running_loop()
    daemon, setup = await boot(architecture, WORK_TIME_SCALE, cpu,
                               span_dump=span_dump)
    try:
        port = daemon.port
        turnaround_s: list[list[float]] = [[] for __ in range(CLIENTS)]
        ids: list[list[str]] = [[] for __ in range(CLIENTS)]
        before = await healthz(port)
        cpu_before = daemon.cpu_seconds()
        start = loop.time()
        results = await asyncio.gather(*(
            _client(port, inputs.batch_inputs(seed, architecture, k, batches),
                    turnaround_s[k], ids[k])
            for k in range(CLIENTS)))
        end = loop.time()
        cpu_s = daemon.cpu_seconds() - cpu_before
        after = await healthz(port)
        wrong = sum(await asyncio.gather(*(_verify(port, own) for own in ids)))
        return Segment(
            architecture=architecture, instances=CLIENTS * batches * BATCH,
            failed=wrong + sum(r[0] for r in results), wrong=wrong,
            timed=Timed(int(start * 1e9), int(end * 1e9), end - start, cpu_s),
            turnaround_s=turnaround_s,
            stream_events=sum(r[1] for r in results), setup=setup,
            peak_rss_mb=daemon.peak_rss_mb(), before=before, after=after,
            spans=None if span_dump is None else daemon.dump_spans(),
        )
    finally:
        daemon.stop()


def _batches(architecture: str, seconds: int, traced: bool) -> int:
    batches = max(1, round(BATCHES[architecture] * seconds / 12))
    return max(1, batches // 2) if traced else batches


async def run(seed: int, seconds: int, traced: bool, tmp: Path,
              cpu: int, cal: Calibrator) -> Outcome:
    outcome = Outcome()
    repeats: dict[str, list[Segment]] = {name: [] for name in BATCHES}
    # Traced: one untraced repeat (the base of trace.overhead_share), then
    # one traced.  Otherwise REPEATS untraced ones, architectures
    # interleaved so that a slow spell of the box does not hit every
    # repeat of one architecture.
    for repeat in range(2 if traced else REPEATS):
        for architecture in BATCHES:
            dump = (tmp / f"spans-{architecture}.json"
                    if traced and repeat == 1 else None)
            done = await segment(architecture, seed,
                                 _batches(architecture, seconds, traced),
                                 cpu, dump)
            repeats[architecture].append(done)
            outcome.attempted += done.instances
            outcome.failed += done.failed
            if done.wrong:
                outcome.violations.append(
                    f"{architecture} repeat {repeat}: {done.wrong} of "
                    f"{done.instances} instances did not end committed "
                    f"with a tracking output")
    cal.stop()
    if traced:
        outcome.per_layer = _per_layer(repeats, cal)
        return outcome
    everything = [s for segments in repeats.values() for s in segments]
    firsts = [segments[0] for segments in repeats.values()]
    instances = sum(s.instances for s in firsts)
    # On this workload a client sees a batch: POST of 32 instances to the
    # instance.finished record of its last one.  The 50 ms outcome sweep
    # quantises a single turnaround by +-10 %, so batches are averaged per
    # architecture (scaled like their segment, median repeat) and, as on
    # the simulator workloads, p50 is the median architecture and p95 the
    # slowest (nearest-rank p95 of three is the maximum).
    turnaround_ms = [
        statistics.median(
            statistics.fmean(t for client in s.turnaround_s for t in client)
            * cal.wall_s(s.timed) / s.timed.wall_s for s in segments) * 1e3
        for segments in repeats.values()
    ]
    outcome.end_to_end = {
        "setup_s": statistics.median(cal.wall_s(s.setup) for s in everything),
        "throughput_per_s": instances / sum(
            statistics.median(cal.wall_s(s.timed) for s in segments)
            for segments in repeats.values()),
        "commit_p50_ms": statistics.median(turnaround_ms),
        "commit_p95_ms": percentile(turnaround_ms, 0.95),
        "cpu_ms_per_instance": sum(
            statistics.median(cal.cpu_s(s.timed) for s in segments)
            for segments in repeats.values()) * 1e3 / instances,
        "peak_rss_mb": max(s.peak_rss_mb for s in everything),
        "messages_per_instance":
            sum(delta(s, "messages_sent") for s in firsts) / instances,
    }
    return outcome


def _per_layer(repeats: dict[str, list[Segment]],
               cal: Calibrator) -> dict[str, float]:
    base = [segments[0] for segments in repeats.values()]
    traced = [segments[1] for segments in repeats.values()]
    instances = sum(s.instances for s in traced)
    life = cut = None
    for seg in traced:
        whole, window = Summary.load_cut(
            seg.spans, (seg.timed.start_ns, seg.timed.end_ns))
        life = whole if life is None else life.merge(whole)
        cut = window if cut is None else cut.merge(window)
    layer = {
        "loadgen.samples": sum(len(t) for s in traced for t in s.turnaround_s),
        "service.http.stream_events_per_instance":
            sum(s.stream_events for s in traced) / instances,
        "runtime.messages_per_instance":
            sum(delta(s, "messages_sent") for s in traced) / instances,
        "runtime.clock.events_per_instance":
            sum(delta(s, "events_processed") for s in traced) / instances,
        "runtime.executor.retries":
            sum(delta(s, "executor_retries") for s in traced),
        "obs.trace_dropped": sum(s.after["trace_dropped"] for s in traced),
        "trace.overhead_share":
            sum(cal.cpu_s(s.timed) for s in traced)
            / sum(cal.cpu_s(s.timed) for s in base) - 1.0,
        "trace.request_gap_share": life.request_gap,
    }
    for seg in traced:
        prefix = f"engines.{seg.architecture}"
        layer[f"{prefix}.messages_per_instance"] = (
            delta(seg, "messages_sent") / seg.instances)
        layer[f"{prefix}.serve_throughput_per_s"] = (
            (seg.instances - seg.failed) / cal.wall_s(seg.timed))
        layer[f"{prefix}.serve_cpu_ms_per_instance"] = (
            cal.cpu_s(seg.timed) * 1e3 / seg.instances)
    layer.update(service_layer_metrics(cut, instances))
    layer.update(engine_layer_metrics(
        life, cut, instances,
        sum(s.after["instances_submitted"] for s in traced)))
    return layer
