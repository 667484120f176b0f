"""What both serve workloads share: booting a warmed daemon and reading
an instance's final record."""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import client
from calibrator import Timed
from daemon import BOOT_BUDGET_S, REPO, Daemon

LAWS = (REPO / "examples" / "order_fulfilment.laws").read_text(encoding="utf-8")
WORKFLOW = "Orders"
WARMUP_BATCH = 32
#: No instance of these workloads legitimately takes this long; a stream
#: still open after it counts as a failed instance, not a hung benchmark.
INSTANCE_TIMEOUT_S = 20.0


@dataclass
class Final:
    """An instance's last stream record and what preceded it."""

    record: dict[str, Any] | None
    events: int                 # NDJSON lines received
    finished_at: float          # loop time the final record arrived
    commit_seen_at: float | None  # loop time of the workflow.commit event

    @property
    def ok(self) -> bool:
        record = self.record
        return (record is not None and record.get("status") == "committed"
                and bool(record.get("outputs", {}).get("tracking")))


async def read_final(port: int, instance_id: str) -> Final:
    """Follow ``GET /instances/<id>/events`` to its ``instance.finished``."""
    loop = asyncio.get_running_loop()
    record, events, commit_seen_at = None, 0, None
    finished_at = loop.time()

    async def follow() -> None:
        nonlocal record, events, commit_seen_at, finished_at
        async for event in client.stream(port, f"/instances/{instance_id}/events"):
            events += 1
            kind = event.get("kind")
            if kind == "workflow.commit":
                commit_seen_at = loop.time()
            elif kind == "instance.finished":
                record, finished_at = event, loop.time()

    try:
        await asyncio.wait_for(follow(), INSTANCE_TIMEOUT_S)
    except (asyncio.TimeoutError, OSError, ValueError):
        record = None
    return Final(record, events, finished_at, commit_seen_at)


async def submit(port: int, body: dict[str, Any]) -> list[str] | None:
    """POST /workflows; the acknowledged instance ids, or None if refused
    or errored."""
    try:
        status, payload = await client.request(port, "POST", "/workflows", body)
    except (OSError, ValueError):
        return None
    if status != 200:
        return None
    return payload["instances"]


async def healthz(port: int) -> dict[str, Any]:
    return (await client.request(port, "GET", "/healthz"))[1]


def delta(measured: Any, key: str) -> float:
    """Growth of one ``/healthz`` counter over a window or segment."""
    return measured.after[key] - measured.before[key]


async def wait_ready(daemon: Daemon) -> None:
    """Poll ``/readyz`` until it answers 200."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + BOOT_BUDGET_S
    while loop.time() < deadline:
        if daemon.process.poll() is not None:
            raise RuntimeError("daemon exited before it became ready")
        try:
            status, __ = await client.request(daemon.port, "GET", "/readyz")
        except OSError:
            status = 0
        if status == 200:
            return
        await asyncio.sleep(0.01)
    raise TimeoutError(f"daemon not ready within {BOOT_BUDGET_S:.0f}s")


async def boot(architecture: str, work_time_scale: float, cpu: int, *,
               state_dir: Path | None = None,
               span_dump: Path | None = None) -> tuple[Daemon, Timed]:
    """Start a daemon and bring it to the state a measurement starts from:
    ``/readyz`` 200, the order document installed, one warm-up batch of 32
    committed.  Returns the daemon and what that took from spawn — the
    workload's ``setup_s`` sample.  The caller owns the daemon."""
    daemon = Daemon(architecture, work_time_scale, cpu,
                    state_dir=state_dir, span_dump=span_dump)
    try:
        await wait_ready(daemon)
        ids = await submit(daemon.port, {
            "laws": LAWS, "inputs": {"part": "warm-up", "qty": 1},
            "instances": WARMUP_BATCH,
        })
        if ids is None:
            raise RuntimeError("daemon refused the warm-up batch")
        finals = [await read_final(daemon.port, iid) for iid in ids]
        if not all(final.ok for final in finals):
            raise RuntimeError("warm-up batch did not commit")
    except BaseException:
        daemon.stop()
        raise
    end_ns = time.monotonic_ns()
    return daemon, Timed(daemon.spawned_ns, end_ns,
                         (end_ns - daemon.spawned_ns) / 1e9,
                         daemon.cpu_seconds())
