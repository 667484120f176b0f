#!/usr/bin/env python3
"""The repository's benchmark: one command, four workloads.

    python3 bench/run.py                      every workload, tracing off
    python3 bench/run.py --workload serve-open --seed 3 --seconds 12 --trace 0
    python3 bench/run.py --workload sim-failure --trace 1     per-layer run

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Metric
names and units are the ones ``BENCHMARK.json`` declares; a workload that
does not exercise a layer reports that layer's counts and times as 0.
Exit status is 0 unless an output was wrong (see README.md).
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from calibrator import Calibrator
from daemon import BENCH_DIR, REPO, SRC, cpus
from result import Outcome

SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_workload(name: str, seed: int, seconds: int, traced: bool,
                 tmp: Path) -> Outcome:
    client_cpu, work_cpu = cpus()
    os.sched_setaffinity(0, {client_cpu})
    with Calibrator(work_cpu) as cal:
        if name.startswith("sim-"):
            import sim

            return sim.run(name.removeprefix("sim-"), seed, seconds, traced,
                           tmp, work_cpu, cal)
        import serve_batch
        import serve_open

        module = serve_open if name == "serve-open" else serve_batch
        # The load generator allocates little and must not pause: collect
        # once, then keep the collector out of the timed window.
        gc.collect()
        gc.freeze()
        gc.disable()
        return asyncio.run(
            module.run(seed, seconds, traced, tmp, work_cpu, cal))


def environment_notes() -> list[str]:
    """Rule (f): record the box, and flag a run that started on a busy one."""
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    notes = [f"nproc {nproc}, 1-minute load average {load:.2f}"]
    if load > nproc:
        notes.append(f"BUSY BOX: load average {load:.2f} > nproc {nproc} at "
                     f"start; timings of this run are suspect")
    return notes


def report(name: str, outcome: Outcome, traced: bool) -> int:
    declared = SPEC["per_layer" if traced else "end_to_end"]
    measured = outcome.per_layer if traced else outcome.end_to_end
    unknown = set(measured) - {metric["name"] for metric in declared}
    if unknown:
        raise SystemExit(f"{name} reported undeclared metrics {sorted(unknown)}")
    if traced:
        measured.setdefault("failed_share", outcome.failed / outcome.attempted)
        if measured.get("trace.request_gap_share", 0.0) > 0.1:
            outcome.violations.append(
                "a request's self times do not sum to within 10 % of its "
                "root span: the span recorder is broken")
    elif len(measured) != len(declared):
        missing = {metric["name"] for metric in declared} - set(measured)
        raise SystemExit(f"{name} did not report {sorted(missing)}")
    print(f"workload {name} ({'traced' if traced else 'tracing off'}): "
          f"{outcome.attempted} attempted, {outcome.failed} failed")
    for note in environment_notes() + outcome.notes:
        print(f"  note: {note}")
    for violation in outcome.violations:
        print(f"  WRONG OUTPUT: {violation}")
    metrics = {}
    for metric in declared:
        # A layer the workload does not exercise did no work: 0.
        value = float(measured.get(metric["name"], 0.0))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<48} {value:>14.4f} {metric['unit']}")
    print(json.dumps({
        "correct": not outcome.violations,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 1 if outcome.violations else 0


def run_all(seed: int, seconds: int) -> int:
    """Every workload in a fresh child process each, tracing off."""
    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"])
        status = status or child.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all, tracing off)")
    parser.add_argument("--seed", type=int, default=1,
                        help="generates every input of the run")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"],
                        help="sizes the timed work (about this long on the "
                             "reference 2-core box)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run that yields per-layer metrics")
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    # SIGTERM unwinds like an exception, so ``finally`` blocks and context
    # managers stop the children and remove the temporary directory.
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(143))
    # State directories and span dumps live in a temporary directory
    # inside the checkout, removed on every exit path.
    tmp = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=REPO))
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return report(args.workload, outcome, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
