#!/usr/bin/env python3
"""Does the benchmark repeat?  Two sets of runs of the same code.

    python3 bench/selfcheck.py [--runs 10] [--workload NAME ...]

Runs every workload ``--runs`` times (seeds 1..runs, tracing off), then
does it all again with the same seeds, and prints for each workload x
end-to-end metric: both medians, their relative difference, the spread
of each set (distance between the first and third quartile as a share of
the median, ``statistics.quantiles(values, n=4)``) and the metric's
bound.  A benchmark is steady when every spread stays below a third of
the bound and the second median is not worse than the first by more than
the bound.  Counts that a seed determines (``messages_per_instance`` of
the simulator workloads) must come out identical in both sets.

Exit status 1 when a bound is exceeded, a seeded count differs, or a run
failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from daemon import BENCH_DIR
from run import SPEC, WORKLOADS

#: Metrics that are a pure function of (workload, seed).
SEEDED_COUNTS = {("sim-sweep", "messages_per_instance"),
                 ("sim-failure", "messages_per_instance")}


def one_run(workload: str, seed: int) -> dict[str, float] | None:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        print(f"  {workload} seed {seed}: exit {done.returncode}\n{done.stdout}",
              flush=True)
        return None
    result = json.loads(done.stdout.splitlines()[-1])
    if result["failed"] or not result["correct"]:
        print(f"  {workload} seed {seed}: {result['failed']} failed, "
              f"correct={result['correct']}", flush=True)
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def spread(values: list[float]) -> float:
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    workloads = args.workload or WORKLOADS
    bad = 0
    sets: list[dict[str, list[dict[str, float]]]] = []
    for number in (1, 2):
        started = time.monotonic()
        runs: dict[str, list[dict[str, float]]] = {w: [] for w in workloads}
        for seed in range(1, args.runs + 1):
            for workload in workloads:
                metrics = one_run(workload, seed)
                if metrics is None:
                    return 1
                runs[workload].append(metrics)
        sets.append(runs)
        print(f"set {number}: {args.runs} runs of {len(workloads)} workloads "
              f"in {time.monotonic() - started:.0f} s", flush=True)

    print(f"{'workload':<12} {'metric':<22} {'median 1':>11} {'median 2':>11} "
          f"{'worse by':>9} {'spread 1':>9} {'spread 2':>9} {'bound':>6}")
    for workload in workloads:
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = [run[name] for run in sets[0][workload]]
            second = [run[name] for run in sets[1][workload]]
            medians = statistics.median(first), statistics.median(second)
            worse = (medians[1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                worse = -worse
            spreads = spread(first), spread(second)
            verdict = ""
            if name != "setup_s" and max(spreads) > bound:
                verdict, bad = "SPREAD OVER BOUND", bad + 1
            elif worse > bound:
                verdict, bad = "SECOND SET WORSE THAN BOUND", bad + 1
            elif name != "setup_s" and max(spreads) > bound / 3:
                verdict = "spread over a third of the bound"
            if (workload, name) in SEEDED_COUNTS and first != second:
                verdict, bad = "SEEDED COUNT DIFFERS", bad + 1
            print(f"{workload:<12} {name:<22} {medians[0]:>11.4f} "
                  f"{medians[1]:>11.4f} {worse:>+9.1%} {spreads[0]:>9.1%} "
                  f"{spreads[1]:>9.1%} {bound:>6.0%}  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
