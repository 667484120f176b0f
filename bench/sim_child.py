"""The process that does the work of the two simulator workloads.

``run.py`` starts this file as a fresh child so that set-up time and peak
memory are those of the process doing the work.  It builds the six-config
evaluation grid (3 architectures x normal/coordinated, Table-3 point
``c=4, i=25``: 100 instances per config, 600 per pass), runs it
``--passes`` times and prints one JSON object: for every config the
seed-determined counters and, pass by pass, when it ran and the wall and
CPU time it took (``run.py`` scales those by the CPU's slowdown at the
time, see ``calibrator.py``).

``--mode failure`` raises the Table-3 failure rates to the top of their
ranges and makes every schema's designated failure step fail its first
attempt, so every instance rolls back once and recovers through OCR.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

from daemon import peak_rss_mb


def build_config(architecture: str, coordination: bool, failure: bool, seed: int):
    """One evaluation config, built and installed but not yet driven."""
    from repro.analysis.experiment import EVAL_PARAMS, build_control_system
    from repro.core.programs import ConstantProgram, FailEveryNth
    from repro.workloads.generator import WorkloadGenerator

    params = EVAL_PARAMS
    if failure:
        params = params.evolve(pf=0.2, pi=0.05, pa=0.05, pr=0.5)
    generator = WorkloadGenerator(params, seed=seed, key_pool=2,
                                  coordination=coordination)
    workload = generator.build()
    system = build_control_system(architecture, params, seed=seed)
    generator.install(system, workload)
    if failure:
        for schema in workload.schemas:
            failing = schema.steps[workload.failure_steps[schema.name]]
            outputs = {out: f"{schema.name}.{failing.name}.{out}"
                       for out in failing.outputs}
            system.register_program(
                failing.program, FailEveryNth(ConstantProgram(outputs), {1}))
    return generator, workload, system


def grid():
    from repro.analysis.sweep import sweep_tasks

    return [(task.architecture, task.coordination) for task in sweep_tasks()]


def run_config(architecture: str, coordination: bool, failure: bool,
               seed: int) -> dict:
    """Build, drive and run one config; returns its timings and counters."""
    gc.collect()
    start_ns = time.monotonic_ns()
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    generator, workload, system = build_config(
        architecture, coordination, failure, seed)
    run = generator.drive(system, workload)
    system.run()
    wall = time.perf_counter() - wall_start
    cpu = time.process_time() - cpu_start
    metrics = system.metrics
    outcomes = system.outcomes
    nodes = (system.agent_names() if architecture == "distributed"
             else system.engine_nodes())
    return {
        "timing": {"start_ns": start_ns, "end_ns": time.monotonic_ns(),
                   "wall_s": wall, "cpu_s": cpu},
        "counters": {
            "instances": len(run.instances),
            "terminal": sum(1 for iid in run.instances if iid in outcomes),
            "committed": metrics.instances_committed,
            "aborted": metrics.instances_aborted,
            "messages": metrics.total_messages(),
            "events": system.simulator.events_processed,
            "max_node_load": max(metrics.node_load(node) for node in nodes),
            "execute_work": metrics.total_work("execute"),
            "compensate_work": metrics.total_work("compensate"),
            # Simulated finish times: the same seed must schedule alike.
            "finished_at_sum": round(sum(
                outcomes[iid].finished_at for iid in run.instances
                if iid in outcomes), 6),
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("sweep", "failure"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--cpu", type=int, default=None,
                        help="pin this process to one CPU")
    parser.add_argument("--setup-only", action="store_true",
                        help="import, build and install every config, then exit")
    parser.add_argument("--spans", default=None, metavar="FILE",
                        help="record layer spans and write them to FILE")
    args = parser.parse_args()
    failure = args.mode == "failure"
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    recorder = None
    if args.spans:
        from layers import install_engine_spans
        from spans import Recorder

        recorder = Recorder()
        install_engine_spans(recorder)

    if args.setup_only:
        for architecture, coordination in grid():
            build_config(architecture, coordination, failure, args.seed)
        return 0

    configs = []
    for architecture, coordination in grid():
        configs.append({
            "architecture": architecture,
            "mode": "coordinated" if coordination else "normal",
            "passes": [], "counters": None, "stable": True,
        })
    for __ in range(args.passes):
        for config, (architecture, coordination) in zip(configs, grid()):
            result = run_config(architecture, coordination, failure, args.seed)
            config["passes"].append(result["timing"])
            if config["counters"] is None:
                config["counters"] = result["counters"]
            elif config["counters"] != result["counters"]:
                config["stable"] = False
    json.dump({"configs": configs, "peak_rss_mb": peak_rss_mb()}, sys.stdout)
    print()
    if recorder is not None:
        recorder.dump(args.spans)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
