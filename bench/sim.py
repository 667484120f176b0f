"""Workloads ``sim-sweep`` and ``sim-failure``: the in-process simulator.

Both run the six-config evaluation grid in a fresh child process
(``sim_child.py``).  The work is CPU-bound and deterministic for a seed,
and identical passes on a shared box differ by up to 2x from one minute
to the next, so every pass of every config is scaled by the CPU's
slowdown while it ran (``calibrator.py``) and the median pass is
reported; counters must be identical across the passes.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrator import Calibrator, Timed
from daemon import BENCH_DIR, REPO, child_env, die_with_parent
from layers import engine_layer_metrics
from result import Outcome
from spans import Summary
from stats import percentile

SETUP_STARTS = 5
#: Passes at the declared ``run_seconds`` of 12 (a sweep pass takes about
#: 2.7 s on the reference box, a failure pass about 4.4 s).
PASSES = {"sweep": 5, "failure": 3}


def _child(mode: str, seed: int, cpu: int, *extra: str) -> str:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "sim_child.py"), "--mode", mode,
         "--seed", str(seed), "--cpu", str(cpu), *extra],
        cwd=REPO, env=child_env(), preexec_fn=die_with_parent,
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return done.stdout


def _setup(mode: str, seed: int, cpu: int) -> Timed:
    """Spawn -> ``import repro`` -> every config built and installed.  The
    child does nothing but compute, so its CPU time is its wall time."""
    start_ns = time.monotonic_ns()
    _child(mode, seed, cpu, "--setup-only")
    end_ns = time.monotonic_ns()
    seconds = (end_ns - start_ns) / 1e9
    return Timed(start_ns, end_ns, seconds, seconds)


def _median_pass(config: dict, scaled) -> float:
    """Median over the passes of one config of a calibrated time."""
    return statistics.median(
        scaled(Timed(**timing)) for timing in config["passes"])


def run(mode: str, seed: int, seconds: int, traced: bool, tmp: Path,
        cpu: int, cal: Calibrator) -> Outcome:
    passes = max(2, round(PASSES[mode] * seconds / 12))
    if not traced:
        setup = [_setup(mode, seed, cpu) for __ in range(SETUP_STARTS)]
        measured = json.loads(_child(mode, seed, cpu, "--passes", str(passes)))
        cal.stop()
        outcome = _check(measured)
        instances = outcome.attempted
        configs = measured["configs"]
        wall_s = [_median_pass(config, cal.wall_s) for config in configs]
        # No client waits on the simulator, so "commit latency" here is the
        # wall time one instance costs, config by config: the median
        # config and the slowest (nearest-rank p95 of six is the maximum).
        per_instance_ms = [wall * 1e3 / config["counters"]["instances"]
                           for wall, config in zip(wall_s, configs)]
        outcome.end_to_end = {
            "setup_s": statistics.median(cal.wall_s(t) for t in setup),
            "throughput_per_s": instances / sum(wall_s),
            "commit_p50_ms": statistics.median(per_instance_ms),
            "commit_p95_ms": percentile(per_instance_ms, 0.95),
            "cpu_ms_per_instance":
                sum(_median_pass(config, cal.cpu_s) for config in configs)
                * 1e3 / instances,
            "peak_rss_mb": measured["peak_rss_mb"],
            "messages_per_instance": _total(configs, "messages") / instances,
        }
        return outcome
    # Half the passes untraced (the base of trace.overhead_share and of
    # the per-config times), half traced.
    passes = max(1, passes // 2)
    base = json.loads(_child(mode, seed, cpu, "--passes", str(passes)))
    dump = tmp / "spans-sim.json"
    measured = json.loads(_child(mode, seed, cpu, "--passes", str(passes),
                                 "--spans", str(dump)))
    cal.stop()
    outcome = _check(measured)
    if ([c["counters"] for c in base["configs"]]
            != [c["counters"] for c in measured["configs"]]):
        outcome.violations.append("counters differ between the traced and "
                                  "the untraced run of the same seed")
    outcome.per_layer = _per_layer(measured, base, Summary.load(str(dump)),
                                   outcome.attempted, passes, cal)
    return outcome


def _total(configs: list[dict], counter: str) -> float:
    return sum(config["counters"][counter] for config in configs)


def _check(measured: dict) -> Outcome:
    """Every instance reached a terminal outcome (a seeded abort is one),
    and the counters of every pass were identical."""
    outcome = Outcome()
    for config in measured["configs"]:
        label = f"{config['architecture']}/{config['mode']}"
        counters = config["counters"]
        outcome.attempted += counters["instances"]
        outcome.failed += counters["instances"] - counters["terminal"]
        if not config["stable"]:
            outcome.violations.append(
                f"{label}: counters differ between passes of one seed")
        if counters["committed"] + counters["aborted"] != counters["instances"]:
            outcome.violations.append(
                f"{label}: {counters['committed']} committed + "
                f"{counters['aborted']} aborted of {counters['instances']}")
    return outcome


def _per_layer(measured: dict, base: dict, spans: Summary, instances: int,
               passes: int, cal: Calibrator) -> dict[str, float]:
    configs = measured["configs"]
    layer = {
        "runtime.messages_per_instance": _total(configs, "messages") / instances,
        "runtime.clock.events_per_instance":
            _total(configs, "events") / instances,
        "core.compensate_work_share":
            _total(configs, "compensate_work") / _total(configs, "execute_work"),
        "sim.kernel.events_per_s":
            _total(configs, "events") * passes
            / (spans.total_ns["sim.kernel.run"] / 1e9),
        "sim.kernel.events_per_instance": _total(configs, "events") / instances,
        "trace.overhead_share":
            sum(_median_pass(c, cal.cpu_s) for c in configs)
            / sum(_median_pass(c, cal.cpu_s) for c in base["configs"]) - 1.0,
        "trace.request_gap_share": spans.request_gap,
    }
    for config, untraced in zip(configs, base["configs"]):
        prefix = f"engines.{config['architecture']}"
        counters = config["counters"]
        per_instance = counters["instances"]
        layer[f"{prefix}.{config['mode']}_ms_per_instance"] = (
            _median_pass(untraced, cal.wall_s) * 1e3 / per_instance)
        # Both modes of an architecture, averaged.
        for name, counter in (("messages_per_instance", "messages"),
                              ("max_node_load_per_instance", "max_node_load")):
            key = f"{prefix}.{name}"
            layer[key] = layer.get(key, 0.0) + counters[counter] / per_instance / 2
    layer.update(engine_layer_metrics(spans, spans, instances * passes,
                                      instances * passes))
    return layer
