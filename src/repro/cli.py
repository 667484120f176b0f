"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``tables``
    Print the paper's analytic Tables 4-6 and the Table 7 recommendation
    matrix at the calibrated Table 3 parameter point (or overrides).
``compare``
    Run one Table-3 workload under all three architectures and print
    measured-vs-model costs (a fast, self-contained mini-evaluation).
``check``
    Parse and validate a LAWS specification file; print the compiled
    summary (schemas, steps, rules, coordination specs).
``run``
    Load a LAWS file, start N instances of a workflow under a chosen
    architecture, and print the outcomes (and optionally the trace).
``scenario``
    Run one of the canonical paper scenarios (figure3, orders, travel).
``evaluate``
    Regenerate the paper's full evaluation (Tables 4-7 + the OCR ablation)
    as a markdown report.
``sweep``
    The same evaluation fanned out over a process pool
    (``--workers N``; per-config seeds keep every result identical to the
    serial run), printing per-config wall times and the merged report.
``trace``
    Run a scenario and export its span trace (Chrome trace-event JSON,
    loadable in Perfetto / chrome://tracing, or JSONL), with ``--node`` /
    ``--category`` filters and a ``--follow <instance>`` causal-chain view.
``metrics``
    Run a scenario and export its metrics in Prometheus text format.
``analyze``
    Load a JSONL trace file, reconstruct per-instance causal timelines
    (critical path, per-phase latency), flag broken-causality anomalies,
    and optionally check the protocol-invariant catalog
    (``--check-invariants`` exits non-zero on violation).
``chaos``
    Fan deterministic random fault schedules (message drop/dup/delay/
    reorder, link outages, node crash+restart, stalls) across the six
    architecture×coordination configs and check every run against the
    protocol invariants plus liveness/durability checks.  A violating
    run is minimized and reported as a one-line replayable repro;
    ``--seed S --plan SPEC`` replays one schedule bit-for-bit.
``profile``
    Run one config (``--config distributed-failure``) or the full sweep
    grid (``--sweep``) under the in-engine instrumentation profiler and
    print the ranked top-frames table; ``--collapsed`` writes
    flamegraph-ready collapsed stacks, ``--chrome`` a Chrome trace with
    counter tracks, ``--metrics-out`` the profile counters as Prometheus
    text.
``serve``
    Run the wall-clock workflow daemon (HTTP/JSON front door) with its
    observability plane: ``/metrics`` Prometheus scrape, ``/debug/trace``
    JSONL snapshot, ``/debug/profile`` collapsed stacks, structured
    NDJSON logs (``--log-out``), liveness (``/healthz``) vs readiness
    (``/readyz``).
``top``
    Tail a running daemon's ``/events`` stream and ``/metrics`` scrape
    into a live per-instance status view (``--once`` for one snapshot).
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.causal import CausalTrace
from repro.analysis.experiment import (
    build_control_system,
    evaluation_from_sweep,
    full_evaluation,
    render_evaluation,
    run_architecture_experiment,
)
from repro.analysis.profiling import profile_configs, run_profiled_sweep
from repro.analysis.sweep import run_sweep, sweep_tasks
from repro.analysis.invariants import INVARIANTS, check_invariants
from repro.analysis.model import architecture_model
from repro.analysis.recommend import recommendation_matrix
from repro.analysis.report import (
    format_table,
    render_architecture_table,
    render_recommendation,
)
from repro.engines import CONTROL_SYSTEMS
from repro.errors import CrewError
from repro.laws import load_laws
from repro.model import compile_schema
from repro.obs import (
    MetricsRegistry,
    prometheus_text,
    render_chrome_trace,
    trace_to_jsonl,
)
from repro.workloads import (
    WorkloadParameters,
    figure3_workflow,
    order_processing,
    travel_booking,
)

__all__ = ["main"]


def _emit(text: str, out: str | None) -> None:
    """Write exporter output to ``--out`` (or stdout)."""
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {out}", file=sys.stderr)
    else:
        print(text)


def _export_observability(system, args) -> None:
    """Honour ``--trace-out`` / ``--metrics-out`` flags after a run."""
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if not trace_out and not metrics_out:
        return
    system.tracer.finish(system.simulator.now)
    if trace_out:
        _emit(render_chrome_trace(system.tracer, system.trace), trace_out)
    if metrics_out:
        _emit(prometheus_text(system.registry), metrics_out)


SCENARIOS = {
    "figure3": (figure3_workflow, "Figure3", {"load": 5}),
    "orders": (order_processing, "OrderProcessing",
               {"part": "gasket", "qty": 2}),
    "travel": (travel_booking, "TravelBooking",
               {"traveller": "cli", "dates": "now"}),
}


def _run_scenario(args) -> tuple:
    """Run one canonical scenario with tracing on; returns (system, ids)."""
    factory, schema_name, inputs = SCENARIOS[args.name]
    params = WorkloadParameters()
    system = build_control_system(args.architecture, params, seed=args.seed,
                                  trace=True)
    factory().install(system)
    instances = [
        system.start_workflow(schema_name, inputs, delay=i * 0.5)
        for i in range(args.instances)
    ]
    system.run()
    return system, instances


def _params_from(args) -> WorkloadParameters:
    overrides = {}
    for symbol in ("s", "e", "z", "a", "r", "v", "f"):
        value = getattr(args, symbol, None)
        if value is not None:
            overrides[symbol] = value
    return WorkloadParameters(**overrides) if overrides else WorkloadParameters()


def cmd_tables(args) -> int:
    params = _params_from(args)
    for architecture in CONTROL_SYSTEMS:
        print(render_architecture_table(architecture_model(architecture, params)))
        print()
    print(render_recommendation(recommendation_matrix(params)))
    return 0


def cmd_compare(args) -> int:
    params = _params_from(args).evolve(c=2, i=args.instances)
    for architecture in CONTROL_SYSTEMS:
        result = run_architecture_experiment(architecture, params,
                                             seed=args.seed)
        print(result.report())
        print()
    return 0


def cmd_check(args) -> int:
    with open(args.file, "r", encoding="utf-8") as handle:
        source = handle.read()
    document = load_laws(source)
    rows = []
    for schema in document.schemas:
        compiled = compile_schema(schema)
        rows.append([
            schema.name,
            len(schema.steps),
            len(compiled.rule_templates),
            len(compiled.terminal_steps),
            len(schema.compensation_sets),
            len(schema.rollback_points),
        ])
    print(format_table(
        ["workflow", "steps", "rules", "terminals", "comp. sets",
         "rollback points"],
        rows,
    ))
    if document.specs:
        print()
        print(format_table(
            ["coordination spec", "kind", "schemas"],
            [[spec.name, type(spec).__name__,
              f"{spec.schema_a} / {spec.schema_b}"] for spec in document.specs],
        ))
    print(f"\nOK: {len(document.schemas)} workflow(s), "
          f"{len(document.specs)} coordination spec(s).")
    return 0


def cmd_run(args) -> int:
    with open(args.file, "r", encoding="utf-8") as handle:
        document = load_laws(handle.read())
    params = WorkloadParameters()
    instrument = args.trace or bool(args.trace_out) or bool(args.metrics_out)
    system = build_control_system(args.architecture, params, seed=args.seed,
                                  trace=instrument)
    document.install(system)
    schema_name = args.workflow or document.schemas[0].name
    inputs = {}
    for pair in args.input or []:
        name, __, value = pair.partition("=")
        try:
            inputs[name] = int(value)
        except ValueError:
            inputs[name] = value
    instances = [
        system.start_workflow(schema_name, inputs, delay=i * args.gap)
        for i in range(args.instances)
    ]
    system.run()
    if args.trace:
        print(system.trace.render())
        print()
    for instance in instances:
        try:
            outcome = system.outcome(instance)
            print(f"{instance}: {outcome.status.value}  {outcome.outputs}")
        except CrewError:
            print(f"{instance}: still running (deadlocked spec?)")
    committed = len(system.committed_instances())
    print(f"\n{committed}/{len(instances)} committed under "
          f"{args.architecture} control; "
          f"{system.metrics.total_messages()} physical messages.")
    _export_observability(system, args)
    return 0


def _print_report(report: str, output: str | None) -> None:
    """The markdown report on stdout, or in ``--output`` with a note."""
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print(f"wrote {output}")
    else:
        print(report)


def cmd_evaluate(args) -> int:
    results = full_evaluation(seed=args.seed, workers=args.workers)
    _print_report(render_evaluation(results), args.output)
    return 0


def _print_progress(done: int, total: int, task, result) -> None:
    """Per-task status line on stderr (``--progress``): sweep or chaos."""
    verdict = {True: ", ok", False: ", VIOLATION"}.get(
        getattr(result, "ok", None), "")
    print(f"  [{done}/{total}] {task.label}: "
          f"{result.wall_time_s:.2f}s wall, "
          f"{result.events_per_sec:,.0f} events/s{verdict}",
          file=sys.stderr, flush=True)


def cmd_sweep(args) -> int:
    import time as _time

    tasks = sweep_tasks(seed=args.seed)
    started = _time.perf_counter()
    sweep = run_sweep(tasks, workers=args.workers,
                      progress=_print_progress if args.progress else None)
    wall = _time.perf_counter() - started
    print(f"# sweep: {len(tasks)} configs on {sweep.workers} worker(s), "
          f"{wall:.2f}s wall")
    print()
    print(format_table(
        ["config", "committed", "aborted", "messages", "task wall s",
         "events/s"],
        [[row.get("label", "-"), row["committed"], row["aborted"],
          row["messages"], f"{row['wall_time_s']:.3f}",
          f"{row.get('events_per_sec', 0):,.0f}"]
         for row in sweep.run_log],
    ))
    if args.report:
        print()
        _print_report(render_evaluation(evaluation_from_sweep(sweep, args.seed)),
                      args.output)
    return 0


def cmd_scenario(args) -> int:
    system, instances = _run_scenario(args)
    print(system.trace.render(limit=60))
    print()
    for instance in instances:
        outcome = system.outcome(instance)
        print(f"{instance}: {outcome.status.value}  {outcome.outputs}")
    _export_observability(system, args)
    return 0


def cmd_trace(args) -> int:
    system, __ = _run_scenario(args)
    system.tracer.finish(system.simulator.now)
    drops = system.trace.drop_summary(system.tracer.dropped)
    if drops is not None:
        print(f"warning: {drops}", file=sys.stderr)
    nodes = set(args.node) if args.node else None
    categories = set(args.category) if args.category else None
    if args.follow:
        ct = CausalTrace.from_run(system.trace, system.tracer)
        path = ct.critical_path(args.follow)
        if not path:
            print(f"error: no spans for instance {args.follow!r}",
                  file=sys.stderr)
            return 1
        lines = [f"causal chain for {args.follow} ({len(path)} spans):"]
        for span in path:
            edge = ""
            if span.link_id is not None:
                link = ct.by_id.get(span.link_id)
                if link is not None:
                    edge = f"  <-link- #{link.span_id} @{link.node}"
            lines.append(
                f"  [{span.start:9.3f}] #{span.span_id:<5} "
                f"{span.node:<14} {span.category:<12} {span.name}{edge}"
            )
        _emit("\n".join(lines), args.out)
        return 0
    if args.format == "chrome":
        _emit(render_chrome_trace(system.tracer, system.trace,
                                  nodes=nodes, categories=categories),
              args.out)
    else:
        _emit(trace_to_jsonl(system.trace, system.tracer,
                             nodes=nodes, categories=categories),
              args.out)
    return 0


def cmd_analyze(args) -> int:
    with open(args.file, "r", encoding="utf-8") as handle:
        ct = CausalTrace.from_jsonl(handle.read())
    instances = ct.instances()
    if args.instance:
        instances = [i for i in instances if i in set(args.instance)]
    print(f"{args.file}: {len(ct.spans)} spans, {len(ct.records)} records, "
          f"{len(instances)} instance(s)")
    for instance in instances:
        timeline = ct.timeline(instance)
        if not timeline:
            continue
        start = min(s.start for s in timeline)
        end = max(s.end if s.end is not None else s.start for s in timeline)
        path = ct.critical_path(instance)
        print(f"\n{instance}: {len(timeline)} spans, "
              f"makespan {end - start:.3f} "
              f"[{start:.3f} .. {end:.3f}]")
        for phase in ct.phase_latency(instance):
            print(f"  phase {phase.category:<14} {phase.span_count:>4} spans  "
                  f"{phase.total:9.3f} time units")
        print(f"  critical path: {len(path)} spans, "
              f"{' -> '.join(s.name for s in path[-6:])}"
              + (" (tail)" if len(path) > 6 else ""))
    anomalies = ct.anomalies()
    exit_code = 0
    if anomalies:
        print(f"\n{len(anomalies)} anomal{'y' if len(anomalies) == 1 else 'ies'}:")
        for anomaly in anomalies:
            print(f"  {anomaly}")
        if args.strict:
            exit_code = 1
    else:
        print("\nno causal anomalies.")
    if args.check_invariants:
        violations = check_invariants(
            ct, list(args.invariant) if args.invariant else None
        )
        if violations:
            print(f"\n{len(violations)} invariant violation(s):")
            for violation in violations:
                print(violation.render())
            exit_code = 1
        else:
            checked = args.invariant or sorted(INVARIANTS)
            print(f"\ninvariants OK: {', '.join(checked)}")
    return exit_code


def cmd_metrics(args) -> int:
    system, __ = _run_scenario(args)
    system.tracer.finish(system.simulator.now)
    _emit(prometheus_text(system.registry), args.out)
    return 0


def _cmd_chaos_realtime(args) -> int:
    """`repro chaos --runtime asyncio`: wall-clock outcome-consistency runs."""
    from repro.analysis.chaos import run_realtime_chaos

    configs = tuple(args.config) if args.config else ("centralized/normal",)
    seed = args.seed if args.seed is not None else args.seed_base
    plan = args.plan if args.plan is not None else "drop=0.05,dup=0.05,delay=0.05"
    rows, bad = [], 0
    for label in configs:
        report = run_realtime_chaos(label, seed=seed, plan_spec=plan,
                                    replays=args.replays)
        if not report.consistent:
            bad += 1
        committed = (sum(1 for v in report.digests[0].values()
                         if v.startswith("committed"))
                     if report.digests else 0)
        rows.append([
            label, seed, report.instances, report.replays,
            f"{committed}/{report.instances}",
            len(report.unfinished) or "-",
            f"{report.wall_time_s:.2f}s",
            "consistent" if report.consistent else "DIVERGED",
        ])
    print(format_table(
        ["config", "seed", "instances", "replays", "committed",
         "unfinished", "wall", "verdict"],
        rows,
    ))
    print(f"\n{len(configs)} wall-clock chaos run(s) with plan '{plan}', "
          f"{bad} inconsistent.")
    return 1 if bad else 0


def cmd_chaos(args) -> int:
    import json
    import os

    from repro.analysis.chaos import CHAOS_CONFIGS, chaos_tasks, run_chaos

    if args.runtime != "sim":
        return _cmd_chaos_realtime(args)

    configs = tuple(args.config) if args.config else CHAOS_CONFIGS
    seeds = [args.seed] if args.seed is not None else list(
        range(args.seed_base, args.seed_base + args.seeds)
    )
    tasks = chaos_tasks(seeds, configs=configs, plan_spec=args.plan or "",
                        strict=args.strict)
    outcomes = run_chaos(tasks, workers=args.workers,
                         progress=_print_progress if args.progress else None)

    rows = []
    for outcome in outcomes:
        rows.append([
            outcome.config, outcome.seed,
            f"{outcome.committed}/{outcome.started}", outcome.aborted,
            outcome.messages, outcome.lost_messages,
            len(outcome.violations) or "-",
        ])
    print(format_table(
        ["config", "seed", "committed", "aborted", "messages", "lost",
         "violations"],
        rows,
    ))
    bad = [o for o in outcomes if not o.ok]
    print(f"\n{len(outcomes)} run(s), {len(bad)} with violations.")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        summary = [o.as_dict() for o in outcomes]
        path = os.path.join(args.out, "chaos-summary.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
        print(f"wrote {path}")
    for outcome in bad:
        print(f"\n=== {outcome.config} seed {outcome.seed} "
              f"(plan {outcome.plan_spec})")
        for violation in outcome.violations:
            print(violation)
        print(f"repro: {outcome.repro_line}")
        if args.out and outcome.trace_jsonl is not None:
            name = (f"chaos-{outcome.config.replace('/', '-')}"
                    f"-seed{outcome.seed}")
            trace_path = os.path.join(args.out, f"{name}.trace.jsonl")
            with open(trace_path, "w", encoding="utf-8") as handle:
                handle.write(outcome.trace_jsonl)
            repro_path = os.path.join(args.out, f"{name}.repro.txt")
            with open(repro_path, "w", encoding="utf-8") as handle:
                handle.write(outcome.repro_line + "\n")
            print(f"artifacts: {trace_path}, {repro_path}")
    return 1 if bad else 0


def cmd_profile(args) -> int:
    import json

    if args.sweep or not args.config:
        configs = profile_configs()
        if args.config:
            configs += [c for c in args.config if c not in configs]
    else:
        configs = list(args.config)
    runs, prof = run_profiled_sweep(
        configs, seed=args.seed, sample_interval=args.sample_interval,
    )
    print(f"# profile: {len(runs)} config(s), seed {args.seed}, "
          f"{sum(r.wall_time_s for r in runs):.2f}s profiled wall")
    print()
    print(format_table(
        ["config", "committed", "aborted", "messages", "events",
         "sim time", "wall s", "events/s", "peak RSS KB"],
        [[run.config, run.committed, run.aborted, run.messages, run.events,
          f"{run.sim_time:.1f}", f"{run.wall_time_s:.3f}",
          f"{run.events_per_sec:,.0f}",
          run.peak_rss_kb if run.peak_rss_kb is not None else "-"]
         for run in runs],
    ))
    print()
    print(prof.render_top(limit=args.top))
    if args.collapsed:
        _emit(prof.collapsed(), args.collapsed)
    else:
        print()
        print("# collapsed stacks (flamegraph input: frame;frame;... self_us)")
        print(prof.collapsed())
    if args.chrome:
        _emit(json.dumps(prof.chrome_counter_trace(), indent=1), args.chrome)
    if args.metrics_out:
        registry = MetricsRegistry()
        prof.publish(registry)
        _emit(prometheus_text(registry), args.metrics_out)
    if args.json:
        _emit(json.dumps({
            "seed": args.seed,
            "runs": [run.as_dict() for run in runs],
            "profile": prof.summary(),
            "top_frames": [stat.as_dict() for stat in prof.top_frames()],
        }, indent=1), args.json)
    return 0


def cmd_serve(args) -> int:
    """Boot the wall-clock daemon and serve until interrupted."""
    import asyncio
    import signal

    from repro.obs.logging import StructuredLogger, open_log_stream
    from repro.service import WorkflowService, serve as serve_forever

    logger = StructuredLogger(
        stream=open_log_stream(args.log_out),
        min_level=args.log_level,
        service="repro-serve",
    )
    service = WorkflowService(
        architecture=args.architecture,
        seed=args.seed,
        latency=args.latency,
        work_time_scale=args.work_time_scale,
        num_agents=args.agents,
        observability=not args.no_observability,
        trace_capacity=args.trace_capacity,
        logger=logger,
        state_dir=args.state_dir,
        max_inflight=args.max_inflight,
        rate_limit=args.rate_limit,
        rate_burst=args.burst,
        enable_fault_endpoint=args.enable_fault_endpoint,
    )

    async def run() -> None:
        ready = asyncio.Event()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-POSIX loop: SIGTERM falls back to abrupt exit
        task = asyncio.ensure_future(
            serve_forever(service, args.host, args.port, ready=ready)
        )
        await ready.wait()
        surfaces = ("" if args.no_observability
                    else ", GET /metrics | /debug/trace | /debug/profile")
        recovered = service.status().get("instances_recovered", 0)
        durable = (f" [state-dir {args.state_dir}, {recovered} instance(s) "
                   f"recovered]" if args.state_dir else "")
        print(f"repro serve: {args.architecture} control on "
              f"http://{args.host}:{args.port} "
              f"(POST /workflows, GET /instances/<id>[/events]{surfaces})"
              f"{durable}",
              file=sys.stderr, flush=True)
        waiter = asyncio.ensure_future(stop.wait())
        done, __ = await asyncio.wait(
            {task, waiter}, return_when=asyncio.FIRST_COMPLETED
        )
        if waiter in done and not task.done():
            # SIGTERM: graceful drain — shed new submissions, give the
            # running instances a bounded grace to finish, then stop.
            print("repro serve: SIGTERM received, draining "
                  f"({service.running_count()} running, grace "
                  f"{args.drain_grace:g}s)", file=sys.stderr, flush=True)
            service.begin_drain()
            deadline = loop.time() + args.drain_grace
            while service.running_count() and loop.time() < deadline:
                await asyncio.sleep(0.05)
            task.cancel()
        waiter.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("repro serve: shutting down", file=sys.stderr)
    drops = service.system.trace.drop_summary(service.system.tracer.dropped)
    if drops is not None:
        print(f"warning: {drops} during serve", file=sys.stderr)
    return 0


def _parse_prometheus(text: str) -> dict[str, list[tuple[dict[str, str], float]]]:
    """Prometheus exposition text -> ``{name: [(labels, value), ...]}``.

    Comment/HELP/TYPE lines and malformed samples are skipped; good
    enough for the instruments our own exporter writes (no escaping of
    ``"`` or ``,`` inside label values).
    """
    metrics: dict[str, list[tuple[dict[str, str], float]]] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, __, raw = line.rpartition(" ")
        try:
            value = float(raw)
        except ValueError:
            continue
        name, __, rest = key.partition("{")
        labels: dict[str, str] = {}
        if rest:
            for part in rest.rstrip("}").split(","):
                lname, sep, lval = part.partition("=")
                if sep:
                    labels[lname] = lval.strip('"')
        metrics.setdefault(name, []).append((labels, value))
    return metrics


def _metric_value(metrics, name: str, default: float = 0.0, **labels) -> float:
    """Sum of a metric's samples matching the given label subset."""
    total, hit = 0.0, False
    for sample_labels, value in metrics.get(name, ()):
        if all(sample_labels.get(k) == v for k, v in labels.items()):
            total += value
            hit = True
    return total if hit else default


def _render_top(status, instances, metrics, events) -> str:
    """One `repro top` frame: headline counters + per-instance table."""
    finished = status.get("instances_finished", 0)
    submitted = status.get("instances_submitted", 0)
    lines = [
        f"repro serve · {status.get('architecture', '?')} · "
        f"runtime={status.get('runtime', '?')} · "
        f"up {status.get('uptime', 0.0):.1f}s · "
        f"{'ready' if status.get('ready') else 'NOT READY'}"
        + (" (draining)" if status.get("draining") else ""),
        f"instances {finished}/{submitted} finished · "
        f"events {status.get('events_processed', 0)} · "
        f"messages {status.get('messages_sent', 0)} · "
        f"retries {status.get('executor_retries', 0)} · "
        f"failures {status.get('executor_failures', 0)} · "
        f"trace drops {status.get('trace_dropped', 0)}",
    ]
    if metrics:
        pending = _metric_value(metrics, "crew_realtime_pending_timers")
        inflight = _metric_value(metrics, "crew_executor_inflight_tasks")
        subs = _metric_value(metrics, "crew_service_event_subscribers")
        line = (f"pending timers {pending:.0f} · inflight tasks "
                f"{inflight:.0f} · subscribers {subs:.0f}")
        lat_count = _metric_value(
            metrics, "crew_service_instance_latency_seconds_count")
        if lat_count:
            lat_sum = _metric_value(
                metrics, "crew_service_instance_latency_seconds_sum")
            line += f" · mean latency {lat_sum / lat_count:.3f}s"
        lines.append(line)
    header = (f"{'instance':<24} {'workflow':<16} {'status':<12} "
              f"{'age s':>8} {'events':>7}  last event")
    lines += ["", header, "-" * len(header)]
    for row in instances:
        iid = row.get("instance", "?")
        seen = events.get(iid, {})
        lines.append(
            f"{iid:<24} {row.get('workflow', '-'):<16} "
            f"{row.get('status', '?'):<12} {row.get('age', 0.0):>8.2f} "
            f"{seen.get('count', 0):>7}  {seen.get('last', '-')}"
        )
    if not instances:
        lines.append("(no instances submitted yet)")
    return "\n".join(lines)


def cmd_top(args) -> int:
    """Live per-instance status view of a running ``repro serve``."""
    import json as _json
    import threading
    import time
    import urllib.error
    import urllib.request

    base = args.url.rstrip("/")

    def fetch(path: str) -> str:
        with urllib.request.urlopen(base + path, timeout=3.0) as resp:
            return resp.read().decode()

    events: dict[str, dict] = {}

    def tail_events() -> None:
        # Daemon thread: one long-lived GET /events NDJSON stream feeding
        # the per-instance "events seen / last event" columns.  When the
        # stream drops (serve restarted, drain closed the firehose) it
        # reconnects with backoff; the polled columns keep working
        # meanwhile.
        wait = 0.5
        while True:
            try:
                resp = urllib.request.urlopen(base + "/events")
                wait = 0.5
                for raw in resp:
                    rec = _json.loads(raw)
                    iid = rec.get("instance")
                    if not iid:
                        continue
                    seen = events.setdefault(iid, {"count": 0, "last": "-"})
                    seen["count"] += 1
                    seen["last"] = rec.get("kind", "-")
            except Exception:
                pass
            time.sleep(wait)
            wait = min(wait * 2, 15.0)

    if not args.no_events and not args.once:
        threading.Thread(target=tail_events, daemon=True).start()

    backoff = 0.5
    while True:
        try:
            status = _json.loads(fetch("/healthz"))
            instances = _json.loads(fetch("/instances"))["instances"]
            try:
                metrics = _parse_prometheus(fetch("/metrics"))
            except urllib.error.HTTPError:
                metrics = {}  # observability disabled: poll-only columns
        except OSError as exc:
            # A dashboard that dies when its daemon restarts is useless
            # during exactly the incident it exists for: keep retrying
            # with exponential backoff (capped), unless --once.
            if args.once:
                print(f"error: cannot reach {base}: {exc}", file=sys.stderr)
                return 1
            print(f"\x1b[2J\x1b[Hrepro top: cannot reach {base} ({exc}); "
                  f"retrying in {backoff:.1f}s", flush=True)
            try:
                time.sleep(backoff)
            except KeyboardInterrupt:
                return 0
            backoff = min(backoff * 2, 15.0)
            continue
        backoff = 0.5
        frame = _render_top(status, instances, metrics, events)
        if args.once:
            print(frame)
            return 0
        print(f"\x1b[2J\x1b[H{frame}", flush=True)
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CREW: failure handling and coordinated execution of "
                    "concurrent workflows (ICDE 1998 reproduction)",
    )
    from repro import __version__

    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tables = sub.add_parser("tables", help="print the analytic Tables 4-7")
    for symbol in ("s", "e", "z", "a", "r", "v", "f"):
        tables.add_argument(f"--{symbol}", type=int, default=None)
    tables.set_defaults(fn=cmd_tables)

    compare = sub.add_parser("compare", help="measured vs model, all architectures")
    compare.add_argument("--instances", type=int, default=10)
    compare.add_argument("--seed", type=int, default=7)
    for symbol in ("s", "e", "z", "a", "r", "v", "f"):
        compare.add_argument(f"--{symbol}", type=int, default=None)
    compare.set_defaults(fn=cmd_compare)

    check = sub.add_parser("check", help="validate a LAWS specification file")
    check.add_argument("file")
    check.set_defaults(fn=cmd_check)

    run = sub.add_parser("run", help="run workflows from a LAWS file")
    run.add_argument("file")
    run.add_argument("--workflow", default=None,
                     help="workflow name (default: first in the file)")
    run.add_argument("--architecture", default="distributed",
                     choices=tuple(CONTROL_SYSTEMS))
    run.add_argument("--instances", type=int, default=1)
    run.add_argument("--gap", type=float, default=0.5,
                     help="arrival gap between instances")
    run.add_argument("--input", action="append", metavar="NAME=VALUE")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--trace", action="store_true")
    run.add_argument("--trace-out", default=None, metavar="FILE",
                     help="write a Chrome trace-event JSON of the run "
                          "(implies --trace instrumentation)")
    run.add_argument("--metrics-out", default=None, metavar="FILE",
                     help="write Prometheus text-format metrics of the run")
    run.set_defaults(fn=cmd_run)

    evaluate = sub.add_parser(
        "evaluate", help="regenerate the full evaluation as a markdown report"
    )
    evaluate.add_argument("--seed", type=int, default=7)
    evaluate.add_argument("--workers", type=int, default=1,
                          help="process-pool size for the Table 4-6 configs "
                               "(default: serial)")
    evaluate.add_argument("--output", default=None,
                          help="write the report to this file")
    evaluate.set_defaults(fn=cmd_evaluate)

    sweep = sub.add_parser(
        "sweep",
        help="fan the evaluation configs out over a process pool",
    )
    sweep.add_argument("--workers", type=int, default=None,
                       help="process-pool size (default: one per core)")
    sweep.add_argument("--seed", type=int, default=7)
    sweep.add_argument("--report", action="store_true",
                       help="also render the merged Tables 4-7 report")
    sweep.add_argument("--output", default=None,
                       help="write the report to this file (with --report)")
    sweep.add_argument("--progress", action="store_true",
                       help="print a per-task status line (config, wall "
                            "time, events/s) on stderr as tasks finish")
    sweep.set_defaults(fn=cmd_sweep)

    def scenario_args(p, trace_outs: bool = True) -> None:
        p.add_argument("name", choices=tuple(SCENARIOS))
        p.add_argument("--architecture", default="distributed",
                       choices=tuple(CONTROL_SYSTEMS))
        p.add_argument("--instances", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)
        if trace_outs:
            p.add_argument("--trace-out", default=None, metavar="FILE")
            p.add_argument("--metrics-out", default=None, metavar="FILE")

    scenario = sub.add_parser("scenario", help="run a canonical paper scenario")
    scenario_args(scenario)
    scenario.set_defaults(fn=cmd_scenario)

    trace = sub.add_parser(
        "trace", help="run a scenario and export its span trace"
    )
    scenario_args(trace, trace_outs=False)
    trace.add_argument("--format", default="chrome",
                       choices=("chrome", "jsonl"),
                       help="chrome = trace-event JSON (Perfetto), "
                            "jsonl = one JSON object per line")
    trace.add_argument("--out", default=None, metavar="FILE",
                       help="output file (default: stdout)")
    trace.add_argument("--node", action="append", metavar="NODE",
                       help="only export spans/records of this node "
                            "(repeatable)")
    trace.add_argument("--category", action="append", metavar="CAT",
                       help="only export spans of this category (repeatable)")
    trace.add_argument("--follow", default=None, metavar="INSTANCE",
                       help="print the causal chain (critical path) of one "
                            "instance instead of exporting")
    trace.set_defaults(fn=cmd_trace)

    analyze = sub.add_parser(
        "analyze", help="analyze an exported JSONL trace file"
    )
    analyze.add_argument("file", help="JSONL trace (repro trace --format jsonl)")
    analyze.add_argument("--instance", action="append", metavar="ID",
                         help="restrict the report to this instance "
                              "(repeatable)")
    analyze.add_argument("--check-invariants", action="store_true",
                         help="run the protocol-invariant catalog; exit 1 "
                              "on any violation")
    analyze.add_argument("--invariant", action="append", metavar="NAME",
                         choices=sorted(INVARIANTS),
                         help="check only this invariant (repeatable)")
    analyze.add_argument("--strict", action="store_true",
                         help="also exit 1 on causal anomalies")
    analyze.set_defaults(fn=cmd_analyze)

    metrics = sub.add_parser(
        "metrics", help="run a scenario and export Prometheus metrics"
    )
    scenario_args(metrics, trace_outs=False)
    metrics.add_argument("--out", default=None, metavar="FILE",
                         help="output file (default: stdout)")
    metrics.set_defaults(fn=cmd_metrics)

    chaos = sub.add_parser(
        "chaos",
        help="explore random fault schedules against the protocol invariants",
    )
    chaos.add_argument("--seeds", type=int, default=25,
                       help="number of schedules per config (default: 25)")
    chaos.add_argument("--seed-base", type=int, default=1,
                       help="first seed of the range (default: 1)")
    chaos.add_argument("--seed", type=int, default=None,
                       help="run exactly this one seed (replay mode)")
    chaos.add_argument("--plan", default=None, metavar="SPEC",
                       help="explicit fault plan, e.g. "
                            "'drop=0.05,crash=agent-003@40+25' "
                            "(default: derived from each seed)")
    chaos.add_argument("--config", action="append", metavar="ARCH/MODE",
                       help="restrict to one config, e.g. "
                            "distributed/coordinated (repeatable; "
                            "default: all six)")
    chaos.add_argument("--workers", type=int, default=None,
                       help="process-pool size (default: one per core)")
    chaos.add_argument("--strict", action="store_true",
                       help="also fail on permanently lost messages "
                            "(exhausted retry budgets)")
    chaos.add_argument("--out", default=None, metavar="DIR",
                       help="write summary JSON + per-violation trace/repro "
                            "artifacts into this directory")
    chaos.add_argument("--progress", action="store_true",
                       help="print a per-run status line (config, seed, "
                            "wall time, events/s) on stderr as runs finish")
    chaos.add_argument("--runtime", default="sim",
                       choices=("sim", "asyncio"),
                       help="'sim' (default): bit-deterministic kernel "
                            "sweep; 'asyncio': run the plan on the "
                            "wall-clock backend and check outcome-level "
                            "consistency across replays")
    chaos.add_argument("--replays", type=int, default=2,
                       help="wall-clock mode: replays whose outcome "
                            "digests must match (default: 2)")
    chaos.set_defaults(fn=cmd_chaos)

    profile = sub.add_parser(
        "profile",
        help="run configs under the in-engine instrumentation profiler",
    )
    profile.add_argument("--config", action="append", metavar="ARCH-MODE",
                         help="profile one config, e.g. distributed-failure "
                              "(repeatable; modes: normal, coordinated, "
                              "failure; default: the six-config sweep grid)")
    profile.add_argument("--sweep", action="store_true",
                         help="profile the full six-config sweep grid "
                              "(the default when no --config is given); "
                              "with --config, runs the grid plus the extras")
    profile.add_argument("--seed", type=int, default=7)
    profile.add_argument("--top", type=int, default=15,
                         help="rows in the ranked top-frames table")
    profile.add_argument("--sample-interval", type=int, default=256,
                         help="events between counter-track samples")
    profile.add_argument("--collapsed", default=None, metavar="FILE",
                         help="write collapsed stacks (flamegraph input) to "
                              "FILE instead of stdout")
    profile.add_argument("--chrome", default=None, metavar="FILE",
                         help="write a Chrome trace-event JSON of the "
                              "profiler's counter tracks")
    profile.add_argument("--metrics-out", default=None, metavar="FILE",
                         help="write the profile counters as Prometheus text")
    profile.add_argument("--json", default=None, metavar="FILE",
                         help="write per-run counters + frame stats as JSON")
    profile.set_defaults(fn=cmd_profile)

    serve = sub.add_parser(
        "serve",
        help="run the wall-clock workflow daemon (HTTP/JSON front door)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8450)
    serve.add_argument("--architecture", default="centralized",
                       choices=tuple(CONTROL_SYSTEMS))
    serve.add_argument("--agents", type=int, default=4,
                       help="application agent count")
    serve.add_argument("--latency", type=float, default=0.0,
                       help="injected per-message delivery delay (seconds)")
    serve.add_argument("--work-time-scale", type=float, default=0.01,
                       help="seconds of service time per unit of step cost")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--no-observability", action="store_true",
                       help="disable /metrics, /debug/trace and "
                            "/debug/profile (bare throughput mode)")
    serve.add_argument("--trace-capacity", type=int, default=200_000,
                       help="trace ring-buffer size, in records and in "
                            "spans (oldest evicted; drops reported at "
                            "shutdown)")
    serve.add_argument("--log-out", default="-", metavar="FILE",
                       help="structured NDJSON log destination: '-' = "
                            "stderr (default), 'off' = disabled, else "
                            "append to FILE")
    serve.add_argument("--log-level", default="info",
                       choices=("debug", "info", "warning", "error"))
    serve.add_argument("--state-dir", default=None, metavar="DIR",
                       help="crash-durable state directory: journal "
                            "installed documents, submissions and outcomes "
                            "to a checksummed WAL, and recover in-flight "
                            "instances on the next boot")
    serve.add_argument("--max-inflight", type=int, default=None,
                       help="bound on acknowledged-but-unfinished instances;"
                            " submissions over the bound are refused with "
                            "429 + Retry-After")
    serve.add_argument("--rate-limit", type=float, default=None,
                       metavar="PER_S",
                       help="token-bucket submission rate limit "
                            "(instances/second; default: unlimited)")
    serve.add_argument("--burst", type=float, default=None,
                       help="token-bucket burst capacity "
                            "(default: max(rate, 1))")
    serve.add_argument("--enable-fault-endpoint", action="store_true",
                       help="enable POST /debug/faults wall-clock fault "
                            "injection (off by default; chaos rigs only)")
    serve.add_argument("--drain-grace", type=float, default=10.0,
                       metavar="S",
                       help="seconds to let running instances finish after "
                            "SIGTERM before forcing shutdown")
    serve.set_defaults(fn=cmd_serve)

    top = sub.add_parser(
        "top",
        help="live per-instance status view of a running repro serve",
    )
    top.add_argument("--url", default="http://127.0.0.1:8450",
                     help="base URL of the daemon (default: %(default)s)")
    top.add_argument("--interval", type=float, default=1.0,
                     help="refresh period in seconds")
    top.add_argument("--once", action="store_true",
                     help="print one snapshot and exit (no screen clear)")
    top.add_argument("--no-events", action="store_true",
                     help="poll-only: skip tailing the /events stream")
    top.set_defaults(fn=cmd_top)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CrewError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
