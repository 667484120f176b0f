"""Chaos-exploration harness: random fault schedules vs the CREW protocols.

Each :class:`ChaosTask` is one fully deterministic experiment: a
``(config, seed, fault plan)`` triple that runs the shared recipe of
:mod:`repro.analysis.experiment` with a
:class:`~repro.runtime.faults.FaultInjector` armed between its prepare and
execute steps (``config`` is a label in the shared grammar, ``failure``
mode refused; task lists fan out through :func:`repro.analysis.sweep.
run_tasks`) and then interrogates the finished run with the PR-3 protocol
invariants plus chaos-specific *liveness* and *durability* checks:

``liveness``
    Every started instance reaches a terminal outcome (committed or
    aborted) and the simulator drains — a run truncated by ``max_events``
    or an instance wedged forever is a finding, not a timeout.

``orphaned-inflight``
    Once an instance is terminal, no engine still holds an in-flight
    dispatch record for it and no coordination agent still tracks it as
    unfinished.

``wal-convergence``
    Every WAL passes its checksum audit, and replaying each distributed
    agent's log into a fresh AGDB reproduces the durable state (replay is
    deterministic; recovered summaries match the live summary table).

A violating run is *minimized* — fault-plan dimensions are greedily
removed while the violation persists — and reported as a one-line repro
(``repro chaos --config <label> --seed <s> --plan <spec>``) alongside the
run's causal-trace JSONL, so any CI failure is replayable bit-for-bit on a
developer laptop.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.analysis.causal import CausalTrace
from repro.analysis.experiment import (
    EVAL_PARAMS,
    PreparedRun,
    RunCounters,
    build_control_system,
    config_label,
    parse_config,
)
from repro.analysis.invariants import Violation, check_invariants
from repro.analysis.sweep import ProgressFn, run_tasks
from repro.engines import CONTROL_SYSTEMS, SystemConfig, control_system_class
from repro.errors import CrewError
from repro.model import SchemaBuilder
from repro.obs.export import trace_to_jsonl
from repro.runtime.faults import FaultPlan, random_plan
from repro.workloads.params import WorkloadParameters

__all__ = [
    "CHAOS_CONFIGS",
    "ChaosOutcome",
    "ChaosTask",
    "RealtimeChaosReport",
    "chaos_tasks",
    "run_chaos",
    "run_realtime_chaos",
]

#: The modes chaos runs: the sweep grid's two (``failure`` is refused).
CHAOS_MODES = ("normal", "coordinated")

#: The six architecture × coordination configs the harness explores.
CHAOS_CONFIGS: tuple[str, ...] = tuple(
    config_label(architecture, mode)
    for architecture in CONTROL_SYSTEMS
    for mode in CHAOS_MODES
)

#: Chaos-scale workload default: small enough that one schedule runs in
#: ~a second, large enough that instances overlap in time.
CHAOS_INSTANCES_PER_SCHEMA = 2


@dataclass(frozen=True)
class ChaosTask:
    """One deterministic chaos experiment: config × seed × fault plan.

    ``plan_spec`` is the plan's wire form (``FaultPlan.to_spec``); when
    empty the plan is derived from the seed via :func:`random_plan`, so a
    task is fully described — and replayable — by ``(config, seed)``.
    """

    config: str
    seed: int
    plan_spec: str = ""
    params: WorkloadParameters | None = None
    instances_per_schema: int = CHAOS_INSTANCES_PER_SCHEMA
    strict: bool = False

    @property
    def label(self) -> str:
        """What a ``--progress`` line calls this task."""
        return f"{self.config} seed {self.seed}"

    def resolved_params(self) -> WorkloadParameters:
        if self.params is not None:
            return self.params
        return EVAL_PARAMS.evolve(c=2, i=CHAOS_INSTANCES_PER_SCHEMA)

    def plan(self) -> FaultPlan:
        if self.plan_spec:
            return FaultPlan.parse(self.plan_spec)
        # Crash and stall candidates are the nodes of the system the run
        # will build, engines first — the order feeds the seeded choice.
        architecture, __ = parse_config(self.config, CHAOS_MODES)
        system = build_control_system(architecture, self.resolved_params())
        nodes = system.engine_nodes() + system.agent_names()
        return random_plan(self.seed, crash_nodes=nodes, stall_nodes=nodes)

    def run(self) -> "ChaosOutcome":
        return _execute(self, self.plan())


@dataclass(kw_only=True)
class ChaosOutcome(RunCounters):
    """Verdict of one chaos experiment (picklable, JSON-safe)."""

    config: str
    seed: int
    plan_spec: str
    started: int = 0
    lost_messages: int = 0
    fault_stats: dict[str, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    minimized_spec: str | None = None
    trace_jsonl: str | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def repro_line(self) -> str:
        spec = self.minimized_spec or self.plan_spec
        return (f"repro chaos --config {self.config} --seed {self.seed} "
                f"--plan '{spec}'")

    def as_dict(self) -> dict[str, Any]:
        return {
            "config": self.config,
            "seed": self.seed,
            "plan": self.plan_spec,
            "started": self.started,
            **self.counter_dict(),
            "lost_messages": self.lost_messages,
            "sim_time": self.sim_time,
            "fault_stats": dict(self.fault_stats),
            "violations": list(self.violations),
            "minimized_plan": self.minimized_spec,
            "repro": None if self.ok else self.repro_line,
        }


# ------------------------------------------------------------------ checks


def _check_liveness(system, started: list[str]) -> list[Violation]:
    out: list[Violation] = []
    if system.simulator.pending:
        out.append(Violation(
            "liveness", "-",
            f"run truncated with {system.simulator.pending} events still "
            f"pending (max_events reached) at t={system.simulator.now:.1f}",
        ))
    for instance_id in started:
        if instance_id not in system.outcomes:
            out.append(Violation(
                "liveness", instance_id,
                "instance never reached a terminal outcome "
                "(not committed, aborted or compensated)",
            ))
    return out


def _check_orphaned_inflight(system) -> list[Violation]:
    out: list[Violation] = []
    architecture = system.architecture
    engines = []
    if architecture == "centralized":
        engines = [system.engine]
    elif architecture == "parallel":
        engines = list(system.engines)
    for engine in engines:
        for (instance_id, step) in sorted(engine._inflight):
            if instance_id in system.outcomes:
                out.append(Violation(
                    "orphaned-inflight", instance_id,
                    f"engine {engine.name} still holds an in-flight record "
                    f"for step {step!r} after the instance finished",
                ))
    if architecture == "distributed":
        for agent in system.agents:
            for instance_id, tracker in sorted(agent.trackers.items()):
                if not tracker.finished and instance_id in system.outcomes:
                    out.append(Violation(
                        "orphaned-inflight", instance_id,
                        f"agent {agent.name} still tracks the instance as "
                        f"unfinished after a terminal outcome was recorded",
                    ))
    return out


def _check_wal_convergence(system) -> list[Violation]:
    out: list[Violation] = []
    architecture = system.architecture

    def audit(name: str, wal) -> None:
        try:
            wal.verify()
        except CrewError as exc:
            out.append(Violation("wal-convergence", "-", f"{name}: {exc}"))

    if architecture == "centralized":
        audit(system.engine.name, system.engine.wfdb.wal)
    elif architecture == "parallel":
        for engine in system.engines:
            audit(engine.name, engine.wfdb.wal)
    else:
        for agent in system.agents:
            audit(agent.name, agent.agdb.wal)
            try:
                first = agent.agdb.replay_clone()
                second = agent.agdb.replay_clone()
            except CrewError as exc:
                out.append(Violation(
                    "wal-convergence", "-",
                    f"{agent.name}: WAL replay failed: {exc}",
                ))
                continue
            one = {s.instance_id: s.snapshot() for s in first.fragments()}
            two = {s.instance_id: s.snapshot() for s in second.fragments()}
            if one != two:
                out.append(Violation(
                    "wal-convergence", "-",
                    f"{agent.name}: two WAL replays diverged "
                    f"({sorted(set(one) ^ set(two)) or 'same ids, different state'})",
                ))
            if first._summary != agent.agdb._summary:
                diff = sorted(
                    set(first._summary.items()) ^ set(agent.agdb._summary.items())
                )
                out.append(Violation(
                    "wal-convergence", "-",
                    f"{agent.name}: replayed summary table diverges from the "
                    f"live one: {diff}",
                ))
    return out


# ------------------------------------------------------------------ execution


def _execute(task: ChaosTask, plan: FaultPlan,
             collect_trace: bool = True) -> ChaosOutcome:
    architecture, mode = parse_config(task.config, CHAOS_MODES)
    prepared = PreparedRun(architecture, task.resolved_params(),
                           coordination=(mode == "coordinated"),
                           seed=task.seed, trace=True)
    system = prepared.system
    injector = system.inject_faults(plan)
    counters = prepared.execute(task.instances_per_schema)
    started = prepared.started

    violations: list[Violation] = []
    violations.extend(check_invariants(CausalTrace.from_run(system.trace,
                                                            system.tracer)))
    violations.extend(_check_liveness(system, started))
    violations.extend(_check_orphaned_inflight(system))
    violations.extend(_check_wal_convergence(system))
    if task.strict and injector.lost:
        violations.append(Violation(
            "message-loss", "-",
            f"{len(injector.lost)} message(s) permanently lost after "
            f"exhausting their retry budget",
        ))

    outcome = ChaosOutcome(
        config=task.config,
        seed=task.seed,
        plan_spec=plan.to_spec(),
        started=len(started),
        lost_messages=len(injector.lost),
        fault_stats=injector.stats.as_dict(),
        violations=[v.render() for v in violations],
        **vars(counters),
    )
    if violations and collect_trace:
        outcome.trace_jsonl = trace_to_jsonl(system.trace, system.tracer)
        outcome.minimized_spec = _minimize(task, plan).to_spec()
    return outcome


def _violates(task: ChaosTask, plan: FaultPlan) -> bool:
    return bool(_execute(task, plan, collect_trace=False).violations)


def _minimize(task: ChaosTask, plan: FaultPlan) -> FaultPlan:
    """Greedily drop fault-plan dimensions while the violation persists.

    One pass over the (few) dimensions, restarting after each successful
    removal; every probe is a full deterministic re-run, so the result is
    a genuinely replayable smaller plan, not a guess.
    """
    current = plan
    shrunk = True
    while shrunk:
        shrunk = False
        for dimension in current.dimensions():
            candidate = current.without(dimension)
            if candidate.to_spec() == current.to_spec():
                continue
            if _violates(task, candidate):
                current = candidate
                shrunk = True
                break
    return current


# ------------------------------------------------------------------ the sweep


def chaos_tasks(
    seeds: Iterable[int],
    configs: Sequence[str] = CHAOS_CONFIGS,
    params: WorkloadParameters | None = None,
    instances_per_schema: int = CHAOS_INSTANCES_PER_SCHEMA,
    plan_spec: str = "",
    strict: bool = False,
) -> list[ChaosTask]:
    """The chaos grid, config-major then seed order (canonical)."""
    for label in configs:
        parse_config(label, CHAOS_MODES)  # validate eagerly
    return [
        ChaosTask(config=label, seed=seed, plan_spec=plan_spec, params=params,
                  instances_per_schema=instances_per_schema, strict=strict)
        for label in configs
        for seed in seeds
    ]


def run_chaos(
    tasks: Iterable[ChaosTask],
    workers: int | None = None,
    progress: ProgressFn | None = None,
) -> list[ChaosOutcome]:
    """:func:`~repro.analysis.sweep.run_tasks` over chaos tasks: outcomes
    in canonical task order, the same verdicts at any worker count."""
    return run_tasks(tasks, workers=workers, progress=progress)[0]


# ------------------------------------------------------------ wall clock


@dataclass
class RealtimeChaosReport:
    """Outcome-level consistency verdict for wall-clock chaos replays.

    The asyncio backend is not bit-deterministic (real timers race), so
    the check is at the level the protocols guarantee: every replay of
    ``(config, seed, plan)`` must end with the *same terminal outcome per
    instance* — drop/dup/delay faults are masked identically because the
    injector's decision streams and the executor's retry jitter are both
    seeded from the system's master seed.
    """

    config: str
    seed: int
    plan_spec: str
    replays: int
    instances: int
    #: One ``{instance_id: "status|outputs-json"}`` digest per replay.
    digests: list[dict[str, str]] = field(default_factory=list)
    #: Instances that missed the timeout in any replay (liveness finding).
    unfinished: list[str] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def consistent(self) -> bool:
        return (not self.unfinished and bool(self.digests)
                and all(d == self.digests[0] for d in self.digests[1:]))

    def as_dict(self) -> dict[str, Any]:
        return {
            "config": self.config,
            "seed": self.seed,
            "plan": self.plan_spec,
            "replays": self.replays,
            "instances": self.instances,
            "digests": [dict(d) for d in self.digests],
            "unfinished": list(self.unfinished),
            "consistent": self.consistent,
            "wall_time_s": round(self.wall_time_s, 6),
        }


def _realtime_chaos_schema():
    builder = SchemaBuilder("ChaosPair", inputs=["x"])
    builder.step("A", program="p.a", inputs=["WF.x"], outputs=["y"], cost=1)
    builder.step("B", program="p.b", inputs=["A.y"], outputs=["z"], cost=1)
    builder.arc("A", "B")
    builder.output("result", "B.z")
    return builder.build()


async def _realtime_replay(
    architecture: str, seed: int, plan: FaultPlan,
    instances: int, timeout_s: float,
) -> tuple[dict[str, str], list[str]]:
    config = SystemConfig(
        runtime="asyncio", seed=seed, latency=0.0, work_time_scale=0.001,
        step_status_timeout=1.0, step_status_poll_interval=0.5,
    )
    system = control_system_class(architecture)(config)
    system.runtime.start()
    system.inject_faults(plan)
    system.register_schema(_realtime_chaos_schema())
    ids = [system.start_workflow("ChaosPair", {"x": i})
           for i in range(instances)]
    # Nothing runs before the first await, so no outcome can land ahead
    # of the callback that counts them.
    pending = set(ids)
    all_landed = asyncio.Event()

    def landed(outcome) -> None:
        pending.discard(outcome.instance_id)
        if not pending:
            all_landed.set()

    system.on_outcome = landed
    if pending:
        try:
            await asyncio.wait_for(all_landed.wait(), timeout_s)
        except asyncio.TimeoutError:
            pass  # whatever is still pending is reported as unfinished
    digest: dict[str, str] = {}
    unfinished: list[str] = []
    for iid in ids:
        outcome = system.outcomes.get(iid)
        if outcome is None:
            unfinished.append(iid)
            continue
        status = "committed" if outcome.committed else "aborted"
        digest[iid] = (
            f"{status}|"
            f"{json.dumps(outcome.outputs, sort_keys=True, default=str)}"
        )
    return digest, unfinished


def run_realtime_chaos(
    config: str,
    seed: int = 0,
    plan_spec: str = "drop=0.05,dup=0.05,delay=0.05",
    instances: int = 8,
    replays: int = 2,
    timeout_s: float = 30.0,
) -> RealtimeChaosReport:
    """Run one fault plan on the live asyncio backend ``replays`` times.

    Each replay builds a fresh control system (same seed → same instance
    ids, same injector decision streams, same retry jitter), submits
    ``instances`` workflows with the plan armed, and waits for every
    terminal outcome.  Replays must produce identical outcome digests;
    any divergence or unfinished instance makes the report inconsistent.
    """
    architecture, __ = parse_config(config, CHAOS_MODES)
    plan = FaultPlan.parse(plan_spec) if plan_spec else FaultPlan()
    started = time.perf_counter()
    report = RealtimeChaosReport(
        config=config, seed=seed, plan_spec=plan.to_spec(),
        replays=replays, instances=instances,
    )
    for __ in range(replays):
        digest, unfinished = asyncio.run(
            _realtime_replay(architecture, seed, plan, instances, timeout_s)
        )
        report.digests.append(digest)
        report.unfinished.extend(unfinished)
    report.wall_time_s = time.perf_counter() - started
    return report
