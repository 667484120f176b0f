"""The experiment harness: one recipe behind every Table 4-7 measurement.

The paper's evaluation is *one* experiment — the Table-3 workload driven
through an architecture, with or without coordination requirements, with
or without a forced first-attempt failure — so each piece exists once:

* **label grammar** — :func:`parse_config` / :func:`config_label`:
  ``<architecture>/<mode>`` or ``<architecture>-<mode>``, modes
  :data:`MODES`; ``repro sweep``, ``profile`` and ``chaos`` all speak it;
* **architecture -> system** — :func:`build_control_system`: one sizing
  rule over the class table of :mod:`repro.engines`;
* **run recipe** — :class:`PreparedRun` (generator -> workload -> system ->
  install), then :meth:`PreparedRun.execute` (drive -> run) returning one
  :class:`RunCounters`; the profiler and the chaos harness touch the
  system between the two;
* **fan-out** — :func:`repro.analysis.sweep.run_tasks`.

:func:`run_architecture_experiment` adds the Table 4/5/6 normalization,
:func:`full_evaluation` runs it over the six-config grid plus the
OCR-vs-Saga ablation, and :func:`render_evaluation` renders the markdown
report of ``python -m repro evaluate``.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from repro.analysis.model import architecture_model
from repro.analysis.report import (
    MeasuredCosts,
    format_table,
    measure_costs,
    render_comparison,
    render_recommendation,
)
from repro.analysis.recommend import recommendation_matrix
from repro.engines import (
    CONTROL_SYSTEMS,
    ControlSystem,
    SystemConfig,
    control_system_class,
)
from repro.errors import CrewError
from repro.model.policies import AlwaysReexecute
from repro.obs.profile import peak_rss_kb
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.params import PAPER_DEFAULTS, WorkloadParameters

if TYPE_CHECKING:
    from repro.analysis.sweep import SweepResult

__all__ = [
    "ArchitectureResult",
    "EvaluationResults",
    "MODES",
    "PreparedRun",
    "RunCounters",
    "build_control_system",
    "config_label",
    "evaluation_from_sweep",
    "full_evaluation",
    "ocr_ablation",
    "parse_config",
    "render_evaluation",
    "run_architecture_experiment",
]

#: Evaluation-scale default: the Table-3 calibration point with the schema
#: count reduced so a full evaluation stays in seconds.
EVAL_PARAMS = PAPER_DEFAULTS.evolve(c=4, i=25)

#: A label's second half: the plain workload, the same with coordination
#: requirements, or with every instance's first attempt forced to fail.
MODES = ("normal", "coordinated", "failure")


def config_label(architecture: str, mode: str, sep: str = "/") -> str:
    """``("parallel", "coordinated")`` -> ``"parallel/coordinated"``."""
    return f"{architecture}{sep}{mode}"


def parse_config(label: str, modes: Sequence[str] = MODES) -> tuple[str, str]:
    """``"parallel/coordinated"`` -> ``("parallel", "coordinated")``.

    Both separators parse, so a label pastes from any command into any
    other.  ``modes`` are the modes the caller runs; anything else is
    refused with the valid labels listed.
    """
    sep = "/" if "/" in label else "-"
    architecture, __, mode = label.partition(sep)
    if architecture not in CONTROL_SYSTEMS or mode not in modes:
        expected = [config_label(a, m, sep)
                    for a in CONTROL_SYSTEMS for m in modes]
        raise CrewError(f"bad config {label!r}; expected one of {expected}")
    return architecture, mode


def build_control_system(
    architecture: str, params: WorkloadParameters, seed: int = 7,
    trace: bool = False,
) -> ControlSystem:
    """A control system sized for the given parameter point."""
    system_cls = control_system_class(architecture)
    sizing = {"num_agents": max(4, params.a * 2), "agents_per_step": params.a}
    if architecture == "parallel":
        sizing["num_engines"] = params.e
    elif architecture == "distributed":
        sizing["num_agents"] = params.z
    return system_cls(SystemConfig(seed=seed, trace=trace), **sizing)


@dataclass
class RunCounters:
    """What one driven run reports, whoever asked for it."""

    committed: int
    aborted: int
    messages: int
    events: int
    sim_time: float
    wall_time_s: float
    peak_rss_kb: int | None

    @property
    def events_per_sec(self) -> float:
        """Kernel events processed per wall-clock second."""
        return self.events / self.wall_time_s if self.wall_time_s > 0 else 0.0

    def counter_dict(self) -> dict[str, Any]:
        """JSON-safe form of the counters every result file carries."""
        return {
            "committed": self.committed,
            "aborted": self.aborted,
            "messages": self.messages,
            "events": self.events,
            "wall_time_s": round(self.wall_time_s, 6),
            "events_per_sec": round(self.events_per_sec, 1),
            "peak_rss_kb": self.peak_rss_kb,
        }


class PreparedRun:
    """The recipe's first step: the Table-3 workload and a system sized
    for it, built and installed, not yet driven.

    ``fail_first_attempt`` is :meth:`WorkloadGenerator.install`'s forced
    failure; ``saga`` gives every step the ``AlwaysReexecute`` CR policy,
    the compensate-everything baseline OCR is measured against.
    """

    def __init__(
        self,
        architecture: str,
        params: WorkloadParameters = EVAL_PARAMS,
        coordination: bool = False,
        fail_first_attempt: bool = False,
        saga: bool = False,
        seed: int = 7,
        trace: bool = False,
    ):
        self.generator = WorkloadGenerator(params, seed=seed,
                                           coordination=coordination)
        self.workload = self.generator.build()
        if saga:
            for schema in self.workload.schemas:
                for step in schema.cr_policies:
                    schema.cr_policies[step] = AlwaysReexecute()  # type: ignore[index]
        self.system = build_control_system(architecture, params, seed=seed,
                                           trace=trace)
        self.generator.install(self.system, self.workload,
                               fail_first_attempt=fail_first_attempt)
        #: Ids of the instances :meth:`execute` started.
        self.started: list[str] = []

    def execute(self, instances_per_schema: int | None = None) -> RunCounters:
        """The second step: drive the workload, run the system dry and
        count what happened."""
        began = time.perf_counter()
        self.started = self.generator.drive(
            self.system, self.workload,
            instances_per_schema=instances_per_schema,
        ).instances
        self.system.run()
        metrics = self.system.metrics
        return RunCounters(
            committed=metrics.instances_committed,
            aborted=metrics.instances_aborted,
            messages=metrics.total_messages(),
            events=self.system.simulator.events_processed,
            sim_time=self.system.simulator.now,
            wall_time_s=time.perf_counter() - began,
            peak_rss_kb=peak_rss_kb(),
        )


@dataclass(kw_only=True)
class ArchitectureResult(RunCounters):
    """One Table 4/5/6 measurement."""

    architecture: str
    params: WorkloadParameters
    measured: MeasuredCosts
    seed: int = 7
    spans: int = 0
    trace_records: int = 0

    def report(self) -> str:
        return render_comparison(
            architecture_model(self.architecture, self.params), self.measured
        )

    def run_metadata(self) -> dict[str, Any]:
        """JSON-safe provenance record for benchmark result files."""
        return {
            "architecture": self.architecture,
            "seed": self.seed,
            "params": asdict(self.params),
            **self.counter_dict(),
            "trace": {"spans": self.spans, "records": self.trace_records},
        }


def run_architecture_experiment(
    architecture: str,
    params: WorkloadParameters = EVAL_PARAMS,
    coordination: bool = False,
    instances_per_schema: int | None = None,
    seed: int = 7,
) -> ArchitectureResult:
    """Run the Table-3 workload under one architecture and normalize."""
    prepared = PreparedRun(architecture, params, coordination=coordination,
                           seed=seed)
    counters = prepared.execute(instances_per_schema)
    system = prepared.system
    # The tables' "load at engine" is load at a scheduling node: the
    # engine(s) or, under distributed control, the agents.
    nodes = system.engine_nodes() or system.agent_names()
    return ArchitectureResult(
        architecture=architecture,
        params=params,
        measured=measure_costs(architecture, system.metrics, nodes),
        seed=seed,
        spans=len(system.tracer.spans),
        trace_records=len(system.trace),
        **vars(counters),
    )


def ocr_ablation(seed: int = 11, instances: int = 8,
                 schemas: int = 2) -> list[tuple[str, float, float, int]]:
    """OCR vs Saga work comparison: [(label, exec work, comp work, commits)]."""

    def run_variant(pr: float, saga: bool) -> tuple[float, float, int]:
        params = PAPER_DEFAULTS.evolve(c=schemas, i=instances, pf=0.2, pr=pr,
                                       pi=0.0, pa=0.0)
        prepared = PreparedRun("distributed", params, fail_first_attempt=True,
                               saga=saga, seed=seed)
        counters = prepared.execute(instances)
        metrics = prepared.system.metrics
        return (
            metrics.total_work("execute"),
            metrics.total_work("compensate"),
            counters.committed,
        )

    rows = [("OCR pr=0.00", *run_variant(0.0, saga=False))]
    rows.append(("OCR pr=0.25", *run_variant(0.25, saga=False)))
    rows.append(("OCR pr=0.50", *run_variant(0.5, saga=False)))
    rows.append(("Saga baseline", *run_variant(0.0, saga=True)))
    return rows


@dataclass
class EvaluationResults:
    """Everything :func:`full_evaluation` produces."""

    params: WorkloadParameters
    normal: dict[str, ArchitectureResult] = field(default_factory=dict)
    coordinated: dict[str, ArchitectureResult] = field(default_factory=dict)
    ocr: list[tuple[str, float, float, int]] = field(default_factory=list)


def evaluation_from_sweep(sweep: SweepResult, seed: int) -> EvaluationResults:
    """Bucket a six-config sweep into Tables 4-6 and add the OCR ablation."""
    results = EvaluationResults(params=sweep.tasks[0].params)
    for task, result in zip(sweep.tasks, sweep.results):
        bucket = results.coordinated if task.coordination else results.normal
        bucket[task.architecture] = result
    results.ocr = ocr_ablation(seed=seed + 4)
    return results


def full_evaluation(params: WorkloadParameters = EVAL_PARAMS,
                    seed: int = 7, workers: int = 1) -> EvaluationResults:
    """Run Tables 4-6 (with and without coordination) plus the OCR ablation.

    ``workers > 1`` fans the six architecture×coordination configs out over
    a process pool (see :mod:`repro.analysis.sweep`); every config carries
    its own seed, so the results are identical at any worker count.
    """
    from repro.analysis.sweep import run_sweep, sweep_tasks

    sweep = run_sweep(sweep_tasks(params=params, seed=seed), workers=workers)
    return evaluation_from_sweep(sweep, seed)


def render_evaluation(results: EvaluationResults) -> str:
    """Markdown report of a :func:`full_evaluation` run."""
    sections = ["# CREW evaluation (regenerated)", ""]
    for table_no, architecture in enumerate(CONTROL_SYSTEMS, start=4):
        sections.append(f"## Table {table_no} — {architecture} control")
        sections.append("")
        sections.append("```")
        sections.append(results.normal[architecture].report())
        sections.append("```")
        sections.append("")
        sections.append("With coordination requirements installed:")
        sections.append("```")
        sections.append(results.coordinated[architecture].report())
        sections.append("```")
        sections.append("")
    sections.append("## Table 7 — recommendation matrix (analytic)")
    sections.append("")
    sections.append("```")
    sections.append(render_recommendation(recommendation_matrix(results.params)))
    sections.append("```")
    sections.append("")
    sections.append("## OCR vs Saga ablation")
    sections.append("")
    saga_total = results.ocr[-1][1] + results.ocr[-1][2]
    sections.append("```")
    sections.append(format_table(
        ["variant", "execute work", "compensate work", "total",
         "saving vs Saga"],
        [[label, f"{execute:.0f}", f"{compensate:.0f}",
          f"{execute + compensate:.0f}",
          f"{100 * (1 - (execute + compensate) / saga_total):.1f}%"]
         for label, execute, compensate, __ in results.ocr],
    ))
    sections.append("```")
    return "\n".join(sections)
