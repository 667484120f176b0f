"""Paper-style table rendering and analytic-vs-measured comparison.

The benchmark harness prints, for every table of the paper's evaluation,
the analytic expression, its normalized value, and the value measured
from the simulator — "who wins, by roughly what factor" is readable at a
glance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.analysis.model import ArchitectureModel
from repro.analysis.recommend import Ranking
from repro.runtime.metrics import Mechanism, MetricsCollector

__all__ = [
    "MeasuredCosts",
    "format_table",
    "measure_costs",
    "render_architecture_table",
    "render_comparison",
    "render_recommendation",
]

_MECHANISM_LABEL = {
    Mechanism.NORMAL: "Normal Execution",
    Mechanism.INPUT_CHANGE: "Workflow Input Change",
    Mechanism.ABORT: "Workflow Abort",
    Mechanism.FAILURE: "Failure Handling",
    Mechanism.COORDINATION: "Coordinated Execution",
    Mechanism.PURGE: "Purge",
}


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Minimal fixed-width table renderer (no external dependencies)."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def line(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    separator = "-+-".join("-" * w for w in widths)
    out = [line(list(headers)), separator]
    out.extend(line(row) for row in materialized)
    return "\n".join(out)


@dataclass(frozen=True)
class MeasuredCosts:
    """Per-instance measured costs from one simulation run."""

    architecture: str
    instances: int
    load: Mapping[Mechanism, float]  # mean per-node load per instance (units of l)
    messages: Mapping[Mechanism, float]  # messages per instance


def measure_costs(
    architecture: str,
    metrics: MetricsCollector,
    scheduling_nodes: Sequence[str],
) -> MeasuredCosts:
    """Normalize collector counters into Table 4-6 units.

    ``scheduling_nodes`` are the nodes whose load the table reports: the
    engine(s) for central/parallel control, the agents for distributed
    control ("load at engine" means load at a scheduling node).
    """
    instances = max(1, metrics.instances_started)
    load = {
        mechanism: metrics.mean_node_load(mechanism, scheduling_nodes) / instances
        for mechanism in Mechanism
    }
    messages = {
        mechanism: metrics.total_messages(mechanism) / instances
        for mechanism in Mechanism
    }
    return MeasuredCosts(
        architecture=architecture,
        instances=metrics.instances_started,
        load=load,
        messages=messages,
    )


def render_architecture_table(model: ArchitectureModel) -> str:
    """Render one of Tables 4-6 in the paper's layout."""
    rows = []
    for row in model.rows:
        rows.append([_MECHANISM_LABEL[row.mechanism], row.load_expression,
                     f"{row.load_value:.4g} * l"])
    rows.append(["--- messages ---", "", ""])
    for row in model.rows:
        rows.append([_MECHANISM_LABEL[row.mechanism], row.message_expression,
                     f"{row.message_value:.4g}"])
    title = f"Load and Physical Messages in {model.architecture.title()} Workflow Control"
    table = format_table(["Mechanism", "Expression", "Normalized Value"], rows)
    return f"{title}\n{table}"


def render_comparison(model: ArchitectureModel, measured: MeasuredCosts) -> str:
    """Analytic vs measured, side by side, per mechanism.  The purge
    broadcast of finished instances, which the paper's tables leave out,
    is printed on its own line under the table when the run sent one."""
    rows = []
    for row in model.rows:
        rows.append([
            _MECHANISM_LABEL[row.mechanism],
            f"{row.load_value:.4g}",
            f"{measured.load.get(row.mechanism, 0.0):.4g}",
            f"{row.message_value:.4g}",
            f"{measured.messages.get(row.mechanism, 0.0):.4g}",
        ])
    table = format_table(
        ["Mechanism", "load (paper)", "load (measured)",
         "msgs (paper)", "msgs (measured)"],
        rows,
    )
    purge_load = measured.load.get(Mechanism.PURGE, 0.0)
    purge_messages = measured.messages.get(Mechanism.PURGE, 0.0)
    if purge_load or purge_messages:
        table += (f"\n{_MECHANISM_LABEL[Mechanism.PURGE]} (not in the paper's "
                  f"model): load {purge_load:.4g} * l, msgs {purge_messages:.4g}")
    return (
        f"{model.architecture.title()} control — paper model vs simulation "
        f"({measured.instances} instances)\n{table}"
    )


def render_recommendation(matrix: Mapping[tuple[str, str], Ranking]) -> str:
    """Render Table 7: Recommended Choice of Architectures."""
    scenarios = ["normal", "normal+failures", "normal+coordinated"]
    criteria = [("load", "Load at Engine"), ("messages", "Physical Messages")]
    rows = []
    for key, label in criteria:
        cells = [label]
        for scenario in scenarios:
            ranking = matrix[(key, scenario)]
            cells.append(
                "  ".join(f"({rank}) {arch}" for rank, arch, __ in ranking.entries)
            )
        rows.append(cells)
    headers = ["Criteria", "Normal", "Normal + Failures", "Normal + Coordinated"]
    return "Recommended Choice of Architectures\n" + format_table(headers, rows)
