"""EXPERIMENTS.md's Tables 4-6 are what ``repro evaluate`` prints.

Each documented table mixes two runs of its architecture: the
coordinated-execution row comes from the run with coordination
requirements installed, every other row (the purge line included) from
the run without them.  Cells are compared as printed, after dropping
the document's emphasis, footnote marks and ``·l`` unit.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis.experiment import full_evaluation, render_evaluation

EXPERIMENTS = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
PURGE = "purge (not in the paper's model)"
DECORATION = str.maketrans("", "", "*†‡§¶∥◊")


def section(text: str, number: int) -> str:
    """The body of ``## Table <number> — ...`` up to the next heading."""
    return re.search(rf"^## Table {number} — .*?\n(.*?)(?=^## )", text,
                     re.S | re.M).group(1)


def printed_rows(block: str) -> dict[str, list[str]]:
    """Mechanism -> [load (paper), load (measured), msgs (paper), msgs
    (measured)] of one comparison table ``repro evaluate`` printed."""
    rows = {}
    for line in block.splitlines()[3:]:
        if line.lower().startswith(PURGE):
            load, messages = re.search(r"load (\S+) \* l, msgs (\S+)", line).groups()
            rows[PURGE] = ["-", load, "-", messages]
        else:
            label, *cells = (cell.strip() for cell in line.split("|"))
            rows[label.lower()] = cells
    return rows


def documented_rows(number: int) -> dict[str, list[str]]:
    rows = {}
    for line in section(EXPERIMENTS.read_text(encoding="utf-8"), number).splitlines():
        if line.startswith("| ") and not line.startswith("| Mechanism"):
            label, *cells = (cell.strip()
                             for cell in line.translate(DECORATION).strip("| ").split("|"))
            rows[label.lower()] = [cell.removesuffix("·l") for cell in cells]
    return rows


@pytest.fixture(scope="module")
def evaluated() -> str:
    return render_evaluation(full_evaluation())


@pytest.mark.parametrize("number", [4, 5, 6])
def test_documented_tables_are_what_repro_evaluate_prints(number, evaluated):
    normal, coordinated = (printed_rows(block) for block in
                           re.findall(r"```\n(.*?)```", section(evaluated, number), re.S))
    expected = {**normal, "coordinated execution": coordinated["coordinated execution"]}
    assert documented_rows(number) == expected
