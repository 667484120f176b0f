"""What a workload hands back to ``run.py``."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Outcome:
    #: Instances the workload tried to take to a terminal outcome.
    attempted: int = 0
    #: Refused, errored, wrong status or outputs, lost or duplicated across
    #: a crash, or over the commit limit.
    failed: int = 0
    #: Correctness violations.  Any entry makes the command exit non-zero.
    violations: list[str] = field(default_factory=list)
    #: Remarks printed beside the metrics (an invalid window, a retry).
    notes: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
