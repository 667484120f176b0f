"""When a step's ``prog:`` random stream is born, and what it draws.

The stream is resolved on the first read of ``ExecutionContext.rng``, so
a program that never draws costs none; one that first draws on a
re-execution sees exactly what it saw when every execution resolved its
stream up front.
"""

import pytest

from repro.core.programs import FunctionProgram
from repro.engines import SystemConfig
from repro.workloads import figure3_workflow
from tests.conftest import ALL_ARCHITECTURES, make_system

#: What ``prog:Figure3-1:S2`` gives its first three draws at seed 11.
PINNED_DRAWS = [0.5670326430909141, 0.26152811280038446, 0.853143566902224]


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_a_stream_first_drawn_on_re_execution_sees_the_pinned_values(architecture):
    system = make_system(architecture, config=SystemConfig(seed=11, trace=False))
    scenario = figure3_workflow()
    draws, alive_at_s6 = [], []

    def route(inputs, ctx):
        # The first attempt never reads ctx.rng; the rollback's re-execution
        # draws three floats from the step's stream.
        if ctx.attempt == 1:
            return {"route": "top"}
        draws.extend(ctx.rng.random() for __ in range(3))
        return {"route": "bottom"}

    def ship(inputs, ctx):
        alive_at_s6.extend(sorted(n for n in system.rng._streams if n.startswith("prog:")))
        return {"res": "shipped"}

    scenario.programs["fig3.s2"] = FunctionProgram(route)
    scenario.programs["fig3.s6"] = FunctionProgram(ship)
    scenario.install(system)
    instance = system.start_workflow("Figure3", {"load": 5})
    system.run()
    assert system.outcome(instance).committed
    assert draws == PINNED_DRAWS
    # S1, S3, S4 and S5 ran without drawing: only S2's stream was born.
    assert alive_at_s6 == ["prog:Figure3-1:S2"]
    assert not [n for n in system.rng._streams if n.startswith("prog:")]
