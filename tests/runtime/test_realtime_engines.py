"""The full engine stack on the wall-clock runtime.

These are the integration seams the serve daemon depends on: each
architecture's control system, constructed over
:class:`~repro.runtime.realtime.RealtimeRuntime`, runs a real workflow
to commit on actual asyncio timers.  Timing assertions are loose (the
suite must pass on slow CI); outcome assertions are exact.
"""

import asyncio

import pytest

from repro.engines import (
    CentralizedControlSystem,
    DistributedControlSystem,
    ParallelControlSystem,
    SystemConfig,
)
from repro.errors import WorkloadError
from repro.model import SchemaBuilder
from repro.runtime.faults import FaultPlan
from repro.runtime.realtime import RealtimeRuntime

SYSTEMS = {
    "centralized": CentralizedControlSystem,
    "parallel": ParallelControlSystem,
    "distributed": DistributedControlSystem,
}


def pair_schema():
    builder = SchemaBuilder("Pair", inputs=["x"])
    builder.step("A", program="p.a", inputs=["WF.x"], outputs=["y"], cost=1)
    builder.step("B", program="p.b", inputs=["A.y"], outputs=["z"], cost=1)
    builder.arc("A", "B")
    builder.output("result", "B.z")
    return builder.build()


def wallclock_config():
    return SystemConfig(
        latency=0.0,
        work_time_scale=0.001,
        step_status_timeout=1.0,
        step_status_poll_interval=0.5,
    )


async def run_to_outcome(system, instance_id, timeout=5.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        if instance_id in system.outcomes:
            return system.outcomes[instance_id]
        await asyncio.sleep(0.02)
    raise AssertionError(f"{instance_id} did not finish within {timeout}s")


@pytest.mark.parametrize("architecture", sorted(SYSTEMS))
def test_workflow_commits_on_wall_clock(architecture):
    async def main():
        runtime = RealtimeRuntime()
        system = SYSTEMS[architecture](wallclock_config(), runtime=runtime)
        runtime.start()
        system.register_schema(pair_schema())
        instance_id = system.start_workflow("Pair", {"x": 1})
        outcome = await run_to_outcome(system, instance_id)
        assert outcome.committed
        assert outcome.outputs == {"result": "B.z@1"}
        assert system.metrics.total_messages() > 0

    asyncio.run(main())


def test_synchronous_run_is_refused_on_asyncio_runtime():
    system = CentralizedControlSystem(wallclock_config(),
                                      runtime=RealtimeRuntime())
    with pytest.raises(WorkloadError) as excinfo:
        system.run()
    assert "join()" in str(excinfo.value)


def test_fault_injection_installs_on_asyncio_runtime():
    system = CentralizedControlSystem(wallclock_config(),
                                      runtime=RealtimeRuntime())
    injector = system.inject_faults(FaultPlan(drop_p=0.1))
    assert system.runtime.faults is injector
    assert system.runtime.executor.faults is injector
    with pytest.raises(WorkloadError):
        system.inject_faults(FaultPlan())  # double install is refused
