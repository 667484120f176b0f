"""Paper-scale integration run: the full Table 3 deployment point.

c=20 schemas, z=50 agents, a=2, failures/input-changes/aborts at the
paper's probabilities — the closest thing to the authors' prototype
deployment that fits in a unit-test budget.  Asserts global liveness
(every instance reaches a final state) and the headline cost shape.
"""

import pytest

from repro.engines import DistributedControlSystem, SystemConfig
from repro.runtime.metrics import Mechanism
from repro.storage.tables import InstanceStatus
from repro.workloads import WorkloadGenerator, WorkloadParameters


@pytest.mark.slow
def test_paper_scale_distributed_deployment():
    params = WorkloadParameters(c=20, i=5)  # 100 concurrent instances
    generator = WorkloadGenerator(params, seed=98, coordination=True)
    workload = generator.build()
    system = DistributedControlSystem(
        SystemConfig(seed=98, trace=False), num_agents=params.z,
        agents_per_step=params.a,
    )
    generator.install(system, workload)
    run = generator.drive(system, workload, instances_per_schema=5)
    system.run()

    finished = [i for i in run.instances if i in system.outcomes]
    assert len(finished) == len(run.instances) == 100
    statuses = {system.outcomes[i].status for i in finished}
    assert InstanceStatus.COMMITTED in statuses
    # Aborted instances only come from the admin abort requests.
    aborted = [i for i in finished
               if system.outcomes[i].status is InstanceStatus.ABORTED]
    assert set(aborted) <= set(run.aborted_requests)

    # Table 6 shape at full scale.
    per_instance = system.metrics.per_instance_messages(Mechanism.NORMAL)
    assert per_instance <= params.s * params.a + params.f
    mean_load = system.metrics.per_instance_load(
        Mechanism.NORMAL, system.agent_names()
    )
    assert mean_load < 1.0  # ~s/z, far below the centralized s


@pytest.mark.slow
def test_paper_scale_coordination_under_contention():
    """Heavy conflict: every instance shares one key, so the per-schema
    FIFO ordering serializes them all — and they all still commit."""
    params = WorkloadParameters(c=3, i=8, pf=0.0, pi=0.0, pa=0.0)
    generator = WorkloadGenerator(params, seed=99, key_pool=1,
                                  coordination=True)
    workload = generator.build()
    system = DistributedControlSystem(
        SystemConfig(seed=99, trace=False), num_agents=params.z,
        agents_per_step=params.a,
    )
    generator.install(system, workload)
    run = generator.drive(system, workload, instances_per_schema=8)
    system.run()
    assert all(i in system.outcomes and system.outcomes[i].committed
               for i in run.instances)
    assert system.metrics.total_messages(Mechanism.COORDINATION) > 0
