"""The purge goes only to the agents that can hold something of an
instance, and that is enough: the oracle behind the narrow broadcast.

Every message that reaches an agent is read through the transport
observer.  One that names an instance (``instance_id`` or ``parent_id``)
must reach an agent in the recipient set of that instance's schema
(:meth:`DistributedControlSystem.purge_recipients`): an agent outside it
never learns of the instance, so it never holds anything the purge would
have to retire.  A purge batch may name instances of several schemas:
each agent is sent only the ids whose recipient set holds it, and the
coordination agent that sends the batch retires them all.  Once the run
is quiescent, every recipient holds the instance's tombstone, no agent
outside the set and its coordination agent does, and no agent holds
anything else of it.

The runs are the distributed configs of the evaluation grid (normal and
coordinated; centralized and parallel control keep no fragments to
purge), on the sweep's normal path and in the failure mode where every
instance rolls back once, and the distributed plans of the chaos grid.
"""

from __future__ import annotations

import pytest

from repro.analysis.chaos import CHAOS_INSTANCES_PER_SCHEMA, ChaosTask
from repro.analysis.experiment import EVAL_PARAMS, PreparedRun
from repro.engines import DistributedControlSystem, SystemConfig
from repro.engines.distributed.failure import VERB_PURGE
from repro.model import RelativeOrderSpec
from tests.conftest import agent_holdings, linear_schema, register_programs

#: The failure mode of the simulator benchmark: failure rates at the top
#: of their ranges, and every schema's failure step fails its first try.
FAILURE_PARAMS = EVAL_PARAMS.evolve(pf=0.2, pi=0.05, pa=0.05, pr=0.5)


def observe_deliveries(system) -> list[tuple[str, str, dict]]:
    """(agent, verb, payload) of every message delivered from now on."""
    delivered = []
    received = system.received

    def observed(node, message):
        delivered.append((node.name, message.interface, message.payload))
        return received(node, message)

    system.received = observed
    return delivered


def check_recipients(system, delivered) -> None:
    schema_of = {iid: outcome.schema_name for iid, outcome in system.outcomes.items()}
    assert schema_of, "the run finished no instance"
    strays = []
    for agent, verb, payload in delivered:
        if verb == VERB_PURGE:
            # an agent is sent only the ids of a batch it can hold
            strays.extend((agent, verb, instance) for instance in payload["instance_ids"]
                          if agent not in system.purge_recipients(schema_of[instance]))
            continue
        instance = payload.get("instance_id") or payload.get("parent_id")
        if instance is not None and agent not in system.purge_recipients(
                schema_of[instance]):
            strays.append((agent, verb, instance))
    assert not strays
    for instance, schema_name in schema_of.items():
        recipients = system.purge_recipients(schema_name)
        sender = system.owner_of(instance)
        for agent in system.agents:
            assert agent.agdb.was_purged(instance) == (
                agent.name in recipients or agent.name == sender), (agent.name, instance)
            held = [name for name, ids in agent_holdings(agent).items() if instance in ids]
            assert not held, (agent.name, instance, held)
    assert not [name for name in system.rng._streams if name.startswith("prog:")]


@pytest.mark.parametrize("failure", [False, True], ids=["sweep", "failure"])
@pytest.mark.parametrize("coordination", [False, True], ids=["normal", "coordinated"])
def test_evaluation_configs_reach_only_recipients_and_leave_tombstones(
    coordination, failure
):
    run = PreparedRun("distributed", FAILURE_PARAMS if failure else EVAL_PARAMS,
                      coordination=coordination, fail_first_attempt=failure, seed=7)
    delivered = observe_deliveries(run.system)
    run.execute()
    assert len(run.system.outcomes) == len(run.started)
    check_recipients(run.system, delivered)


@pytest.mark.parametrize("config", ["distributed/normal", "distributed/coordinated"])
def test_chaos_plans_reach_only_recipients_and_leave_tombstones(config):
    for seed in range(1, 26):
        task = ChaosTask(config=config, seed=seed)
        run = PreparedRun("distributed", task.resolved_params(),
                          coordination=config.endswith("coordinated"), seed=seed)
        run.system.inject_faults(task.plan())
        delivered = observe_deliveries(run.system)
        run.execute(CHAOS_INSTANCES_PER_SCHEMA)
        check_recipients(run.system, delivered)


def test_an_authority_host_outside_the_schema_is_a_recipient():
    """B's steps run on agents 0 and 1; the authority ordering it behind
    A sits with A's third step, on agent 2.  B's registrations there go
    with B's purge only because agent 2 is one of B's recipients."""
    system = DistributedControlSystem(SystemConfig(seed=4), num_agents=6)
    for name, steps in (("A", 4), ("B", 2)):
        schema = linear_schema(name, steps=steps)
        system.register_schema(schema)
        register_programs(system, schema)
    system.add_coordination(RelativeOrderSpec(
        name="ab", schema_a="A", schema_b="B", steps_a=("S3", "S4"),
        steps_b=("S1", "S2"), conflict_key="WF.x",
    ))
    host = system.authority_agent_for(system.spec_index.ro[0])
    assert host not in {agent for (schema_name, __), eligible in system.assignment.items()
                        if schema_name == "B" for agent in eligible}
    assert host in system.purge_recipients("B")
    delivered = observe_deliveries(system)
    for n in range(3):
        system.start_workflow("A", {"x": "k"}, delay=n)
        system.start_workflow("B", {"x": "k"}, delay=n + 0.5)
    system.run()
    assert any(agent == host and verb != VERB_PURGE and payload.get("schema") == "B"
               for agent, verb, payload in delivered)
    check_recipients(system, delivered)
