"""The purge broadcast of distributed control: what it retires, when it is
sent, and that a purged instance stays purged (simulator clock)."""

import pytest

from repro.core.coordination import ro_clearance_token
from repro.core.interfaces import WI
from repro.core.packets import WorkflowPacket
from repro.engines import DistributedControlSystem, SystemConfig
from repro.engines.distributed.failure import (
    PURGE_BATCH,
    VERB_PURGE,
    VERB_STATUS_PROBE,
    VERB_STATUS_PROBE_REPORT,
    VERB_STEP_STATUS_REPLY,
    VERB_UNHANDLED_FAILURE,
)
from repro.engines.distributed.navigation import VERB_NESTED_DONE
from repro.errors import ParameterError, StorageError
from repro.model import MutualExclusionSpec, RelativeOrderSpec, SchemaBuilder
from repro.runtime.metrics import Mechanism
from tests.conftest import REFUSED_QTY, agent_holdings, install_orders, register_programs


def make(purge_interval=2.0, num_agents=4, seed=3):
    return DistributedControlSystem(
        SystemConfig(seed=seed, purge_interval=purge_interval),
        num_agents=num_agents, agents_per_step=1,
    )


def orders_system(**kwargs):
    system = make(**kwargs)
    install_orders(system)
    return system


def holds_nothing(system, instance):
    """No agent holds anything of the instance, and every agent its purge
    was sent to holds its tombstone."""
    recipients = system.purge_recipients(system.outcome(instance).schema_name)
    for agent in system.agents:
        assert agent.agdb.was_purged(instance) or agent.name not in recipients
        assert not [name for name, ids in agent_holdings(agent).items() if instance in ids]
    return True


def late_payloads(instance, agent, other):
    """A well-formed payload of every verb an agent dispatches on."""
    orders = {"schema_name": "Orders", "instance_id": instance}
    chain = {**orders, "step_list": ["Reserve"], "mechanism": "failure",
             "executors": {"Reserve": agent}, "invalidations": {}}
    return {
        WI.WORKFLOW_START.value: {**orders, "inputs": {"part": "p", "qty": 1},
                                  "parent_link": None},
        WI.STEP_EXECUTE.value: WorkflowPacket(
            schema_name="Orders", instance_id=instance, action="execute",
            target_step="Reserve", events={"WF.S": 0.0, "Check.D": 1.0},
            data={"WF.part": "p", "WF.qty": 1, "Check.ok": 1},
            assigned_agent=agent).to_payload(),
        WI.STEP_COMPLETED.value: {**orders, "terminal": "Ship", "epoch": 0,
                                  "origin_history": {}, "executors": {},
                                  "done_times": {}, "data": {}},
        WI.WORKFLOW_ROLLBACK.value: {**orders, "origin": "Reserve", "failed_step": "Ship",
                                     "epoch": 1, "mechanism": "failure"},
        WI.HALT_THREAD.value: {**orders, "origin": "Reserve", "epoch": 1,
                               "mechanism": "failure", "invalidations": {}},
        WI.COMPENSATE_SET.value: {**chain, "origin_step": "Reserve", "initiator": other,
                                  "partial_kind": None},
        WI.COMPENSATE_THREAD.value: chain,
        WI.STEP_COMPENSATE.value: {**orders, "step": "Reserve", "kind": "complete",
                                   "reason": "abort"},
        WI.STEP_STATUS.value: {**orders, "step": "Reserve"},
        WI.INPUTS_CHANGED.value: {**orders, "origin": "Check", "epoch": 1,
                                  "changes": {"qty": 2}},
        WI.ADD_RULE.value: {"op": "ro_report", "spec": "part_fifo", "schema": "Orders",
                            "instance_id": instance, "pair_index": 0, "key": "p",
                            "time": 0.0},
        WI.ADD_EVENT.value: {**orders, "orders": [],
                             "token": ro_clearance_token("part_fifo", 1, instance)},
        WI.STATE_INFORMATION.value: {"probe_id": 1, "mechanism": "normal"},
        VERB_STEP_STATUS_REPLY: {"instance_id": instance, "step": "Ship", "status": "done"},
        "StateInformationReply": {"probe_id": 999, "load": 0},
        VERB_STATUS_PROBE: {"instance_id": instance, "probe_id": 7, "origin": other},
        VERB_STATUS_PROBE_REPORT: {"instance_id": instance, "probe_id": 7, "agent": other,
                                   "running": ["Ship"], "waiting": []},
        VERB_PURGE: {"instance_ids": [instance]},
        VERB_UNHANDLED_FAILURE: {**orders, "failed_step": "Pack", "executors": {},
                                 "done_times": {}},
        VERB_NESTED_DONE: {"parent_id": instance, "parent_step": "Pack", "outputs": {}},
    }


@pytest.mark.parametrize("interval", [None, 0.0, -1.0, float("inf"), float("nan")])
def test_the_purge_interval_is_always_a_positive_time(interval):
    with pytest.raises(ParameterError, match="purge_interval"):
        SystemConfig(purge_interval=interval)


def test_every_verb_arriving_for_a_purged_instance_is_a_traced_no_op():
    system = orders_system()
    instance = system.start_workflow("Orders", {"part": "p", "qty": 1})
    system.run()
    assert system.outcome(instance).committed and holds_nothing(system, instance)
    names = system.agent_names()
    no_instance = {WI.STATE_INFORMATION.value, "StateInformationReply", VERB_PURGE}

    for agent in system.agents:
        other = next(name for name in names if name != agent.name)
        payloads = late_payloads(instance, agent.name, other)
        # a verb added to the table needs its late-message case here
        assert set(payloads) == set(agent.handlers)
        appends = agent.agdb.wal.appends
        late_before = system.trace.count("purge.late")
        for verb, payload in payloads.items():
            system.network.send(other, agent.name, verb, payload, Mechanism.NORMAL)
        system.run()
        assert holds_nothing(system, instance)
        assert agent.agdb.wal.appends == appends
        late = system.trace.filter(kind="purge.late")[late_before:]
        assert [r.detail["verb"] for r in late] == [v for v in payloads if v not in no_instance]
        assert all(r.node == agent.name and r.detail["instance"] == instance for r in late)

    # the front-end calls that could still name it
    coordinator = system.coordination_agent_for("Orders")
    coordinator.workflow_start("Orders", instance, {"part": "p", "qty": 1})
    coordinator.workflow_status_probe(instance)
    coordinator.workflow_abort(instance)  # "rejected after commit", as before
    system.run()
    assert holds_nothing(system, instance)
    assert not [name for name in system.rng._streams if name.startswith("prog:")]
    with pytest.raises(StorageError, match="stays purged"):
        coordinator._runtime("Orders", instance)


@pytest.mark.parametrize("how", ["unhandled failure", "front-end abort"])
def test_an_aborted_instance_is_purged_like_a_committed_one(how):
    system = orders_system()
    refused = how == "unhandled failure"
    instance = system.start_workflow(
        "Orders", {"part": "p", "qty": REFUSED_QTY if refused else 1})
    if not refused:
        system.abort_workflow(instance, delay=3.0)  # Reserve done, Pack running
    system.run()
    assert system.outcome(instance).status.value == "aborted"
    assert holds_nothing(system, instance)
    # not before the abort's compensation had hopped to the agents it names
    compensated = system.trace.filter(kind="step.compensate")
    [broadcast] = system.trace.filter(kind="purge.broadcast")
    assert compensated and all(r.time < broadcast.time for r in compensated)
    assert system.coordination_agent_for("Orders").workflow_status(instance).value == "aborted"


def test_a_full_batch_is_broadcast_without_waiting_for_the_timer():
    system = orders_system(purge_interval=10_000.0)
    instances = [system.start_workflow("Orders", {"part": f"p{n}", "qty": 1}, delay=n)
                 for n in range(PURGE_BATCH + 3)]
    system.run(until=5_000.0)
    assert all(system.outcome(instance).committed for instance in instances)
    [broadcast] = system.trace.filter(kind="purge.broadcast")
    assert broadcast.detail["count"] == PURGE_BATCH and broadcast.time < 100.0
    assert all(holds_nothing(system, instance) for instance in instances[:PURGE_BATCH])
    coordinator = system.coordination_agent_for("Orders")
    assert list(coordinator._purge_pending) == instances[PURGE_BATCH:]
    # (recipients - 1) messages per PURGE_BATCH instances, all of them
    # counted as purge traffic
    sent = system.metrics.messages_by_interface[(Mechanism.PURGE, VERB_PURGE)]
    assert sent == system.metrics.interface_messages(VERB_PURGE)
    assert sent == len(system.purge_recipients("Orders")) - 1
    system.run()  # the timer takes the rest
    assert all(holds_nothing(system, instance) for instance in instances)


def test_a_nested_child_is_purged_while_its_parent_runs():
    system = make(purge_interval=1.0)
    child = SchemaBuilder("Child", inputs=["a"])
    child.step("C1", program="Child.C1", inputs=["WF.a"], outputs=["o"])
    child.output("co", "C1.o")
    system.register_schema(child.build())
    parent = SchemaBuilder("Parent", inputs=["x"])
    parent.step("P1", program="Parent.P1", inputs=["WF.x"], outputs=["o"])
    parent.step("Sub", subworkflow="Child", inputs=["P1.o"], outputs=["co"])
    parent.step("P2", program="Parent.P2", inputs=["Sub.co"], outputs=["o"], cost=400.0)
    parent.sequence("P1", "Sub", "P2")
    parent.output("r", "P2.o")
    schema = parent.build()
    system.register_schema(schema)
    register_programs(system, schema)
    instance = system.start_workflow("Parent", {"x": 1})
    system.run()
    [nested] = [i for i in system.outcomes if i.startswith(instance + ".Sub")]
    assert system.outcome(nested).committed and system.outcome(instance).committed
    first, second = system.trace.filter(kind="purge.broadcast")
    assert first.time < system.outcome(instance).finished_at < second.time
    assert holds_nothing(system, nested) and holds_nothing(system, instance)


def test_recovery_after_a_purge_does_not_resurrect_the_instance():
    system = orders_system()
    instance = system.start_workflow("Orders", {"part": "p", "qty": 1})
    running = system.start_workflow("Orders", {"part": "q", "qty": 1}, delay=40.0)
    for agent in system.agents:
        system.simulator.schedule(41.0, agent.crash)
        system.simulator.schedule(43.0, agent.recover)
    system.run()
    assert system.outcome(instance).committed and system.outcome(running).committed
    assert system.outcome(instance).finished_at < 40.0
    recovered = system.trace.filter(kind="agent.recovered")
    assert len(recovered) == len(system.agents)
    assert holds_nothing(system, instance) and holds_nothing(system, running)
    for agent in system.agents:
        # from the log alone: the summary says committed, nothing else is back
        clone = agent.agdb.replay_clone()
        assert clone.was_purged(instance) and not clone.has_fragment(instance)
        assert clone.recovered_tracker(instance) is None


def xor_schema():
    """A -> (B | C) -> D: an instance with ``skip`` set goes around B."""
    builder = SchemaBuilder("W", inputs=["k", "skip"])
    builder.step("A", program="W.A", inputs=["WF.k"], outputs=["o"])
    builder.step("B", program="W.B", outputs=["o"])
    builder.step("C", program="W.C", outputs=["o"])
    builder.step("D", program="W.D", join="xor", outputs=["o"])
    builder.branch("A", [("C", "WF.skip == 1")], otherwise="B")
    builder.arc("B", "D")
    builder.arc("C", "D")
    builder.output("r", "D.o")
    return builder.build()


def laggard_behind_a_skipped_step(system):
    """Two instances ordered on the governed pair (A, B) of
    :func:`xor_schema`: the first commits around B, the second must
    still be let through B."""
    schema = xor_schema()
    system.register_schema(schema)
    register_programs(system, schema)
    system.add_coordination(RelativeOrderSpec(
        name="ab", schema_a="W", schema_b="W", steps_a=("A", "B"), steps_b=("A", "B"),
        conflict_key="WF.k",
    ))
    around = system.start_workflow("W", {"k": "same", "skip": 1})
    behind = system.start_workflow("W", {"k": "same", "skip": 0}, delay=0.5)
    system.run()
    assert system.outcome(around).committed and system.outcome(behind).committed
    purge = system.trace.filter(kind="purge.broadcast")[0]
    b_done = next(r for r in system.trace.filter(kind="step.done")
                  if r.detail["instance"] == behind and r.detail["step"] == "B")
    assert purge.time < b_done.time  # it was the purge that let it through
    assert holds_nothing(system, around) and holds_nothing(system, behind)


def test_the_purge_withdraws_what_a_terminal_instance_still_orders():
    """An instance that committed around a governed step never completes
    that pair; once purged it no longer orders the instances behind it."""
    laggard_behind_a_skipped_step(make())


def test_the_laggard_commits_at_the_simulators_default_interval():
    """The same order on the simulator as configured by default: the
    laggard waits one purge interval, and it commits."""
    laggard_behind_a_skipped_step(DistributedControlSystem(
        SystemConfig(seed=3), num_agents=4, agents_per_step=1))


def test_the_purge_releases_a_region_lock_an_aborted_instance_left_held():
    system = make()
    builder = SchemaBuilder("Linear", inputs=["x"])
    for step, cost in (("S1", 1.0), ("S2", 1.0), ("S3", 200.0), ("S4", 1.0)):
        builder.step(step, program=f"Linear.{step}", outputs=["out"], cost=cost)
    builder.sequence("S1", "S2", "S3", "S4")
    schema = builder.build()
    system.register_schema(schema)
    register_programs(system, schema)
    system.add_coordination(MutualExclusionSpec(
        name="mx", schema_a="Linear", schema_b="Linear",
        region_a=("S2", "S3"), region_b=("S2", "S3"), conflict_key="WF.x",
    ))
    holder = system.start_workflow("Linear", {"x": "r"})
    waiter = system.start_workflow("Linear", {"x": "r"}, delay=0.5)
    # Halted inside the region, the holder never reaches the step that
    # releases; and the lock was asked for by S2's agent, not by the
    # coordination agent that aborts.  Only the purge tells the authority.
    system.abort_workflow(holder, delay=3.0)
    system.run()
    assert system.outcome(holder).status.value == "aborted"
    assert system.outcome(waiter).committed
    assert holds_nothing(system, holder) and holds_nothing(system, waiter)
