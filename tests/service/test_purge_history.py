"""What a serving daemon's engines and agents hold once their instances are
terminal: what is in flight, plus at most a purge batch.

By counts, no clocks.  Sequential batches of 32 ``Orders`` over eight
recurring ``part`` keys through one in-process :class:`WorkflowService`
per architecture; every eighth batch carries a quantity ``ord.reserve``
refuses, so those instances abort through the unhandled-failure path.

Distributed control forgets through the purge broadcast.  What may remain
there per finished instance is its id in each agent's purged set and
``purge`` rows, and its ``summary`` rows at the agent that coordinated it;
nothing else — no fragment or log chain, rule engine, commit tracker, probe
entry or authority registration.
"""

import asyncio

import pytest

from repro.engines.distributed import WorkflowAgentNode
from repro.engines.distributed.failure import PURGE_BATCH
from repro.service import WorkflowService
from tests.conftest import ALL_ARCHITECTURES, REFUSED_QTY, agent_holdings, install_orders

BATCH, BATCHES, PARTS, ABORT_EVERY = 32, 64, 8, 8


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_two_thousand_terminal_instances_leave_what_is_in_flight(architecture, monkeypatch):
    piggybacked = []  # distributed: the size of every grant's ``orders``
    send_grant = WorkflowAgentNode._send_grant

    def counting_send_grant(self, schema, instance, step, token, orders=None):
        piggybacked.append(len(orders or ()))
        send_grant(self, schema, instance, step, token, orders=orders)

    monkeypatch.setattr(WorkflowAgentNode, "_send_grant", counting_send_grant)
    most_committed_held = 0

    async def run():
        nonlocal most_committed_held
        service = WorkflowService(architecture=architecture, work_time_scale=0.001,
                                  trace_capacity=2000)
        service.start()
        system = service.system
        install_orders(system)
        try:
            for batch in range(BATCHES):
                aborting = batch % ABORT_EVERY == ABORT_EVERY - 1
                service.submit(
                    workflow="Orders", instances=BATCH,
                    inputs={"part": f"part-{batch % PARTS}",
                            "qty": REFUSED_QTY if aborting else 1},
                )
                async with asyncio.timeout(60):
                    while service.running_count():
                        await asyncio.sleep(0.002)
                if architecture != "distributed":
                    continue
                # Nothing is in flight, no timer was waited for.  Committed
                # instances still held: fewer than a batch waiting for its
                # broadcast, and the batch whose broadcast is on its way.
                committed = set(system.committed_instances())
                for agent in system.agents:
                    for name, ids in agent_holdings(agent).items():
                        assert len(ids & committed) < 2 * PURGE_BATCH, (agent.name, name)
                        most_committed_held = max(most_committed_held, len(ids & committed))
            # the last purge broadcast is a timer; so is an aborted instance's
            await service.runtime.join(timeout=10.0)
        finally:
            await service.close()
        return service

    service = asyncio.run(run())
    system = service.system
    aborted = BATCH * (BATCHES // ABORT_EVERY)
    assert len(system.aborted_instances()) == aborted
    assert len(system.committed_instances()) == BATCH * BATCHES - aborted

    if architecture == "distributed":
        assert most_committed_held > 0  # the checkpoints looked at something
        for agent in system.agents:
            assert {name: ids for name, ids in agent_holdings(agent).items() if ids} == {}
            assert {record.kind for record in agent.agdb.wal} <= {"summary", "purge"}
            assert len(agent.agdb._purged) == BATCH * BATCHES
        assert not [name for name in system.rng._streams if name.startswith("prog:")]
        # A grant carries the pairs of the instances registered on its key:
        # the batch's own, never those of the 7 earlier batches on that part.
        assert len(piggybacked) >= len(system.committed_instances())
        assert max(piggybacked) < BATCH
        coordinator = system.coordination_agent_for("Orders")
        summaries = [r for r in coordinator.agdb.wal if r.kind == "summary"]
        assert len(summaries) == 2 * BATCH * BATCHES  # running, then terminal
        return

    engines = [system.engine] if architecture == "centralized" else system.engines
    for engine in engines:
        assert engine.runtimes == {} and engine._inflight == {}
        assert engine.wfdb._instances == {} and engine.wfdb._chains._chains == {}
        authorities = engine.authorities.ro if architecture == "centralized" else engine.replica.ro
        for authority in authorities.values():
            assert authority._registrations == {} and authority._completions == {}
            assert authority._groups == {}
    # the archived instance's summary row is what the engine log keeps
    assert sum(len(engine.wfdb.wal) for engine in engines) == BATCH * BATCHES
