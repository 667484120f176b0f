"""What a serving daemon's relative-order authority holds once its
instances have committed, and what it granted on the way.

Four sequential batches of 16 ``Orders``, one part per batch, so
``part_fifo`` chains each batch (the ``serve-batch`` shape).  Every
authority is shadowed by the scan oracle for the whole run.
"""

import asyncio

import pytest

from repro.engines.distributed import WorkflowAgentNode
from repro.laws import load_laws
from repro.service import WorkflowService
from tests.conftest import ALL_ARCHITECTURES, ORDERS_LAWS
from tests.core.reference_ro import Shadowed

BATCHES, BATCH = 4, 16


def shadow_authorities(system, spec) -> list[Shadowed]:
    """Put a :class:`Shadowed` where each engine keeps ``spec``'s authority."""
    if system.architecture != "distributed":
        holders = [engine.authorities.ro for engine in system.engines]
    else:
        holders = [system.agent(system.authority_agent_for(spec)).authorities.ro]
    shadows = [Shadowed(spec) for __ in holders]
    for holder, shadow in zip(holders, shadows):
        holder[spec.name] = shadow
    return shadows


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_committed_batches_leave_no_relative_order_state(architecture, monkeypatch):
    shadows: list[Shadowed] = []
    piggybacked = []  # distributed: the ``orders`` of every grant sent

    send_grant = WorkflowAgentNode._send_grant

    def checked_send_grant(self, schema, instance, step, token, orders=None):
        """Figure 7 "R.O." lines: the triples of the oracle's full table
        that mention the granted instance, in its order."""
        [shadow] = shadows
        assert orders == [
            [shadow.spec.name, leading, lagging]
            for leading, lagging in shadow.scan.established_pairs()
            if instance in (leading, lagging)
        ]
        piggybacked.append(orders)
        send_grant(self, schema, instance, step, token, orders=orders)

    monkeypatch.setattr(WorkflowAgentNode, "_send_grant", checked_send_grant)

    async def main():
        service = WorkflowService(architecture=architecture, work_time_scale=0.001)
        service.start()
        document = load_laws(ORDERS_LAWS.read_text())
        document.install(service.system)
        [spec] = document.specs
        shadows.extend(shadow_authorities(service.system, spec))
        try:
            for batch in range(BATCHES):
                submitted = service.submit(
                    workflow="Orders", inputs={"part": f"part-{batch}", "qty": 1},
                    instances=BATCH,
                )
                for instance in submitted["instances"]:
                    async with asyncio.timeout(20):
                        while service.instance(instance)["status"] == "running":
                            await asyncio.sleep(0.01)
                    assert service.instance(instance)["status"] == "committed"
            # distributed: the purge broadcast of the last ids is a timer
            await service.runtime.join(timeout=10.0)
        finally:
            await service.close()

    asyncio.run(main())

    if architecture == "distributed":
        # The purge broadcast is the commit-time message that reaches the
        # authority.  A batch shares its part, so an instance is ordered
        # against at most the 15 before it, fewer once those are purged.
        assert len(piggybacked) == BATCHES * BATCH
        assert 0 < max(map(len, piggybacked)) <= BATCH - 1
    for shadow in shadows:
        authority = shadow.keyed
        assert authority._registrations == {}
        assert authority._completions == {}
        assert authority._groups == {}
