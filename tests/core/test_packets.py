"""Unit tests for workflow packets."""

from repro.core.packets import WorkflowPacket
from repro.runtime.metrics import Mechanism


def make_packet():
    return WorkflowPacket(
        schema_name="W",
        instance_id="i1",
        action="execute",
        target_step="S2",
        data={"WF.x": 1, "S1.o": 2},
        events={"WF.S": 0.0, "S1.D": 1.0},
        invalidations={"S3.D": 5.0},
        recovery_epoch=2,
        mechanism=Mechanism.FAILURE,
        ro_info=(("spec", "lead", "lag"),),
        executors={"S1": "agent-1"},
        assigned_agent="agent-2",
        parent_link=("parent-1", "P3"),
    )


def test_payload_roundtrip():
    packet = make_packet()
    restored = WorkflowPacket.from_payload(packet.to_payload())
    assert restored == packet


def test_defaults_roundtrip():
    packet = WorkflowPacket(schema_name="W", instance_id="i1",
                            action="execute", target_step="S1")
    restored = WorkflowPacket.from_payload(packet.to_payload())
    assert restored == packet
    assert restored.mechanism is Mechanism.NORMAL
    assert restored.parent_link is None


def test_evolve_creates_modified_copy():
    packet = make_packet()
    other = packet.evolve(target_step="S3", assigned_agent="agent-9")
    assert other.target_step == "S3"
    assert other.assigned_agent == "agent-9"
    assert packet.target_step == "S2"  # original untouched


def test_payload_copies_are_independent():
    packet = make_packet()
    payload = packet.to_payload()
    payload["data"]["WF.x"] = 999
    assert packet.data["WF.x"] == 1
