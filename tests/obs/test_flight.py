"""Flight recorder: bounded ring, crash/step-fail snapshots, trace bypass."""

from repro.engines import SystemConfig
from repro.obs.flight import FLIGHT_CAPACITY, FlightRecorder
from repro.workloads import figure3_workflow
from tests.conftest import linear_schema, make_system, register_programs


def test_ring_evicts_oldest():
    recorder = FlightRecorder(capacity=4)
    for n in range(10):
        recorder.note(float(n), "send", "Ping", "b", n, n)
    assert len(recorder) == 4
    assert recorder.recorded == 10
    snapshot = recorder.snapshot()
    assert [e["msg_id"] for e in snapshot] == [6, 7, 8, 9]


def test_snapshot_returns_copies():
    recorder = FlightRecorder(capacity=2)
    recorder.note(0.0, "send", "Ping", "b", 1, 1)
    snap = recorder.snapshot()
    snap[0]["msg_id"] = 999
    assert recorder.snapshot()[0]["msg_id"] == 1


def run_figure3(architecture, trace):
    system = make_system(architecture, config=SystemConfig(seed=11, trace=trace))
    figure3_workflow().install(system)
    ids = [system.start_workflow("Figure3", {"load": 5})]
    system.run()
    return system, ids


def test_step_fail_snapshots_even_with_tracing_off():
    """The whole point: post-mortem context lands when tracing is off."""
    for architecture in ("centralized", "distributed"):
        system, ids = run_figure3(architecture, trace=False)
        assert all(system.outcome(i).committed for i in ids)
        snaps = [r for r in system.trace.records
                 if r.kind == "flight.snapshot"]
        assert snaps, f"{architecture}: no flight snapshot on step.fail"
        snap = snaps[0]
        assert snap.detail["reason"] == "step.fail"
        assert snap.detail["step"] == "S4"
        events = snap.detail["events"]
        assert events, "snapshot should carry recent transport events"
        assert {"time", "dir", "interface", "peer", "msg_id",
                "lamport"} <= set(events[0])


def test_crash_dumps_flight_ring():
    system = make_system("distributed",
                         config=SystemConfig(seed=3, trace=False))
    schema = linear_schema()
    system.register_schema(schema)
    register_programs(system, schema)
    system.start_workflow("Linear", {"x": 1})
    victim = system.agent_names()[0]
    system.simulator.schedule(1.5, system.agent(victim).crash)
    system.simulator.schedule(3.0, system.agent(victim).recover)
    system.run()
    snaps = [r for r in system.trace.records
             if r.kind == "flight.snapshot" and r.detail["reason"] == "crash"]
    assert [r.node for r in snaps] == [victim]


def test_flight_events_survive_jsonl_export():
    """Snapshots are nested lists of dicts; the exporter must keep them."""
    import json

    from repro.obs.export import trace_to_jsonl

    system, __ = run_figure3("centralized", trace=False)
    text = trace_to_jsonl(system.trace)
    rows = [json.loads(line) for line in text.splitlines()]
    snaps = [r for r in rows if r["kind"] == "flight.snapshot"]
    assert snaps
    events = snaps[0]["detail"]["events"]
    assert isinstance(events, list) and isinstance(events[0], dict)
    assert "msg_id" in events[0]


def test_snapshot_is_bounded_window():
    """A long run's snapshot carries the last ``FLIGHT_CAPACITY`` events:
    eight instances through one engine overflow its ring."""
    system = make_system("centralized", config=SystemConfig(seed=5, trace=False))
    figure3_workflow().install(system)
    ids = [system.start_workflow("Figure3", {"load": 5}, delay=i * 0.5)
           for i in range(8)]
    system.run()
    assert all(system.outcome(i).committed for i in ids)
    snaps = [r for r in system.trace.records
             if r.kind == "flight.snapshot"]
    assert snaps
    assert max(len(r.detail["events"]) for r in snaps) == FLIGHT_CAPACITY == 64
    assert system._flights[snaps[-1].node].recorded > FLIGHT_CAPACITY


def test_node_without_notes_dumps_an_empty_ring():
    """The ring exists from node construction: a crash before any message
    still dumps a snapshot, with no events, and counts the crash."""
    from repro.engines.base import ControlSystem
    from repro.obs.export import prometheus_text
    from repro.runtime.node import Node

    for trace in (False, True):
        system = ControlSystem(SystemConfig(trace=trace))
        node = Node("idle", system.simulator, system.network)
        node.crash()
        [snapshot] = [r for r in system.trace.records if r.kind == "flight.snapshot"]
        assert (snapshot.node, snapshot.detail) == ("idle", {"reason": "crash", "events": []})
        crashes = 'crew_node_crashes_total{node="idle"} 1\n'
        assert (crashes in prometheus_text(system.registry)) is trace
