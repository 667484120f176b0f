"""Unit tests for the in-engine instrumentation profiler."""

import pytest

from repro.obs.export import prometheus_text
from repro.obs.profile import EVENT_FRAMES, Profiler, peak_rss_kb, profiled
from repro.obs.registry import MetricsRegistry


class Network:
    """Name-collides with the real transport on purpose: its ``_arrive``
    carries the exact qualname the EVENT_FRAMES table maps."""

    def _arrive(self):
        pass


class Unmapped:
    def tick(self):
        pass


def test_push_pop_balance_and_depth():
    prof = Profiler()
    prof.push("a")
    prof.push("b")
    assert prof.depth() == 2
    prof.pop()
    prof.pop()
    assert prof.depth() == 0
    assert prof.total_wall_ns() >= 0


def test_self_time_excludes_child_time():
    prof = Profiler()
    prof.push("parent")
    prof.push("child")
    prof.pop()
    prof.pop()
    stats = {s.name: s for s in prof.top_frames()}
    parent, child = stats["parent"], stats["child"]
    assert parent.calls == child.calls == 1
    # Cumulative covers the child; self must not double-count it.
    assert parent.cum_ns >= child.cum_ns
    assert parent.self_ns + child.cum_ns <= parent.cum_ns + 1_000_000


def test_collapsed_paths_nest_semicolon_separated():
    prof = Profiler()
    prof.push("outer")
    prof.push("inner")
    prof.pop()
    prof.pop()
    lines = prof.collapsed().splitlines()
    paths = {line.rsplit(" ", 1)[0] for line in lines}
    assert paths == {"outer", "outer;inner"}
    for line in lines:
        assert int(line.rsplit(" ", 1)[1]) >= 1


def test_begin_event_maps_known_qualnames():
    prof = Profiler()
    assert "Network._arrive" in EVENT_FRAMES
    prof.begin_event(Network()._arrive, now=1.0, sim_dt=0.5, queue_depth=3)
    prof.end_event()
    stats = {s.name: s for s in prof.top_frames()}
    assert stats["transport.arrive"].calls == 1
    assert stats["transport.arrive"].sim_units == pytest.approx(0.5)
    assert prof.events == 1
    assert prof.max_queue_depth == 3


def test_begin_event_degrades_unknown_actions_to_event_prefix():
    prof = Profiler()
    prof.begin_event(Unmapped().tick, now=0.0, sim_dt=0.0, queue_depth=0)
    prof.end_event()
    names = [s.name for s in prof.top_frames()]
    assert names == ["event:Unmapped.tick"]


def test_sampling_every_interval():
    prof = Profiler(sample_interval=2)
    action = Unmapped().tick
    for i in range(5):
        prof.begin_event(action, now=float(i), sim_dt=0.0, queue_depth=i)
        prof.end_event()
    assert len(prof.samples) == 2  # events 2 and 4
    assert prof.samples[-1][2] == 4


def test_samples_are_a_window_of_the_newest():
    from repro.obs.profile import SAMPLE_WINDOW

    prof = Profiler(sample_interval=1)
    action = Unmapped().tick
    for i in range(SAMPLE_WINDOW + 10):
        prof.begin_event(action, now=float(i), sim_dt=0.0, queue_depth=0)
        prof.end_event()
    assert len(prof.samples) == SAMPLE_WINDOW == prof.summary()["samples"]
    assert prof.samples[0][2] == 11 and prof.samples[-1][2] == SAMPLE_WINDOW + 10


def test_sample_interval_must_be_positive():
    with pytest.raises(ValueError):
        Profiler(sample_interval=0)


def test_profiled_decorator_is_transparent_when_disabled():
    calls = []

    class Engine:
        def __init__(self, profile):
            self.network = type("Net", (), {"profile": profile})()

        @profiled("dispatch.step")
        def step(self, value):
            calls.append(value)
            return value * 2

    assert Engine(None).step(21) == 42
    prof = Profiler()
    assert Engine(prof).step(21) == 42
    assert calls == [21, 21]
    stats = {s.name: s for s in prof.top_frames()}
    assert stats["dispatch.step"].calls == 1
    assert prof.depth() == 0


def test_render_top_ranks_by_self_time():
    prof = Profiler()
    prof.push("hot")
    for __ in range(10_000):
        pass
    prof.pop()
    prof.push("cold")
    prof.pop()
    text = prof.render_top(limit=5)
    assert "frame" in text and "self %" in text
    assert text.index("hot") < text.index("cold")


def test_publish_renders_per_frame_prometheus_series():
    prof = Profiler()
    prof.push("wal.append")
    prof.pop()
    prof.begin_event(Unmapped().tick, now=0.0, sim_dt=0.0, queue_depth=7)
    prof.end_event()
    prof.messages += 3
    registry = MetricsRegistry()
    prof.publish(registry)
    text = prometheus_text(registry)
    assert 'crew_profile_frame_calls_total{frame="wal.append"} 1' in text
    assert "crew_profile_events_total 1" in text
    assert "crew_profile_messages_total 3" in text
    assert "crew_profile_max_queue_depth 7" in text
    assert "crew_profile_messages_per_event 3" in text


def test_chrome_counter_trace_structure():
    prof = Profiler(sample_interval=1)
    action = Unmapped().tick
    for i in range(3):
        prof.begin_event(action, now=float(i), sim_dt=1.0, queue_depth=1)
        prof.end_event()
    doc = prof.chrome_counter_trace()
    counters = [e for e in doc["traceEvents"] if e.get("ph") == "C"]
    assert {e["name"] for e in counters} >= {"queue_depth", "messages",
                                            "sim_time"}
    ts = [e["ts"] for e in counters]
    assert ts == sorted(ts)  # wall-clock timestamps are monotone


def test_install_wires_ducktyped_hooks():
    class Wal:
        appends = 0
        profile = None

    class Store:
        def __init__(self):
            self.wal = Wal()

    class NodeObj:
        def __init__(self):
            self.store = Store()

    class Net:
        profile = None

        def __init__(self):
            self._nodes = {"n1": NodeObj()}

        def node_names(self):
            return list(self._nodes)

        def node(self, name):
            return self._nodes[name]

    class Sim:
        profile = None

    class System:
        def __init__(self):
            self.simulator = Sim()
            self.network = Net()

    system = System()
    prof = Profiler()
    assert prof.install(system) is prof
    assert system.profiler is prof
    assert system.simulator.profile is prof
    assert system.network.profile is prof
    assert system.network.node("n1").store.wal.profile is prof


def test_summary_is_json_safe():
    import json

    prof = Profiler()
    prof.push("a")
    prof.pop()
    summary = prof.summary()
    json.dumps(summary)
    assert summary["frames"][0]["frame"] == "a"


def test_peak_rss_is_positive_on_posix():
    rss = peak_rss_kb()
    assert rss is None or rss > 0
