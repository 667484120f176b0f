"""Unit tests for the CPU-time stack sampler.

Most tests feed the ``SIGPROF`` handler by hand with real frames — the
stack of the test at that point, running under package code such as the
simulator or the engine log — so what one sample does is exact; the
timer itself is covered by the start/stop test."""

import gc
import json
import signal
import sys
import time
from pathlib import Path

import pytest

from repro.engines.base import ControlSystem
from repro.obs import profile
from repro.obs.export import prometheus_text
from repro.obs.profile import (
    LAYERS,
    SAMPLE_WINDOW,
    Profiler,
    function_name,
    layer_of,
    peak_rss_kb,
)
from repro.obs.registry import MetricsRegistry
from repro.sim.kernel import Simulator
from repro.storage.wal import WriteAheadLog

SRC = Path(profile.__file__).resolve().parents[1]


@pytest.fixture
def sampled(monkeypatch):
    """A started profiler that only hand-fed samples reach (the process
    timer stays disarmed)."""
    prof = Profiler()
    monkeypatch.setattr(profile, "_LIVE", [prof])
    return prof


def sample_here():
    """One sample of the caller's stack, as ``SIGPROF`` would take it."""
    profile._on_sigprof(signal.SIGPROF, sys._getframe(1))


def in_simulator_event(fn):
    """Run ``fn`` as a kernel event: package frames below the caller."""
    sim = Simulator()
    sim.schedule(0.0, fn)
    sim.run()


def in_wal_replay(fn):
    """Run ``fn`` as an engine-log replay handler inside a kernel event."""
    wal = WriteAheadLog()
    wal.append("k", {})
    in_simulator_event(lambda: wal.replay({"k": lambda payload: fn()}))


def test_every_module_maps_to_exactly_one_layer():
    modules = sorted(path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py"))
    assert len(modules) > 50
    for rel in modules:
        homes = [layer for layer, entries in LAYERS.items() for entry in entries
                 if rel == entry or (entry.endswith("/") and rel.startswith(entry))]
        assert len(homes) == 1, (rel, homes)
        assert layer_of(str(SRC / rel)) == homes[0]
    for layer, entries in LAYERS.items():  # no entry names nothing
        for entry in entries:
            assert any(rel == entry or (entry.endswith("/") and rel.startswith(entry))
                       for rel in modules), (layer, entry)
    assert layer_of(json.__file__) is None


def test_self_time_excludes_child_time(sampled):
    """A sample goes to the layer of the innermost package frame only: a
    log replay inside a kernel event is the store's, not the kernel's."""
    in_simulator_event(sample_here)
    in_wal_replay(sample_here)
    in_wal_replay(sample_here)
    assert [(row["layer"], row["samples"]) for row in sampled.layers()] == [
        ("store", 2), ("kernel", 1)]
    assert sampled.total_samples() == 3 and sampled.samples[None] == 0


def test_collapsed_paths_nest_semicolon_separated(sampled):
    in_simulator_event(sample_here)
    in_wal_replay(sample_here)
    in_wal_replay(sample_here)
    kernel = f"{function_name(Simulator.run.__code__)};{function_name(Simulator.step.__code__)}"
    if sys.version_info >= (3, 11):  # code objects carry their qualname
        assert kernel == "repro.sim.kernel:Simulator.run;repro.sim.kernel:Simulator.step"
    assert sampled.collapsed().splitlines() == [
        f"{kernel} 1",
        f"{kernel};{function_name(WriteAheadLog.replay.__code__)} 2",
    ]


def test_frames_outside_the_package_make_no_row(sampled):
    sample_here()
    assert sampled.samples[None] == 1 and sampled.total_samples() == 0
    assert sampled.layers() == [] and sampled.collapsed() == ""
    assert "1 outside src/repro" in sampled.render_top()


def test_render_top_ranks_by_self_time(sampled):
    in_simulator_event(sample_here)
    for __ in range(3):
        in_wal_replay(sample_here)
    text = sampled.render_top()
    assert text.startswith("# 4 samples over ")
    assert "layer" in text and "share" in text
    assert text.index("store") < text.index("kernel")
    assert " 75.0%" in text and " 25.0%" in text
    assert "kernel" not in sampled.render_top(limit=1)


def test_publish_renders_per_frame_prometheus_series(sampled):
    in_simulator_event(sample_here)
    in_wal_replay(sample_here)
    registry = MetricsRegistry()
    sampled.publish(registry)
    sampled.publish(registry)  # assigned, so publishing again counts nothing twice
    text = prometheus_text(registry)
    assert 'crew_profile_samples_total{layer="kernel"} 1' in text
    assert 'crew_profile_samples_total{layer="store"} 1' in text
    assert 'crew_profile_cpu_seconds_total{layer="store"}' in text
    assert 'layer="rules"' not in text


def test_install_reads_the_counter_track_off_the_system(sampled):
    system = ControlSystem()
    assert sampled.install(system) is sampled
    system.simulator.schedule(1.0, sample_here)
    system.simulator.schedule(5.0, lambda: None)
    system.simulator.run()
    [(wall_ns, now, events, messages, pending)] = sampled.ticks
    assert (now, events, messages, pending) == (1.0, 1, 0, 1)
    assert wall_ns > 0


def test_sampling_every_interval(sampled):
    """Each sample takes one counter-track tick."""
    sampled.install(ControlSystem())
    for __ in range(5):
        sample_here()
    assert len(sampled.ticks) == sum(sampled.samples.values()) == 5


def test_samples_are_a_window_of_the_newest(sampled):
    sampled.install(ControlSystem())
    for __ in range(SAMPLE_WINDOW + 10):
        sample_here()
    assert len(sampled.ticks) == SAMPLE_WINDOW == sampled.summary()["ticks"]
    assert sampled.samples[None] == SAMPLE_WINDOW + 10


def test_chrome_counter_trace_structure(sampled):
    system = ControlSystem()
    sampled.install(system)
    for delay in (1.0, 2.0, 3.0):
        system.simulator.schedule(delay, sample_here)
    system.simulator.run()
    doc = sampled.chrome_counter_trace()
    counters = [e for e in doc["traceEvents"] if e.get("ph") == "C"]
    assert {e["name"] for e in counters} >= {"queue_depth", "messages", "sim_time",
                                            "events_per_sec"}
    assert [e["args"]["t"] for e in counters if e["name"] == "sim_time"] == [
        1000, 2000, 3000]
    ts = [e["ts"] for e in counters]
    assert ts == sorted(ts)  # wall-clock timestamps are monotone


def test_summary_is_json_safe(sampled):
    in_wal_replay(sample_here)
    summary = sampled.summary()
    json.dumps(summary)
    assert summary["samples"] == 1
    assert summary["layers"][0]["layer"] == "store"


def test_start_and_stop_arm_and_disarm_the_process_timer():
    """Two started profilers share the one timer: a real sample reaches
    both, and only the last stop disarms it and restores the handler."""
    before = signal.getsignal(signal.SIGPROF)
    first, second = Profiler().start(), Profiler().start()
    try:
        assert signal.getitimer(signal.ITIMER_PROF)[0] > 0
        assert signal.getsignal(signal.SIGPROF) is profile._on_sigprof
        deadline = time.process_time() + 5.0
        while not first.samples and time.process_time() < deadline:
            sum(range(1000))
        assert sum(first.samples.values()) > 0
        first.stop()
        assert signal.getitimer(signal.ITIMER_PROF)[0] > 0
        assert sum(second.samples.values()) >= sum(first.samples.values())
    finally:
        first.stop()
        second.stop()
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) == before


def test_a_profiler_dropped_unstopped_disarms_the_timer_at_the_next_sample():
    """A started profiler does not keep itself alive: dropped without
    :meth:`Profiler.stop` (a service nobody closed), it is collected, and
    the next sample disarms the timer and restores the handler."""
    before = signal.getsignal(signal.SIGPROF)
    Profiler().start()
    gc.collect()
    try:
        # One sample, as the timer delivers it (unless one already has:
        # a real signal now could meet the default disposition).
        profile._on_sigprof(signal.SIGPROF, None)
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGPROF) == before
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, before)
    # A profiler started while one dropped is still armed restores the
    # handler from before both, not the sampler's own.
    Profiler().start()
    gc.collect()
    later = Profiler().start()
    later.stop()
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) == before


def test_peak_rss_is_positive_on_posix():
    rss = peak_rss_kb()
    assert rss is None or rss > 0
