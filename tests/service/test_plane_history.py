"""What the always-on observability plane of a serving daemon holds once
its instances have committed: a window, not a life story.

By counts, no clocks.  Sequential batches of 32 ``Orders`` (the
``serve-batch`` shape) through an in-process :class:`WorkflowService` whose
``trace_capacity`` both rings outgrow many times over.
"""

import asyncio
import gc
import json
import tracemalloc

import pytest

from repro.analysis.causal import CausalTrace
from repro.cli import main
from repro.laws import load_laws
from repro.obs.registry import MetricsRegistry
from repro.service import WorkflowService
from tests.conftest import ALL_ARCHITECTURES, ORDERS_LAWS, faulted_run, faulted_system

BATCH = 32


async def commit_batches(service, first, count):
    for batch in range(first, first + count):
        submitted = service.submit(
            workflow="Orders", inputs={"part": f"part-{batch}", "qty": 1},
            instances=BATCH,
        )
        for instance in submitted["instances"]:
            async with asyncio.timeout(30):
                while service.instance(instance)["status"] == "running":
                    await asyncio.sleep(0.005)
            assert service.instance(instance)["status"] == "committed"
    await service.runtime.join(timeout=10.0)


#: KB the trace and span rings may keep per finished ``Orders`` instance.
#: The deque rings of one object per row kept 11.6 (centralized), 13.4
#: (parallel) and 11.4 (distributed); the column rings keep about 2.6-3.0.
RING_BUDGET_KB = 5.5


async def traced_growth_kb(architecture, capacity, batches):
    """KB the traced heap grows by per instance over ``batches`` batches of
    a memory-only, observability-on daemon, after a two-batch warm-up."""
    service = WorkflowService(architecture=architecture, work_time_scale=0.001,
                              trace_capacity=capacity)
    service.start()
    load_laws(ORDERS_LAWS.read_text()).install(service.system)
    try:
        await commit_batches(service, 0, 2)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        await commit_batches(service, 2, batches)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        await service.close()
    return (after - before) / 1024.0 / (batches * BATCH)


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_the_rings_keep_a_few_kb_per_finished_instance(architecture):
    """What the two rings cost is what a daemon whose capacity is above the
    run keeps beyond the same daemon whose rings stay full (capacity 64)."""
    batches = 6
    tracemalloc.start()
    try:
        window = asyncio.run(traced_growth_kb(architecture, 10 * BATCH * 60, batches))
        rest = asyncio.run(traced_growth_kb(architecture, 64, batches))
    finally:
        tracemalloc.stop()
    assert 0.5 < window - rest < RING_BUDGET_KB, (window, rest)


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_six_hundred_commits_leave_a_window_of_the_plane(architecture, tmp_path, capsys):
    capacity = 2000

    async def run():
        service = WorkflowService(architecture=architecture, work_time_scale=0.001,
                                  trace_capacity=capacity)
        service.start()
        load_laws(ORDERS_LAWS.read_text()).install(service.system)
        try:
            await commit_batches(service, 0, 19)  # 608 instances
            return service, service.trace_jsonl()
        finally:
            await service.close()

    service, jsonl = asyncio.run(run())
    system = service.system
    tracer = system.tracer

    # keeps what fits, and says what did not
    assert len(tracer) == len(tracer.spans) == capacity
    assert len(system.trace.records) == capacity
    assert tracer.dropped > 5 * capacity and system.trace.dropped > capacity
    assert f"and {tracer.dropped} span(s)" in system.trace.drop_summary(tracer.dropped)
    # nothing per instance outlives the instance
    assert system._workflow_spans == {} and system._recovery_spans == {}
    assert system._step_spans == {}
    assert tracer._open_children == {}
    assert not [name for name in system.rng._streams if name.startswith("prog:")]

    # the window still reads: a parent or a link older than the oldest
    # retained span was evicted, not lost
    meta = json.loads(jsonl.splitlines()[-1])
    assert meta["type"] == "meta" and meta["dropped_spans"] > 0
    assert meta["capacity"] == capacity and "drop_policy" not in meta
    assert tracer.check_nesting() == []
    trace = CausalTrace.from_jsonl(jsonl)
    oldest = min(trace.by_id)
    evicted_refs = [s for s in trace.spans
                    if (s.link_id or oldest) < oldest or (s.parent_id or oldest) < oldest]
    assert evicted_refs, "no span of the window points out of it"
    assert trace.anomalies() == []
    dump = tmp_path / "window.jsonl"
    dump.write_text(jsonl)
    assert main(["analyze", str(dump), "--strict"]) == 0
    assert "no causal anomalies" in capsys.readouterr().out

    # the same dump without its meta line is what a lossy export looks like
    lossy = CausalTrace.from_jsonl("\n".join(jsonl.splitlines()[:-1]))
    assert {a.kind for a in lossy.anomalies()} <= {"orphan-link", "orphan-parent"}
    assert len(lossy.anomalies()) >= len(evicted_refs)


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_aborted_and_rolled_back_instances_leave_no_span_behind(architecture):
    """The faulted run rolls back, times out, cancels and aborts: every
    per-instance span map still drains."""
    system, __ = faulted_run(architecture)
    assert system.trace.count("rollback") and system.trace.count("workflow.aborted")
    assert system._workflow_spans == {} and system._recovery_spans == {}
    assert system._step_spans == {}


def test_a_purge_forgets_the_span_of_a_step_launched_after_the_end():
    """agent-001 recovers, re-drives the aborted instance's step and then
    hears of the abort: nothing will close that span.  A daemon never
    drains its clock, so the purge that retires the instance drops it."""
    system, __ = faulted_system("distributed", purge_interval=1.0)
    system.simulator.run()
    assert system.trace.count("purge.broadcast")
    assert system._step_spans == {}


def test_an_observation_costs_a_look_up_not_a_registration(monkeypatch):
    """Past warm-up, no hook reaches ``MetricsRegistry._child`` — label
    normalisation, bucket validation, family bookkeeping — again."""
    registrations = []
    full_path = MetricsRegistry._child

    def spy(self, name, *args):
        registrations.append(name)
        return full_path(self, name, *args)

    async def run():
        service = WorkflowService(architecture="centralized", work_time_scale=0.001)
        service.start()
        load_laws(ORDERS_LAWS.read_text()).install(service.system)
        try:
            await commit_batches(service, 0, 2)
            monkeypatch.setattr(MetricsRegistry, "_child", spy)
            await commit_batches(service, 2, 7)  # 224 instances, ~20 observes each
        finally:
            monkeypatch.setattr(MetricsRegistry, "_child", full_path)
            await service.close()

    asyncio.run(run())
    assert registrations == []
