"""Unit tests for the structured trace log."""

from repro.runtime.trace import Trace


def make_trace():
    trace = Trace()
    trace.record(1.0, "engine", "step.done", instance="i1", step="S1")
    trace.record(2.0, "agent-1", "step.fail", instance="i1", step="S2")
    trace.record(3.0, "engine", "step.done", instance="i2", step="S1")
    return trace


def test_records_in_order():
    trace = make_trace()
    assert [r.time for r in trace] == [1.0, 2.0, 3.0]
    assert len(trace) == 3


def test_filter_by_kind():
    trace = make_trace()
    assert len(trace.filter(kind="step.done")) == 2


def test_filter_by_node():
    trace = make_trace()
    assert len(trace.filter(node="engine")) == 2


def test_filter_by_predicate():
    trace = make_trace()
    hits = trace.filter(predicate=lambda r: r.detail.get("instance") == "i1")
    assert len(hits) == 2


def test_first_last_count():
    trace = make_trace()
    assert trace.first("step.done").time == 1.0
    assert trace.last("step.done").time == 3.0
    assert trace.count("step.done") == 2
    assert trace.first("missing") is None
    assert trace.last("missing") is None


def test_disabled_trace_records_nothing():
    trace = Trace(enabled=False)
    trace.record(1.0, "n", "k")
    assert len(trace) == 0


def test_capacity_drops_excess():
    trace = Trace(capacity=2)
    for i in range(5):
        trace.record(float(i), "n", "k")
    assert len(trace) == 2
    assert trace.dropped == 3


def test_kinds_sorted_unique():
    trace = make_trace()
    assert trace.kinds() == ["step.done", "step.fail"]


def test_render_with_limit():
    trace = make_trace()
    text = trace.render(limit=1)
    assert "step.done" in text
    assert "2 more records" in text


def test_ring_capacity_keeps_newest():
    trace = Trace(capacity=2, ring=True)
    for i in range(5):
        trace.record(float(i), "n", "k", seq=i)
    assert len(trace) == 2
    assert [r.time for r in trace] == [3.0, 4.0]
    assert trace.dropped == 3


def test_default_capacity_keeps_oldest():
    trace = Trace(capacity=2)
    for i in range(5):
        trace.record(float(i), "n", "k")
    assert [r.time for r in trace] == [0.0, 1.0]


def test_ring_without_capacity_is_unbounded():
    trace = Trace(ring=True)
    for i in range(10):
        trace.record(float(i), "n", "k")
    assert len(trace) == 10
    assert trace.dropped == 0


def test_ring_queries_work_over_deque():
    trace = Trace(capacity=3, ring=True)
    for i in range(6):
        trace.record(float(i), "n", "even" if i % 2 == 0 else "odd")
    assert trace.count("odd") == 2
    assert trace.first("even").time == 4.0
    assert trace.kinds() == ["even", "odd"]


def test_render_reports_dropped_newest():
    trace = Trace(capacity=1)
    trace.record(1.0, "n", "k")
    trace.record(2.0, "n", "k")
    assert "1 newest records dropped at capacity 1" in trace.render()


def test_render_reports_dropped_oldest():
    trace = Trace(capacity=1, ring=True)
    trace.record(1.0, "n", "k")
    trace.record(2.0, "n", "k")
    assert "1 oldest records dropped at capacity 1" in trace.render()


def test_render_without_drops_has_no_drop_line():
    trace = make_trace()
    assert "dropped" not in trace.render()


def test_drop_summary_none_until_records_are_lost():
    trace = Trace(capacity=2, ring=True)
    trace.record(1.0, "n", "k")
    assert trace.drop_summary() is None
    trace.record(2.0, "n", "k")
    trace.record(3.0, "n", "k")
    assert trace.drop_summary() == (
        "trace ring buffer dropped 1 record(s) (oldest first; capacity 2)"
    )


def test_drop_summary_counts_the_span_tracers_losses_too():
    trace = Trace(capacity=2, ring=True)
    assert trace.drop_summary(spans_dropped=3) == (
        "trace ring buffer dropped 0 record(s) and 3 span(s) "
        "(oldest first; capacity 2)"
    )
    assert trace.drop_summary(spans_dropped=0) is None


def test_drop_summary_reports_newest_policy():
    trace = Trace(capacity=1)
    trace.record(1.0, "n", "k")
    trace.record(2.0, "n", "k")
    trace.record(3.0, "n", "k")
    assert trace.drop_policy == "newest"
    assert trace.drop_summary() == (
        "trace ring buffer dropped 2 record(s) (newest first; capacity 1)"
    )


def test_filter_combined_criteria():
    trace = make_trace()
    hits = trace.filter(kind="step.done", node="engine",
                        predicate=lambda r: r.detail["instance"] == "i2")
    assert [r.time for r in hits] == [3.0]
    assert trace.filter(kind="step.fail", node="engine") == []


def test_snapshot_in_ring_mode_counts_evictions():
    trace = Trace(capacity=2, ring=True)
    trace.record(1.0, "n", "k")
    trace.record(2.0, "n", "k")
    assert trace.dropped == 0
    trace.snapshot(3.0, "n", "crash")
    assert trace.dropped == 1
    assert [r.time for r in trace.records] == [2.0, 3.0]


def test_snapshot_newest_policy_exceeds_capacity_without_drops():
    # Non-ring capacity mode: snapshots bypass the cap entirely, so
    # nothing is evicted and nothing is counted.
    trace = Trace(capacity=1)
    trace.record(1.0, "n", "k")
    trace.snapshot(2.0, "n", "crash")
    assert trace.dropped == 0
    assert len(trace.records) == 2
