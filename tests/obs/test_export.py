"""Unit tests for the trace/metrics exporters."""

import json

from repro.obs.export import (
    US_PER_TIME_UNIT,
    chrome_trace,
    prometheus_text,
    render_chrome_trace,
    trace_to_jsonl,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import Tracer
from repro.runtime.trace import Trace


def make_tracer():
    tracer = Tracer()
    wf = tracer.start("wf-1", "workflow", "engine", 0.0, schema="Demo")
    step = tracer.start("wf-1/S1", "step", "agent-1", 1.0, parent=wf)
    tracer.end(step, 3.0, status="done")
    tracer.end(wf, 4.0, status="COMMITTED")
    return tracer


def test_jsonl_merges_records_and_spans_in_time_order():
    trace = Trace()
    trace.record(0.5, "engine", "workflow.start", instance="wf-1")
    text = trace_to_jsonl(trace, make_tracer())
    rows = [json.loads(line) for line in text.splitlines()]
    assert [r["type"] for r in rows] == ["span", "record", "span"]
    times = [r.get("time", r.get("start")) for r in rows]
    assert times == sorted(times)
    span_row = rows[-1]
    assert span_row["duration"] == 2.0
    assert span_row["parent_id"] == rows[0]["span_id"]


def test_jsonl_stringifies_non_json_values():
    trace = Trace()
    trace.record(1.0, "n", "k", payload=object())
    row = json.loads(trace_to_jsonl(trace))
    assert isinstance(row["detail"]["payload"], str)


def test_chrome_trace_structure():
    doc = chrome_trace(make_tracer())
    events = doc["traceEvents"]
    metas = [e for e in events if e["ph"] == "M"]
    completes = [e for e in events if e["ph"] == "X"]
    assert {m["args"]["name"] for m in metas} >= {"crew-sim", "engine", "agent-1"}
    assert len(completes) == 2
    wf = next(e for e in completes if e["cat"] == "workflow")
    step = next(e for e in completes if e["cat"] == "step")
    assert wf["ts"] == 0.0
    assert step["ts"] == 1.0 * US_PER_TIME_UNIT
    assert step["dur"] == 2.0 * US_PER_TIME_UNIT
    assert step["args"]["parent_id"] == wf["args"]["span_id"]
    # thread ids: one per node, stable within the document
    assert wf["tid"] != step["tid"]


def test_chrome_trace_skips_open_spans_and_adds_instants():
    tracer = Tracer()
    tracer.start("left-open", "workflow", "engine", 0.0)
    trace = Trace()
    trace.record(2.0, "engine", "step.done", step="S1")
    doc = chrome_trace(tracer, trace)
    assert not [e for e in doc["traceEvents"] if e["ph"] == "X"]
    instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    assert len(instants) == 1
    assert instants[0]["name"] == "step.done"
    assert instants[0]["cat"] == "trace"


def test_render_chrome_trace_is_valid_json():
    parsed = json.loads(render_chrome_trace(make_tracer()))
    assert parsed["displayTimeUnit"] == "ms"
    assert isinstance(parsed["traceEvents"], list)


def test_prometheus_counter_and_gauge_lines():
    reg = MetricsRegistry()
    reg.counter("crew_recoveries_total", help="recovery episodes",
                node="engine").inc(3)
    reg.gauge("crew_sim_time").set(12.5)
    text = prometheus_text(reg)
    assert "# HELP crew_recoveries_total recovery episodes" in text
    assert "# TYPE crew_recoveries_total counter" in text
    assert 'crew_recoveries_total{node="engine"} 3' in text
    assert "crew_sim_time 12.5" in text
    assert text.endswith("\n")


def test_prometheus_histogram_is_cumulative_with_inf_bucket():
    reg = MetricsRegistry()
    h = reg.histogram("crew_step_latency", buckets=(1.0, 5.0))
    for v in (0.5, 2.0, 99.0):
        h.observe(v)
    lines = prometheus_text(reg).splitlines()
    buckets = [ln for ln in lines if "_bucket" in ln]
    assert buckets == [
        'crew_step_latency_bucket{le="1"} 1',
        'crew_step_latency_bucket{le="5"} 2',
        'crew_step_latency_bucket{le="+Inf"} 3',
    ]
    assert "crew_step_latency_sum 101.5" in lines
    assert "crew_step_latency_count 3" in lines


def test_prometheus_empty_registry_is_empty_string():
    assert prometheus_text(MetricsRegistry()) == ""


# -- edge cases: empty traces and open spans --------------------------------


def test_exporters_handle_completely_empty_inputs():
    assert trace_to_jsonl(Trace()) == ""
    assert trace_to_jsonl(None, Tracer()) == ""
    assert trace_to_jsonl(None, None) == ""
    doc = chrome_trace(Tracer(), Trace())
    assert [e["ph"] for e in doc["traceEvents"]] == ["M"]  # process meta only
    json.loads(render_chrome_trace(None, None))


def test_jsonl_marks_open_spans():
    tracer = Tracer()
    tracer.start("left-open", "workflow", "engine", 1.0)
    row = json.loads(trace_to_jsonl(None, tracer))
    assert row["open"] is True
    assert row["end"] is None
    assert row["duration"] == 0.0


def test_chrome_trace_open_span_end_renders_open_spans():
    tracer = Tracer()
    tracer.start("left-open", "workflow", "engine", 1.0)
    doc = chrome_trace(tracer, open_span_end=5.0)
    (event,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert event["ts"] == 1.0 * US_PER_TIME_UNIT
    assert event["dur"] == 4.0 * US_PER_TIME_UNIT
    assert event["args"]["open"] is True


def test_finish_attributes_close_time_to_open_spans():
    """``Tracer.finish`` then export: closed at finish time, flagged."""
    tracer = Tracer()
    tracer.start("left-open", "step", "agent-1", 1.0)
    assert tracer.finish(7.5) == 1
    row = json.loads(trace_to_jsonl(None, tracer))
    assert row["end"] == 7.5
    assert row["open"] is False
    assert row["attrs"]["auto_closed"] is True


def test_jsonl_keeps_nested_structures():
    trace = Trace()
    trace.record(1.0, "n", "flight.snapshot",
                 events=[{"msg_id": 1, "extra": object()}], reason="crash")
    row = json.loads(trace_to_jsonl(trace))
    events = row["detail"]["events"]
    assert events[0]["msg_id"] == 1
    assert isinstance(events[0]["extra"], str)


# -- cross-node flow events and filters -------------------------------------


def make_linked_tracer():
    tracer = Tracer()
    send = tracer.instant("send:Ping", "message", "a", 1.0,
                          direction="send", msg_id=1, lamport=1)
    tracer.instant("recv:Ping", "message", "b", 2.0, link=send,
                   direction="recv", msg_id=1, lamport=2)
    return tracer


def test_chrome_trace_emits_flow_events_for_links():
    tracer = make_linked_tracer()
    doc = chrome_trace(tracer)
    events = doc["traceEvents"]
    starts = [e for e in events if e["ph"] == "s"]
    finishes = [e for e in events if e["ph"] == "f"]
    assert len(starts) == 1 and len(finishes) == 1
    (start,), (finish,) = starts, finishes
    recv = next(e for e in events
                if e["ph"] == "X" and e["name"] == "recv:Ping")
    send = next(e for e in events
                if e["ph"] == "X" and e["name"] == "send:Ping")
    assert start["id"] == finish["id"] == recv["args"]["span_id"]
    assert start["tid"] == send["tid"] and start["ts"] == send["ts"]
    assert finish["tid"] == recv["tid"] and finish["ts"] == recv["ts"]
    assert finish["bp"] == "e"
    assert recv["args"]["link_id"] == send["args"]["span_id"]


def test_chrome_trace_drops_flow_when_one_end_filtered_out():
    tracer = make_linked_tracer()
    doc = chrome_trace(tracer, nodes={"b"})
    events = doc["traceEvents"]
    assert [e["name"] for e in events if e["ph"] == "X"] == ["recv:Ping"]
    assert not [e for e in events if e["ph"] in ("s", "f")]


def test_jsonl_node_and_category_filters():
    trace = Trace()
    trace.record(0.5, "a", "workflow.start", instance="wf-1")
    trace.record(0.6, "b", "step.done", instance="wf-1")
    tracer = make_linked_tracer()
    rows = [json.loads(line) for line in
            trace_to_jsonl(trace, tracer, nodes={"a"}).splitlines()]
    assert {r["node"] for r in rows} == {"a"}
    rows = [json.loads(line) for line in
            trace_to_jsonl(trace, tracer,
                           categories={"message"}).splitlines()]
    spans = [r for r in rows if r["type"] == "span"]
    assert spans and all(r["category"] == "message" for r in spans)
    # records have no category and are unaffected by the category filter
    assert [r for r in rows if r["type"] == "record"]


def test_jsonl_span_rows_carry_link_id():
    tracer = make_linked_tracer()
    rows = [json.loads(line)
            for line in trace_to_jsonl(None, tracer).splitlines()]
    send = next(r for r in rows if r["name"] == "send:Ping")
    recv = next(r for r in rows if r["name"] == "recv:Ping")
    assert send["link_id"] is None
    assert recv["link_id"] == send["span_id"]


# -- edge cases: escaping, empty histograms, dropped-record provenance ------


def test_prometheus_escapes_label_values():
    reg = MetricsRegistry()
    reg.counter("crew_weird_total",
                path='C:\\tmp\\"x"\nend').inc(1)
    text = prometheus_text(reg)
    assert 'path="C:\\\\tmp\\\\\\"x\\"\\nend"' in text
    assert "\n" not in text.split("crew_weird_total{")[1].split("}")[0]


def test_prometheus_escapes_help_text():
    reg = MetricsRegistry()
    reg.gauge("crew_g", help="line one\nline two \\ slash").set(1)
    lines = prometheus_text(reg).splitlines()
    help_line = next(ln for ln in lines if ln.startswith("# HELP"))
    assert help_line == "# HELP crew_g line one\\nline two \\\\ slash"


def test_prometheus_empty_histogram_renders_zero_buckets():
    reg = MetricsRegistry()
    reg.histogram("crew_latency", buckets=(1.0, 2.0))
    lines = prometheus_text(reg).splitlines()
    assert 'crew_latency_bucket{le="1"} 0' in lines
    assert 'crew_latency_bucket{le="+Inf"} 0' in lines
    assert "crew_latency_sum 0" in lines
    assert "crew_latency_count 0" in lines


def test_counter_gauge_name_collision_is_rejected_before_export():
    # The exposition format forbids one family with two kinds; the
    # registry refuses the collision at creation time so the exporter
    # can never emit an ambiguous family.
    reg = MetricsRegistry()
    reg.counter("crew_thing").inc()
    import pytest
    with pytest.raises(ValueError):
        reg.gauge("crew_thing")
    text = prometheus_text(reg)
    assert text.count("# TYPE crew_thing ") == 1


def test_jsonl_appends_meta_line_when_records_dropped():
    trace = Trace(capacity=1)
    trace.record(1.0, "n", "k")
    trace.record(2.0, "n", "k")
    lines = trace_to_jsonl(trace).splitlines()
    meta = json.loads(lines[-1])
    assert meta == {"type": "meta", "dropped_records": 1, "capacity": 1}
    # and the analyzer skips it without error
    from repro.analysis.causal import CausalTrace
    ct = CausalTrace.from_jsonl("\n".join(lines))
    assert len(ct.records) == 1


def test_jsonl_has_no_meta_line_without_drops():
    trace = Trace()
    trace.record(1.0, "n", "k")
    assert "meta" not in trace_to_jsonl(trace)


def test_chrome_trace_carries_drop_metadata():
    trace = Trace(capacity=1)
    trace.record(1.0, "n", "k")
    trace.record(2.0, "n", "k")
    doc = chrome_trace(None, trace)
    assert doc["metadata"] == {"dropped_records": 1, "capacity": 1}
    assert "metadata" not in chrome_trace(None, Trace())


def test_evicted_spans_are_reported_beside_dropped_records():
    trace, tracer = Trace(capacity=2), Tracer(capacity=2)
    for tick in range(3):
        tracer.instant("rule:r", "rule", "n", float(tick))
    trace.record(1.0, "n", "k")
    expected = {"dropped_records": 0, "dropped_spans": 1, "capacity": 2}
    meta = json.loads(trace_to_jsonl(trace, tracer).splitlines()[-1])
    assert meta == {"type": "meta", **expected}
    assert chrome_trace(tracer, trace)["metadata"] == expected
    # an eviction is not an anomaly to the analyzer; a hole in the window is
    from repro.analysis.causal import CausalTrace
    tracer.instant("recv:X", "message", "n", 5.0, link=1, msg_id=1,
                   direction="recv")
    assert CausalTrace.from_run(trace, tracer).anomalies() == []
    tracer.instant("recv:X", "message", "n", 6.0, link=99, msg_id=2,
                   direction="recv")
    assert [a.kind for a in CausalTrace.from_run(trace, tracer).anomalies()] == [
        "orphan-link"]
