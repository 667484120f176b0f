"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.obs.profile import LAYERS


@pytest.fixture()
def laws_file(tmp_path):
    path = tmp_path / "demo.laws"
    path.write_text("""
workflow Demo {
  inputs x;
  step A program d.a reads WF.x writes o;
  step B program d.b reads A.o writes o;
  arc A -> B;
  on failure of B rollback to A;
  output out = B.o;
}
order fifo between Demo(A, B) and Demo(A, B) on WF.x;
""")
    return str(path)


def test_tables_prints_all_architectures(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    for title in ("Centralized", "Parallel", "Distributed", "Recommended Choice"):
        assert title in out
    assert "l*s/z" in out


def test_tables_with_overrides(capsys):
    assert main(["tables", "--z", "100"]) == 0
    out = capsys.readouterr().out
    assert "0.15 * l" in out  # s/z = 15/100


def test_check_validates_laws_file(capsys, laws_file):
    assert main(["check", laws_file]) == 0
    out = capsys.readouterr().out
    assert "Demo" in out
    assert "RelativeOrderSpec" in out
    assert "OK: 1 workflow(s), 1 coordination spec(s)." in out


def test_check_missing_file_errors(capsys):
    assert main(["check", "/nonexistent.laws"]) == 2
    assert "error" in capsys.readouterr().err


def test_check_invalid_laws_errors(tmp_path, capsys):
    bad = tmp_path / "bad.laws"
    bad.write_text("workflow W { step A; step B; }")  # two start steps
    assert main(["check", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_run_executes_instances(capsys, laws_file):
    assert main(["run", laws_file, "--instances", "2", "--input", "x=5"]) == 0
    out = capsys.readouterr().out
    assert "2/2 committed" in out


def test_run_with_trace_and_architecture(capsys, laws_file):
    assert main(["run", laws_file, "--architecture", "centralized",
                 "--trace", "--input", "x=1"]) == 0
    out = capsys.readouterr().out
    assert "workflow.commit" in out
    assert "1/1 committed under centralized control" in out


def test_scenario_travel(capsys):
    assert main(["scenario", "travel"]) == 0
    out = capsys.readouterr().out
    assert "TravelBooking-1: committed" in out
    assert "step.reuse" in out  # the OCR recovery is visible in the trace


def test_scenario_figure3_all_architectures(capsys):
    for architecture in ("centralized", "parallel", "distributed"):
        assert main(["scenario", "figure3", "--architecture", architecture]) == 0
        out = capsys.readouterr().out
        assert "Figure3-1: committed" in out


def test_compare_runs_all_architectures(capsys):
    assert main(["compare", "--instances", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("paper model vs simulation") == 3


def test_evaluate_writes_markdown_report(tmp_path, capsys):
    out = tmp_path / "report.md"
    assert main(["evaluate", "--output", str(out)]) == 0
    text = out.read_text()
    assert "# CREW evaluation (regenerated)" in text
    assert "Table 4 — centralized control" in text
    assert "Table 7 — recommendation matrix" in text
    assert "OCR vs Saga ablation" in text
    assert "Saga baseline" in text


def test_trace_chrome_is_valid_trace_event_json(capsys):
    import json

    assert main(["trace", "figure3", "--architecture", "centralized"]) == 0
    doc = json.loads(capsys.readouterr().out)
    events = doc["traceEvents"]
    cats = {e.get("cat") for e in events if e["ph"] == "X"}
    assert {"workflow", "step", "recovery"} <= cats
    # every complete event's parent starts no later and ends no earlier
    spans = {e["args"]["span_id"]: e for e in events if e["ph"] == "X"}
    for e in spans.values():
        parent = spans.get(e["args"].get("parent_id"))
        if parent is not None:
            assert parent["ts"] <= e["ts"]
            assert e["ts"] + e["dur"] <= parent["ts"] + parent["dur"] + 1.0


def test_trace_jsonl_lines_parse(capsys):
    import json

    assert main(["trace", "figure3", "--format", "jsonl"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [json.loads(line) for line in lines]
    assert {"record", "span"} == {r["type"] for r in rows}


def test_trace_out_writes_file(tmp_path):
    import json

    out = tmp_path / "trace.json"
    assert main(["trace", "figure3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["traceEvents"]


def test_metrics_prometheus_output(capsys):
    assert main(["metrics", "figure3", "--instances", "2"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE crew_step_latency histogram" in out
    assert "crew_step_latency_bucket" in out
    assert "crew_instances_started_total" in out


def test_scenario_with_observability_outputs(tmp_path, capsys):
    import json

    trace_out = tmp_path / "t.json"
    metrics_out = tmp_path / "m.prom"
    assert main(["scenario", "figure3", "--trace-out", str(trace_out),
                 "--metrics-out", str(metrics_out)]) == 0
    assert json.loads(trace_out.read_text())["traceEvents"]
    assert "crew_step_latency" in metrics_out.read_text()


def test_run_trace_out_implies_instrumentation(tmp_path, laws_file):
    import json

    out = tmp_path / "run-trace.json"
    assert main(["run", laws_file, "--input", "x=1",
                 "--trace-out", str(out)]) == 0
    events = json.loads(out.read_text())["traceEvents"]
    assert any(e.get("cat") == "workflow" for e in events)


def test_trace_node_and_category_filters(capsys):
    import json

    assert main(["trace", "figure3", "--format", "jsonl",
                 "--architecture", "centralized",
                 "--node", "engine", "--category", "message"]) == 0
    rows = [json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()]
    assert rows
    assert all(r["node"] == "engine" for r in rows)
    spans = [r for r in rows if r["type"] == "span"]
    assert spans and all(r["category"] == "message" for r in spans)


def test_trace_chrome_has_flow_events(capsys):
    import json

    assert main(["trace", "figure3", "--architecture", "distributed"]) == 0
    events = json.loads(capsys.readouterr().out)["traceEvents"]
    assert [e for e in events if e["ph"] == "s" and e["cat"] == "flow"]
    assert [e for e in events if e["ph"] == "f" and e["cat"] == "flow"]


def test_trace_follow_prints_causal_chain(capsys):
    assert main(["trace", "figure3", "--architecture", "distributed",
                 "--follow", "Figure3-1"]) == 0
    out = capsys.readouterr().out
    assert "causal chain for Figure3-1" in out
    assert "<-link-" in out  # at least one cross-node hop


def test_trace_follow_unknown_instance_errors(capsys):
    assert main(["trace", "figure3", "--follow", "Nope-1"]) == 1
    assert "no spans" in capsys.readouterr().err


@pytest.fixture()
def jsonl_trace(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    assert main(["trace", "figure3", "--architecture", "distributed",
                 "--seed", "7", "--format", "jsonl", "--out", str(path)]) == 0
    capsys.readouterr()
    return str(path)


def test_analyze_reports_timeline_and_is_clean(capsys, jsonl_trace):
    assert main(["analyze", jsonl_trace]) == 0
    out = capsys.readouterr().out
    assert "Figure3-1" in out
    assert "critical path" in out
    assert "phase" in out
    assert "no causal anomalies" in out


def test_analyze_check_invariants_passes_on_canonical_trace(capsys, jsonl_trace):
    assert main(["analyze", jsonl_trace, "--check-invariants"]) == 0
    assert "invariants OK" in capsys.readouterr().out


def test_analyze_check_invariants_fails_on_violating_trace(tmp_path, capsys):
    import json

    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([
        json.dumps({"type": "record", "time": 1.0, "node": "e",
                    "kind": "workflow.commit",
                    "detail": {"instance": "w-1"}}),
        json.dumps({"type": "record", "time": 2.0, "node": "e",
                    "kind": "workflow.commit",
                    "detail": {"instance": "w-1"}}),
    ]) + "\n")
    assert main(["analyze", str(bad), "--check-invariants"]) == 1
    out = capsys.readouterr().out
    assert "at-most-once-commit" in out
    assert "workflow.commit" in out  # the offending record chain is printed


def test_analyze_strict_fails_on_anomalies(tmp_path, capsys):
    import json

    bad = tmp_path / "orphan.jsonl"
    bad.write_text(json.dumps({
        "type": "span", "span_id": 1, "parent_id": None, "link_id": 99,
        "name": "recv:X", "category": "message", "node": "a",
        "start": 0.0, "end": 0.0, "duration": 0.0, "open": False,
        "attrs": {"direction": "recv", "msg_id": 1, "lamport": 1},
    }) + "\n")
    assert main(["analyze", str(bad)]) == 0  # informational by default
    capsys.readouterr()
    assert main(["analyze", str(bad), "--strict"]) == 1
    assert "orphan-link" in capsys.readouterr().out


def test_analyze_missing_file_errors(capsys):
    assert main(["analyze", "/nonexistent.jsonl"]) == 2
    assert "error" in capsys.readouterr().err


def test_profile_single_config_prints_table_and_collapsed(capsys):
    assert main(["profile", "--config", "centralized-normal",
                 "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "# profile: 1 config(s)" in out
    header, row = (
        [cell.strip() for cell in line.split("|")]
        for line in out.splitlines() if line.startswith(("config", "centralized-normal")))
    assert header[-2:] == ["peak RSS KB", "gc objects"]
    assert int(row[-1].replace(",", "")) > 0     # objects the collector still tracks
    table = out[out.index("\n# ") + 1:out.index("# garbage collector:")].splitlines()
    assert table[0].startswith("# ") and " samples over " in table[0]
    assert table[1].split() == ["layer", "samples", "cpu", "ms", "share"]
    rows = [line.split() for line in table[2:] if line]
    assert 0 < len(rows) <= 5                    # ranked layer table, --top rows
    assert all(row[0] in LAYERS and int(row[1]) > 0 for row in rows)
    assert "layer CPU times above still include it" in out
    assert "# collapsed stacks" in out           # flamegraph output
    stacks = out[out.index("# collapsed stacks"):].splitlines()[1:]
    assert stacks and all(";" in line and line.rsplit(" ", 1)[1].isdigit()
                          for line in stacks)
    assert all(frame.startswith("repro.") and ":" in frame
               for line in stacks for frame in line.rsplit(" ", 1)[0].split(";"))


def test_profile_rejects_bad_config(capsys):
    assert main(["profile", "--config", "bogus-nonsense"]) == 1
    assert "bad config 'bogus-nonsense'" in capsys.readouterr().err


def test_profile_writes_artifacts(tmp_path, capsys):
    import json

    collapsed = tmp_path / "p.collapsed"
    chrome = tmp_path / "p.json"
    metrics = tmp_path / "p.prom"
    blob = tmp_path / "p.summary.json"
    assert main(["profile", "--config", "parallel-normal",
                 "--collapsed", str(collapsed), "--chrome", str(chrome),
                 "--metrics-out", str(metrics), "--json", str(blob)]) == 0
    assert ";" in collapsed.read_text()
    doc = json.loads(chrome.read_text())
    assert any(e.get("ph") == "C" for e in doc["traceEvents"])
    assert 'crew_profile_samples_total{layer="' in metrics.read_text()
    summary = json.loads(blob.read_text())
    assert summary["runs"][0]["config"] == "parallel-normal"
    assert summary["runs"][0]["gc_objects"] > 0
    assert summary["profile"]["samples"] > 0
    assert {row["layer"] for row in summary["profile"]["layers"]} <= set(LAYERS)
    assert summary["gc"]["collections"] == summary["runs"][0]["gc"]["collections"]
    assert 0 <= summary["gc"]["share_of_wall"] < 1
    # collapsed went to the file, not stdout
    assert "# collapsed stacks" not in capsys.readouterr().out


def test_sweep_progress_flag_prints_status_lines(capsys):
    assert main(["sweep", "--workers", "1", "--progress"]) == 0
    captured = capsys.readouterr()
    assert "[6/6]" in captured.err
    assert "events/s" in captured.err
    assert "events/s" in captured.out            # table column too


def test_top_parse_prometheus():
    from repro.cli import _metric_value, _parse_prometheus

    text = "\n".join([
        "# HELP crew_x Things.",
        "# TYPE crew_x counter",
        'crew_x{architecture="centralized",status="COMMITTED"} 3',
        'crew_x{architecture="centralized",status="ABORTED"} 1',
        "crew_plain 2.5",
        "garbage line without a value x",
        "",
    ])
    metrics = _parse_prometheus(text)
    assert _metric_value(metrics, "crew_plain") == 2.5
    assert _metric_value(metrics, "crew_x") == 4.0          # summed
    assert _metric_value(metrics, "crew_x", status="COMMITTED") == 3.0
    assert _metric_value(metrics, "crew_missing", default=7.0) == 7.0


def test_top_render_frame():
    from repro.cli import _parse_prometheus, _render_top

    status = {
        "architecture": "centralized", "runtime": "asyncio", "uptime": 12.5,
        "ready": True, "draining": False, "instances_finished": 1,
        "instances_submitted": 2, "events_processed": 9, "messages_sent": 8,
        "executor_errors": 2, "trace_dropped": 0,
    }
    instances = [
        {"instance": "Orders-1", "workflow": "Orders",
         "status": "committed", "age": 1.25},
        {"instance": "Orders-2", "status": "running", "age": 0.5},
    ]
    metrics = _parse_prometheus("\n".join([
        "crew_realtime_pending_timers 2",
        "crew_executor_inflight_tasks 1",
        "crew_service_event_subscribers 0",
        "crew_service_instance_latency_seconds_count 1",
        "crew_service_instance_latency_seconds_sum 0.25",
    ]))
    events = {"Orders-1": {"count": 12, "last": "workflow.committed"}}
    frame = _render_top(status, instances, metrics, events)
    assert "1/2 finished" in frame
    assert "errors 2" in frame and "retries" not in frame
    assert "mean latency 0.250s" in frame
    assert "Orders-1" in frame and "workflow.committed" in frame
    assert "Orders-2" in frame and "running" in frame
    assert "ready" in frame and "NOT READY" not in frame
    empty = _render_top(dict(status, ready=False, draining=True), [], {}, {})
    assert "NOT READY (draining)" in empty
    assert "(no instances submitted yet)" in empty
