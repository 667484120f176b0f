"""Structured NDJSON logging: level gate, bound fields, correlation."""

import io
import json
import sys

import pytest

from repro.obs.logging import (
    LEVELS,
    StructuredLogger,
    correlation_fields,
    open_log_stream,
)


def make_logger(**kwargs):
    stream = io.StringIO()
    kwargs.setdefault("clock", lambda: 123.456789)
    return StructuredLogger(stream=stream, **kwargs), stream


def records(stream):
    return [json.loads(line) for line in stream.getvalue().splitlines()]


def test_record_shape_and_sorted_keys():
    logger, stream = make_logger(service="svc")
    logger.info("instance.finished", instance="Orders-1", latency=0.25)
    [rec] = records(stream)
    assert rec == {
        "ts": 123.456789,
        "level": "info",
        "event": "instance.finished",
        "service": "svc",
        "instance": "Orders-1",
        "latency": 0.25,
    }
    # one JSON object per line, keys serialized sorted (greppable diffs)
    line = stream.getvalue().splitlines()[0]
    keys = list(json.loads(line))
    assert keys == sorted(keys)


def test_level_gate_discards_below_threshold():
    logger, stream = make_logger(min_level="warning")
    logger.debug("a")
    logger.info("b")
    logger.warning("c")
    logger.error("d")
    assert [r["event"] for r in records(stream)] == ["c", "d"]


def test_unknown_level_raises():
    logger, __ = make_logger()
    with pytest.raises(KeyError):
        logger.log("fatal", "boom")
    with pytest.raises(ValueError):
        StructuredLogger(stream=io.StringIO(), min_level="loud")


def test_disabled_logger_never_formats():
    class Explosive:
        def __str__(self):
            raise AssertionError("serialized a disabled record")

    logger = StructuredLogger(stream=None)
    assert not logger.enabled
    logger.error("x", payload=Explosive())  # gate short-circuits first


def test_bind_layers_fields_and_shares_stream():
    logger, stream = make_logger(service="svc")
    child = logger.bind(instance="I-1")
    grandchild = child.bind(node="agent-1", instance="I-2")
    grandchild.info("e")
    [rec] = records(stream)
    assert rec["service"] == "svc"
    assert rec["instance"] == "I-2"  # later binds win
    assert rec["node"] == "agent-1"
    # the parent is untouched
    logger.info("f")
    assert "instance" not in records(stream)[1]


def test_call_fields_override_bound_fields():
    logger, stream = make_logger(instance="bound")
    logger.info("e", instance="call")
    assert records(stream)[0]["instance"] == "call"


def test_non_json_values_fall_back_to_str():
    logger, stream = make_logger()
    logger.info("e", error=ValueError("boom"))
    assert records(stream)[0]["error"] == "boom"


def test_line_is_what_json_dumps_writes():
    """The logger's shared encoder writes ``json.dumps(record,
    sort_keys=True, default=str)`` byte for byte, ``default=str`` values
    and non-ASCII text included."""
    seen = []
    logger, stream = make_logger(service="svc")
    logger._sink = seen.append
    logger.warning("e", status=LEVELS, where=sys.stderr.__class__,
                   error=ValueError("boöm"), nested={"b": (1, 2.5), "a": None})
    [record] = seen
    assert stream.getvalue() == json.dumps(
        record, sort_keys=True, default=str) + "\n"


def test_sink_tap_sees_records_and_survives_bind():
    seen = []
    logger, stream = make_logger()
    logger._sink = seen.append
    child = logger.bind(instance="I-1")
    child.info("e")
    assert seen[0]["instance"] == "I-1"
    assert len(records(stream)) == 1


def test_correlation_fields_extracts_the_trio():
    detail = {"instance": "I-1", "node": "n", "lamport": 7, "other": "x"}
    assert correlation_fields(detail) == {
        "instance": "I-1", "node": "n", "lamport": 7,
    }
    assert correlation_fields({"node": None, "lamport": 3}) == {"lamport": 3}
    assert correlation_fields(object()) == {}


def test_open_log_stream_resolution(tmp_path):
    assert open_log_stream("off") is None
    assert open_log_stream(None) is sys.stderr
    assert open_log_stream("-") is sys.stderr
    path = tmp_path / "log.ndjson"
    stream = open_log_stream(str(path))
    try:
        StructuredLogger(stream=stream, clock=lambda: 1.0).info("e")
    finally:
        stream.close()
    assert json.loads(path.read_text())["event"] == "e"
    # append mode: reopening must not truncate
    stream = open_log_stream(str(path))
    try:
        StructuredLogger(stream=stream, clock=lambda: 2.0).info("f")
    finally:
        stream.close()
    assert len(path.read_text().splitlines()) == 2


def test_levels_are_ordered():
    assert LEVELS["debug"] < LEVELS["info"] < LEVELS["warning"] < LEVELS["error"]
