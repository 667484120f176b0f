"""Unit tests for span tracing: lifecycle, nesting, null-tracer paths."""

from repro.obs.spans import NULL_SPAN, Tracer


def test_span_lifecycle_and_duration():
    tracer = Tracer()
    span = tracer.start("wf-1", "workflow", "engine", 1.0, schema="Demo")
    assert span.open
    assert span.duration == 0.0
    tracer.end(span, 4.5, status="done")
    assert not span.open
    assert span.duration == 3.5
    assert span.attrs == {"schema": "Demo", "status": "done"}


def test_parent_child_context_propagation():
    tracer = Tracer()
    parent = tracer.start("wf", "workflow", "engine", 0.0)
    child = tracer.start("wf/S1", "step", "agent-1", 1.0, parent=parent)
    assert child.parent_id == parent.span_id
    assert child.context.parent_id == parent.span_id
    assert tracer.children_of(parent) == [child]
    assert tracer.find(child.span_id) is child


def test_end_auto_closes_open_children():
    """The child-never-ends-after-parent invariant is enforced on end."""
    tracer = Tracer()
    parent = tracer.start("wf", "workflow", "engine", 0.0)
    child = tracer.start("wf/S1", "step", "agent-1", 1.0, parent=parent)
    grandchild = tracer.start("rule:r1", "rule", "engine", 2.0, parent=child)
    tracer.end(parent, 5.0)
    assert child.end == 5.0
    assert grandchild.end == 5.0
    assert child.attrs.get("auto_closed") is True
    assert tracer.check_nesting() == []


def test_closed_child_is_not_reclosed():
    tracer = Tracer()
    parent = tracer.start("wf", "workflow", "engine", 0.0)
    child = tracer.start("wf/S1", "step", "agent-1", 1.0, parent=parent)
    tracer.end(child, 2.0, status="done")
    tracer.end(parent, 5.0)
    assert child.end == 2.0
    assert "auto_closed" not in child.attrs


def test_double_end_is_a_noop():
    tracer = Tracer()
    span = tracer.start("wf", "workflow", "engine", 0.0)
    tracer.end(span, 2.0, status="done")
    tracer.end(span, 9.0, status="late")
    assert span.end == 2.0
    assert span.attrs == {"status": "done"}


def test_instant_spans_have_zero_duration():
    tracer = Tracer()
    span = tracer.instant("rule:r1", "rule", "engine", 3.0, step="S1")
    assert not span.open
    assert span.start == span.end == 3.0
    assert span.duration == 0.0


def test_disabled_tracer_returns_null_span():
    tracer = Tracer(enabled=False)
    span = tracer.start("wf", "workflow", "engine", 0.0)
    assert span is NULL_SPAN
    assert span.is_null
    tracer.end(span, 1.0)  # must not blow up or record anything
    span.annotate(ignored=True)
    assert len(tracer) == 0
    assert span.attrs == {}


def test_null_span_is_never_closed():
    # NULL_SPAN.end stays None forever, so `.open` alone is not a valid
    # guard — call sites must check `is_null` first.  Pin the behaviour.
    assert NULL_SPAN.open
    assert NULL_SPAN.is_null


def test_finish_closes_all_open_spans():
    tracer = Tracer()
    a = tracer.start("a", "workflow", "n", 0.0)
    b = tracer.start("b", "step", "n", 1.0, parent=a)
    tracer.end(b, 2.0)
    closed = tracer.finish(7.0)
    assert closed == 1
    assert a.end == 7.0
    assert tracer.open_spans() == []


def test_check_nesting_reports_violations():
    tracer = Tracer()
    parent = tracer.start("wf", "workflow", "engine", 5.0)
    child = tracer.start("wf/S1", "step", "agent", 1.0, parent=parent)
    parent.end = 6.0
    child.end = 9.0  # bypass tracer.end to build a broken tree
    problems = tracer.check_nesting()
    assert any("starts before parent" in p for p in problems)
    assert any("ends after parent" in p for p in problems)


def test_by_category_filters():
    tracer = Tracer()
    tracer.start("wf", "workflow", "n", 0.0)
    tracer.instant("rule:r", "rule", "n", 1.0)
    tracer.instant("rule:r2", "rule", "n", 2.0)
    assert len(tracer.by_category("rule")) == 2
    assert len(tracer.by_category("workflow")) == 1
    assert tracer.by_category("missing") == []


# -- costs what it records, keeps what fits (PR 22) -------------------------


def test_instants_never_enter_a_parents_open_children():
    tracer = Tracer()
    workflow = tracer.start("wf", "workflow", "engine", 0.0)
    step = tracer.start("wf/S1", "step", "agent", 1.0, parent=workflow)
    for tick in range(50):
        tracer.instant("rule:r", "rule", "engine", 1.0 + tick, parent=workflow)
        tracer.message("send:X", "engine", 1.0 + tick, step, tick, "engine",
                       "agent", "normal", tick, "send", "wf")
    assert tracer._open_children == {workflow.span_id: [step]}
    tracer.end(workflow, 60.0)
    assert tracer._open_children == {}
    assert step.end == 60.0 and step.attrs == {"auto_closed": True}
    # a closed parent adopts nobody either: nothing would ever pop the entry
    tracer.start("wf/late", "step", "agent", 61.0, parent=workflow)
    assert tracer._open_children == {}


def test_message_rows_read_as_the_instants_they_stand_for():
    tracer, spelled_out = Tracer(), Tracer()
    link = tracer.start("wf", "workflow", "engine", 0.0)
    spelled_out.start("wf", "workflow", "engine", 0.0)
    span_id = tracer.message("recv:StepResult", "engine", 2.0, link, 17, "agent",
                             "engine", "normal", 5, "recv", None)
    twin = spelled_out.instant(
        "recv:StepResult", "message", "engine", 2.0, link=link, msg_id=17,
        src="agent", dst="engine", mechanism="normal", lamport=5, direction="recv")
    span = tracer.find(span_id)
    assert not span.open and span.duration == 0.0 and span.parent_id is None
    for field in ("span_id", "link_id", "name", "category", "node", "start", "end"):
        assert getattr(span, field) == getattr(twin, field)
    assert list(span.attrs.items()) == list(twin.attrs.items())
    assert tracer.message("send:X", "engine", 3.0, NULL_SPAN, 18, "engine", "agent",
                          "normal", 6, "send", "wf") == span_id + 1
    assert tracer.spans[-1].link_id is None
    assert tracer.spans[-1].attrs["instance"] == "wf"


def test_tracer_without_capacity_is_unbounded_and_drops_nothing():
    tracer = Tracer()  # what a simulated run with no capacity gets
    for tick in range(5000):
        tracer.instant("rule:r", "rule", "engine", float(tick))
    assert len(tracer) == 5000 and tracer.dropped == 0
    assert [s.span_id for s in tracer] == list(range(1, 5001))


def test_ring_evicts_the_oldest_spans_and_counts_them():
    tracer = Tracer(capacity=4, ring=True)
    workflow = tracer.start("wf", "workflow", "engine", 0.0)
    for tick in range(6):
        tracer.instant("rule:r", "rule", "engine", 1.0 + tick, parent=workflow)
    tracer.message("send:X", "engine", 8.0, workflow, 1, "engine", "agent", "normal",
                   1, "send", None)
    assert [s.span_id for s in tracer] == [5, 6, 7, 8]
    assert tracer.dropped == 4
    # the evicted parent is still a live handle, and still ends
    tracer.end(workflow, 9.0, status="COMMITTED")
    assert workflow.end == 9.0
    # parent #1 / link #1 are older than the oldest retained span: evicted
    assert tracer.check_nesting() == []
    assert tracer.finish(10.0) == 0


def test_capacity_without_ring_keeps_the_oldest_spans():
    tracer = Tracer(capacity=2)
    first = tracer.start("a", "workflow", "n", 0.0)
    tracer.instant("i", "rule", "n", 1.0, parent=first)
    late = tracer.start("b", "step", "n", 2.0, parent=first)
    assert tracer.message("send:X", "n", 3.0, None, 1, "n", "m", "normal", 1, "send",
                          None) == 4
    assert [s.span_id for s in tracer] == [1, 2] and tracer.dropped == 2
    tracer.end(first, 5.0)  # an unretained child is auto-closed all the same
    assert late.end == 5.0


def test_check_nesting_still_reports_a_parent_that_was_never_recorded():
    tracer = Tracer(capacity=4, ring=True)
    tracer.instant("i", "rule", "n", 0.0)
    orphan = tracer.instant("j", "rule", "n", 1.0)
    orphan.parent_id = 99
    assert tracer.check_nesting() == ["span #2 has unknown parent"]
