"""The column rings against the deque rings they replaced.

Two Hypothesis state machines drive ``Trace`` and ``Tracer`` beside
``DequeTrace`` and ``DequeTracer`` of :mod:`tests.obs.reference_obs` (the
same classes at ``1b9e08f``, a deque of one object or tuple per row) with
the same operations, at small capacities and chunk sizes so that rows are
evicted and chunks released, and compare everything a reader can see
after every step: records and spans with their ids, ``dropped``,
``render()`` and ``drop_summary()``, the listener's calls, the children an
``end()`` auto-closes and what ``finish()`` returns.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.obs.spans import NULL_SPAN, Tracer
from repro.runtime import ring
from repro.runtime.trace import Trace
from tests.obs import reference_obs

capacities = st.sampled_from([None, 0, 1, 2, 3, 5, 8])
chunks = st.sampled_from([1, 2, 3, 512])
times = st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0, 9.0])
nodes = st.sampled_from(["engine", "agent-001", "agent-002"])
values = st.one_of(st.none(), st.integers(0, 3), st.sampled_from(["", "a", "S1"]),
                   st.just(("plan", 1)))
details = st.dictionaries(st.sampled_from(["instance", "step", "status", "epoch"]),
                          values, max_size=3)
which = st.integers(0, 30)


def built(make, capacity, chunk, **kwargs):
    """``make(capacity=...)`` with rings of ``chunk`` rows per chunk."""
    saved, ring.CHUNK = ring.CHUNK, chunk
    try:
        return make(capacity=capacity, **kwargs)
    finally:
        ring.CHUNK = saved


def record_fields(rec):
    return (rec.time, rec.node, rec.kind, list(rec.detail.items()))


class TraceMachine(RuleBasedStateMachine):
    @initialize(capacity=capacities, chunk=chunks)
    def build(self, capacity, chunk):
        self.new = built(Trace, capacity, chunk)
        self.old = reference_obs.DequeTrace(capacity=capacity)
        self.heard = {"new": [], "old": []}
        for side, trace in (("new", self.new), ("old", self.old)):
            trace.listener = lambda rec, side=side: self.heard[side].append(
                record_fields(rec))

    @rule(time=times, node=nodes, kind=st.sampled_from(["step.done", "wf.start"]),
          detail=details, enabled=st.booleans())
    def record(self, time, node, kind, detail, enabled):
        self.new.enabled = self.old.enabled = enabled
        self.new.record(time, node, kind, **detail)
        self.old.record(time, node, kind, **detail)

    @rule(time=times, node=nodes, detail=details)
    def snapshot(self, time, node, detail):
        self.new.enabled = self.old.enabled = False
        self.new.snapshot(time, node, "flight.snapshot", **detail)
        self.old.snapshot(time, node, "flight.snapshot", **detail)

    @rule(kind=st.sampled_from([None, "step.done", "flight.snapshot", "absent"]),
          node=st.sampled_from([None, "engine", "agent-002"]))
    def queries(self, kind, node):
        for query in (lambda t: t.filter(kind=kind, node=node),
                      lambda t: t.filter(kind, predicate=lambda r: "step" in r.detail)):
            assert ([record_fields(r) for r in query(self.new)]
                    == [record_fields(r) for r in query(self.old)])
        if kind is not None:
            for read in ("first", "last"):
                new, old = getattr(self.new, read)(kind), getattr(self.old, read)(kind)
                assert (new is None) == (old is None)
                if new is not None:
                    assert record_fields(new) == record_fields(old)
            assert self.new.count(kind) == self.old.count(kind)

    @rule(limit=st.sampled_from([None, 0, 1, 3]), spans_dropped=st.integers(0, 2))
    def texts(self, limit, spans_dropped):
        assert self.new.render(limit) == self.old.render(limit)
        assert self.new.drop_summary(spans_dropped) == self.old.drop_summary(spans_dropped)

    @invariant()
    def same_records(self):
        assert ([record_fields(r) for r in self.new.records]
                == [record_fields(r) for r in self.old.records])
        assert [record_fields(r) for r in self.new] == [record_fields(r) for r in self.old]
        assert (len(self.new), self.new.dropped) == (len(self.old), self.old.dropped)
        assert self.new.kinds() == self.old.kinds()
        assert self.heard["new"] == self.heard["old"]


TestTraceRing = TraceMachine.TestCase
TestTraceRing.settings = settings(max_examples=80, stateful_step_count=40, deadline=None)


span_names = st.sampled_from(["wf-1", "wf-1/S1", "rule:r1", "recovery:wf-1#1"])
categories = st.sampled_from(["workflow", "step", "rule", "recovery"])
refs = st.sampled_from(["none", "null", "span", "id"])


def span_fields(span):
    return (span.span_id, span.parent_id, span.link_id, span.name, span.category,
            span.node, span.start, span.end, list(span.attrs.items()))


class TracerMachine(RuleBasedStateMachine):
    @initialize(capacity=capacities, chunk=chunks)
    def build(self, capacity, chunk):
        self.new = built(Tracer, capacity, chunk)
        self.old = reference_obs.DequeTracer(capacity=capacity)
        #: (new, old) handles of the spans callers hold.
        self.handles: list[tuple] = []
        self.ids: list[int] = []

    def resolve(self, how, index, as_link=False):
        if how == "null":
            return NULL_SPAN, NULL_SPAN
        if how == "id" and as_link and self.ids:
            span_id = self.ids[index % len(self.ids)]
            return span_id, span_id
        if how in ("span", "id") and self.handles:
            return self.handles[index % len(self.handles)]
        return None, None

    @rule(name=span_names, category=categories, node=nodes, time=times, attrs=details,
          parent=refs, link=refs, i=which, j=which, end=st.sampled_from([None, "now"]))
    def add(self, name, category, node, time, attrs, parent, link, i, j, end):
        new_parent, old_parent = self.resolve(parent, i)
        new_link, old_link = self.resolve(link, j, as_link=True)
        end = None if end is None else time
        new = self.new.add(name, category, node, time, end, new_parent, new_link,
                           dict(attrs))
        old = self.old.add(name, category, node, time, end, old_parent, old_link,
                           dict(attrs))
        assert span_fields(new) == span_fields(old)
        self.handles.append((new, old))
        self.ids.append(new.span_id)

    @rule(name=span_names, category=categories, node=nodes, time=times, attrs=details,
          parent=refs, i=which)
    def mark(self, name, category, node, time, attrs, parent, i):
        new_parent, old_parent = self.resolve(parent, i)
        self.new.mark(name, category, node, time, new_parent, dict(attrs))
        self.old.mark(name, category, node, time, old_parent, dict(attrs))

    @rule(interface=st.sampled_from(["StepExecute", "StepResult"]), node=nodes,
          time=times, link=refs, j=which, msg_id=st.integers(1, 99),
          lamport=st.integers(1, 9), direction=st.sampled_from(["send", "recv"]),
          instance=st.sampled_from([None, "wf-1"]))
    def message(self, interface, node, time, link, j, msg_id, lamport, direction,
                instance):
        new_link, old_link = self.resolve(link, j, as_link=True)
        args = (f"{direction}:{interface}", node, time)
        fields = (msg_id, node, "agent-009", "normal", lamport, direction, instance)
        span_id = self.new.message(*args, new_link, *fields)
        assert span_id == self.old.message(*args, old_link, *fields)
        self.ids.append(span_id)

    @precondition(lambda self: self.handles)
    @rule(i=which, time=times, attrs=details)
    def end(self, i, time, attrs):  # double ends, auto-closed children and all
        new, old = self.handles[i % len(self.handles)]
        self.new.end(new, time, **attrs)
        self.old.end(old, time, **attrs)

    @precondition(lambda self: self.handles)
    @rule(i=which, attrs=details)
    def annotate(self, i, attrs):
        new, old = self.handles[i % len(self.handles)]
        new.annotate(**attrs)
        old.annotate(**attrs)

    @rule(time=times)
    def finish(self, time):
        assert self.new.finish(time) == self.old.finish(time)

    @rule(span_id=st.integers(-1, 40))
    def find(self, span_id):
        new, old = self.new.find(span_id), self.old.find(span_id)
        assert (new is None) == (old is None)
        if new is not None:
            assert span_fields(new) == span_fields(old)

    @invariant()
    def same_spans(self):
        assert (len(self.new), self.new.dropped) == (len(self.old), self.old.dropped)
        assert [span_fields(s) for s in self.new] == [span_fields(s) for s in self.old]
        assert self.new.check_nesting() == self.old.check_nesting()
        assert ([s.span_id for s in self.new.open_spans()]
                == [s.span_id for s in self.old.open_spans()])
        # the handles callers hold (children an end() auto-closed included)
        assert ([span_fields(new) for new, __ in self.handles]
                == [span_fields(old) for __, old in self.handles])


TestTracerRing = TracerMachine.TestCase
TestTracerRing.settings = settings(max_examples=80, stateful_step_count=40,
                                   deadline=None)
