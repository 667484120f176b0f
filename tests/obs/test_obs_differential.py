"""The rebuilt observability plane against the one it replaced.

Three Hypothesis state machines drive ``repro.obs``'s ``Tracer``,
``Profiler`` and ``MetricsRegistry`` beside their predecessors in
:mod:`tests.obs.reference_obs` with the same operations and compare
everything a reader can see after every step.  The golden digests at the
bottom were computed at the parent commit (``dc23613``): what the CLI
exports for a fixed seed did not change by a byte.
"""

import hashlib

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.cli import main
from repro.obs import profile as profile_module
from repro.obs.export import prometheus_text
from repro.obs.profile import Profiler
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import NULL_SPAN, Tracer
from tests.conftest import ALL_ARCHITECTURES
from tests.obs import reference_obs

# -- spans ----------------------------------------------------------------

times = st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0, 9.0])
names = st.sampled_from(["wf-1", "wf-1/S1", "rule:r1", "coord:lock", "recovery:wf-1#1"])
categories = st.sampled_from(["workflow", "step", "rule", "coordination", "recovery"])
nodes = st.sampled_from(["engine", "agent-001", "agent-002"])
attr_values = st.one_of(st.none(), st.integers(0, 3), st.sampled_from(["", "a", "S1"]))
attrs = st.dictionaries(st.sampled_from(["instance", "step", "status", "epoch"]),
                        attr_values, max_size=3)
which = st.integers(0, 30)
#: How an operation names its parent or link: nothing, the null span, or
#: an earlier span (for a link, also by bare id).
refs = st.sampled_from(["none", "null", "span", "id"])


def span_fields(span):
    return (span.span_id, span.parent_id, span.link_id, span.name, span.category,
            span.node, span.start, span.end, list(span.attrs.items()))


class TracerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.new, self.old = Tracer(), reference_obs.Tracer()
        #: (new, old) handles of the spans callers hold; a message span is
        #: known to its callers by id only.
        self.handles: list[tuple] = []
        self.ids: list[int] = []

    def resolve(self, how, index, as_link=False):
        """The (new, old) argument pair a ``parent=`` / ``link=`` gets."""
        if how == "null":
            return NULL_SPAN, NULL_SPAN
        if how == "id" and as_link and self.ids:
            span_id = self.ids[index % len(self.ids)]
            return span_id, span_id
        if how in ("span", "id") and self.handles:
            return self.handles[index % len(self.handles)]
        return None, None

    def created(self, new, old):
        assert span_fields(new) == span_fields(old)
        self.handles.append((new, old))
        self.ids.append(new.span_id)

    @rule(name=names, category=categories, node=nodes, time=times, attrs=attrs,
          parent=refs, link=refs, i=which, j=which, instant=st.booleans())
    def open_or_instant(self, name, category, node, time, attrs, parent, link, i, j,
                        instant):
        new_parent, old_parent = self.resolve(parent, i)
        new_link, old_link = self.resolve(link, j, as_link=True)
        make = "instant" if instant else "start"
        self.created(
            getattr(self.new, make)(name, category, node, time, parent=new_parent,
                                    link=new_link, **attrs),
            getattr(self.old, make)(name, category, node, time, parent=old_parent,
                                    link=old_link, **attrs),
        )

    @rule(interface=st.sampled_from(["StepExecute", "StepResult"]), node=nodes,
          time=times, link=refs, j=which, msg_id=st.integers(1, 99),
          lamport=st.integers(1, 9), direction=st.sampled_from(["send", "recv"]),
          instance=st.sampled_from([None, "wf-1"]))
    def message(self, interface, node, time, link, j, msg_id, lamport, direction,
                instance):
        new_link, old_link = self.resolve(link, j, as_link=True)
        name = f"{direction}:{interface}"
        fields = {"msg_id": msg_id, "src": node, "dst": "agent-009",
                  "mechanism": "normal", "lamport": lamport, "direction": direction}
        span_id = self.new.message(name, node, time, new_link, instance=instance,
                                   **fields)
        if instance is not None:
            fields["instance"] = instance
        old = self.old.instant(name, "message", node, time, link=old_link, **fields)
        assert span_id == old.span_id
        self.ids.append(span_id)

    @precondition(lambda self: self.handles)
    @rule(i=which, time=times, attrs=attrs)
    def end(self, i, time, attrs):  # double ends and all
        new, old = self.handles[i % len(self.handles)]
        self.new.end(new, time, **attrs)
        self.old.end(old, time, **attrs)

    @rule(time=times)
    def end_null(self, time):
        self.new.end(NULL_SPAN, time)
        self.old.end(NULL_SPAN, time)

    @precondition(lambda self: self.handles)
    @rule(i=which, attrs=attrs)
    def annotate(self, i, attrs):
        new, old = self.handles[i % len(self.handles)]
        new.annotate(**attrs)
        old.annotate(**attrs)

    @rule(time=times)
    def finish(self, time):
        assert self.new.finish(time) == self.old.finish(time)

    @invariant()
    def same_spans(self):
        assert len(self.new) == len(self.old)
        assert [span_fields(s) for s in self.new] == [span_fields(s) for s in self.old]
        assert self.new.check_nesting() == self.old.check_nesting()
        assert ([s.span_id for s in self.new.open_spans()]
                == [s.span_id for s in self.old.open_spans()])
        assert self.new.dropped == 0


TestTracerDifferential = TracerMachine.TestCase
TestTracerDifferential.settings = settings(max_examples=60, stateful_step_count=40,
                                           deadline=None)


def test_disabled_tracers_agree():
    for tracer in (Tracer(enabled=False), reference_obs.Tracer(enabled=False)):
        assert tracer.start("a", "step", "n", 0.0) is NULL_SPAN
        assert tracer.instant("a", "rule", "n", 0.0, x=1) is NULL_SPAN
        tracer.end(NULL_SPAN, 1.0)
        assert tracer.finish(2.0) == 0 and len(tracer) == 0


# -- profiler -------------------------------------------------------------


class ScriptedClock:
    """Stands in for ``perf_counter_ns`` / the ``time`` module: the test
    moves ``now`` between operations, never inside one, so both profilers
    read the same instants however often each asks."""

    now = 0

    def perf_counter_ns(self):
        return self.now


class Engine:
    def _arrive(self):
        """A bound-method action (``event:Engine._arrive``)."""


def deferred():
    def run():
        """A closure action (``event:deferred.run``)."""
    return run


ACTIONS = [Engine()._arrive, deferred(), deferred(), len]
frames = st.sampled_from(["transport.send", "rules.pump", "wal.append", "dispatch.wi"])
ticks = st.integers(0, 5000)


def frame_rows(profiler, limit=None):
    return [(s.name, s.calls, s.cum_ns, s.self_ns, s.sim_units)
            for s in profiler.top_frames(limit)]


class ProfilerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.clock = ScriptedClock()
        self.real = (profile_module.perf_counter_ns, reference_obs.time)
        profile_module.perf_counter_ns = self.clock.perf_counter_ns
        reference_obs.time = self.clock
        self.new = Profiler(sample_interval=3)
        self.old = reference_obs.Profiler(sample_interval=3)
        self.depth = 0

    def teardown(self):
        profile_module.perf_counter_ns, reference_obs.time = self.real

    def both(self, call):
        call(self.new)
        call(self.old)

    @rule(name=frames, dt=ticks, sim_units=st.sampled_from([0.0, 0.5, 2.0]))
    def push(self, name, dt, sim_units):
        self.clock.now += dt
        self.both(lambda p: p.push(name, sim_units))
        self.depth += 1

    @rule(action=st.sampled_from(ACTIONS), dt=ticks, sim_dt=st.sampled_from([0.0, 1.5]),
          queue_depth=st.integers(0, 40), messages=st.integers(0, 2))
    def begin_event(self, action, dt, sim_dt, queue_depth, messages):
        self.clock.now += dt
        sim_now = self.clock.now / 1000.0

        def begin(profiler):
            profiler.messages += messages
            profiler.begin_event(action, sim_now, sim_dt, queue_depth)

        self.both(begin)
        self.depth += 1

    @precondition(lambda self: self.depth)
    @rule(dt=ticks, as_event=st.booleans())
    def pop(self, dt, as_event):
        self.clock.now += dt
        self.both(lambda p: p.end_event() if as_event else p.pop())
        self.depth -= 1

    @precondition(lambda self: not self.depth)
    @rule()
    def pop_when_balanced(self):
        for profiler in (self.new, self.old):
            with pytest.raises(IndexError):
                profiler.pop()

    @invariant()
    def same_profile(self):  # mid-stack too: an open frame has no time yet
        assert self.new.depth() == self.old.depth() == self.depth
        assert frame_rows(self.new) == frame_rows(self.old)
        assert frame_rows(self.new, 2) == frame_rows(self.old, 2)
        assert self.new.collapsed() == self.old.collapsed()
        assert self.new.summary() == self.old.summary()
        assert self.new.total_wall_ns() == self.old.total_wall_ns()
        assert self.new.render_top(3) == self.old.render_top(3)
        assert list(self.new.samples) == list(self.old.samples)
        assert self.new.chrome_counter_trace() == self.old.chrome_counter_trace()


TestProfilerDifferential = ProfilerMachine.TestCase
TestProfilerDifferential.settings = settings(max_examples=60, stateful_step_count=50,
                                             deadline=None)


def test_published_profiles_agree():
    new, old = Profiler(), reference_obs.Profiler()
    for profiler in (new, old):
        profiler.begin_event(ACTIONS[0], 1.0, 1.0, 4)
        profiler.push("transport.send")
        profiler.pop()
        profiler.end_event()
    texts = []
    for profiler in (new, old):
        registry = MetricsRegistry()
        profiler.publish(registry)
        texts.append([line for line in prometheus_text(registry).splitlines()
                      if "seconds_total" not in line])
    assert texts[0] == texts[1]


# -- registry -------------------------------------------------------------

metric_names = st.sampled_from(["crew_a", "crew_b", "crew_c"])
helps = st.sampled_from(["", "Help text.", "Other help."])
label_values = st.one_of(st.sampled_from(["x", "y", "1", "True"]), st.integers(0, 1),
                         st.booleans(), st.just(1.0), st.none())
labels = st.lists(st.tuples(st.sampled_from(["node", "op", "status"]), label_values),
                  max_size=3, unique_by=lambda pair: pair[0]).map(dict)  # any key order
bucket_choices = st.sampled_from([
    None, (1.0, 5.0, 25.0), (1, 5, 25), [1.0, 5.0, 25.0], (2.0, 4.0),
    (5.0, 1.0), (1.0, 1.0), [3.0, 2.0],
])
amounts = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 3.0, 30.0])


def outcome(call):
    """What a look-up-and-use did: the error it raised, or nothing."""
    try:
        call()
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return None


class RegistryMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.new, self.old = MetricsRegistry(), reference_obs.MetricsRegistry()

    def both(self, use):
        assert outcome(lambda: use(self.new)) == outcome(lambda: use(self.old))

    @rule(name=metric_names, help=helps, labels=labels, amount=amounts)
    def counter(self, name, help, labels, amount):
        self.both(lambda r: r.counter(name, help, **labels).inc(amount))

    @rule(name=metric_names, help=helps, labels=labels, amount=amounts,
          how=st.sampled_from(["set", "inc", "dec"]))
    def gauge(self, name, help, labels, amount, how):
        self.both(lambda r: getattr(r.gauge(name, help, **labels), how)(amount))

    @rule(name=metric_names, help=helps, buckets=bucket_choices, labels=labels,
          amount=amounts)
    def histogram(self, name, help, buckets, labels, amount):
        self.both(lambda r: r.histogram(name, help, buckets=buckets, **labels)
                  .observe(amount))

    @rule(name=metric_names, labels=labels)
    def get(self, name, labels):
        assert ((self.new.get(name, **labels) is None)
                == (self.old.get(name, **labels) is None))

    @invariant()
    def same_exposition(self):
        assert prometheus_text(self.new) == prometheus_text(self.old)
        assert len(self.new) == len(self.old)

    def teardown(self):
        merged_new = MetricsRegistry().merge(self.new)
        merged_old = reference_obs.MetricsRegistry().merge(self.old)
        assert prometheus_text(merged_new) == prometheus_text(merged_old)


TestRegistryDifferential = RegistryMachine.TestCase
TestRegistryDifferential.settings = settings(max_examples=60, stateful_step_count=40,
                                             deadline=None)


def test_memo_answers_a_repeated_look_up_without_the_full_path():
    registry = MetricsRegistry()
    calls = []
    full_path = registry._child
    registry._child = lambda *args: calls.append(args[0]) or full_path(*args)
    for __ in range(5):
        registry.counter("crew_a", "Help.", node="n1").inc()
        registry.histogram("crew_h", "Help.", buckets=(1.0, 2.0), op="x").observe(1.5)
        registry.gauge("crew_g", node=1).set(2.0)  # not yet a label *string*
    assert calls == ["crew_a", "crew_h"] + ["crew_g"] * 5
    with pytest.raises(ValueError, match="already registered as counter"):
        registry.gauge("crew_a", "Help.", node="n1")


# -- golden digests (sha256, computed at the parent commit) ------------------

GOLDEN = {
    ("centralized", "jsonl"): "f8faaaefccb983b0becf636b3872df7217246b3451ebb8e57a289e77d5a1a22c",
    ("centralized", "chrome"): "87cbefeac22d4d3158a9954d8d56789268d2b8ba7eb0398f2fd8aac7ee7299da",
    ("centralized", "prom"): "097cc5feefc523803931d598d6a37f5fc90f9e0bd14c4caaa6d40b5395733264",
    ("parallel", "jsonl"): "e4163789a9574d7150270303ef4941457823a924c890593ad51686babc010de5",
    ("parallel", "chrome"): "a5563ad7494efa9d8cdc61a1ab96549f553157975bda023107724c0cbe23a43c",
    ("parallel", "prom"): "ba775b0b28d09a69b2e06c5972451f1002d4684c1871877793f7c523493354fc",
    ("distributed", "jsonl"): "6c8064108312b195ff7b6488b83e7887aa550c81927a0bbc158a27c3690b9799",
    ("distributed", "chrome"): "736585be63902aa79c71ed4eef23c106aca00e9a3b4be013ee14fd7a4dd6a22f",
    ("distributed", "prom"): "56f5ed006224a840056cee4a03bc4084513c5ced9e9e974fb02fbe6d1d550b93",
}


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
@pytest.mark.parametrize("export", ["jsonl", "chrome", "prom"])
def test_fixed_seed_exports_are_the_parents_bytes(architecture, export, tmp_path, capsys):
    """``repro trace figure3 --seed 7`` (JSONL and Chrome) and ``repro
    metrics figure3 --seed 7 --instances 3`` (Prometheus text)."""
    out = tmp_path / f"{architecture}.{export}"
    if export == "prom":
        argv = ["metrics", "figure3", "--instances", "3"]
    else:
        argv = ["trace", "figure3", "--format", export]
    assert main([*argv, "--seed", "7", "--architecture", architecture,
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[architecture, export]
