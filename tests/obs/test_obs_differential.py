"""The rebuilt observability plane against the one it replaced.

Two Hypothesis state machines drive ``repro.obs``'s ``Tracer`` and
``MetricsRegistry`` beside their predecessors in
:mod:`tests.obs.reference_obs` with the same operations and compare
everything a reader can see after every step; a Hypothesis differential
does the same for ``FlightRecorder`` snapshots.  The golden digests at the
bottom pin what the CLI exports for a fixed seed, byte for byte.  The
Prometheus and untraced flight-recorder digests date from the rebuild
(``dc23613``).  The JSONL and Chrome digests were re-pinned once, when
each protocol event got one kind and one full record on every
architecture.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.cli import main
from repro.obs.export import prometheus_text, trace_to_jsonl
from repro.obs.flight import FlightRecorder
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import NULL_SPAN, Tracer
from tests.conftest import ALL_ARCHITECTURES, faulted_run, faulted_system
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

    @rule(name=names, category=categories, node=nodes, time=times, attrs=attrs,
          parent=refs, i=which)
    def mark(self, name, category, node, time, attrs, parent, i):
        """An instant kept as a row reads back as what ``instant()`` returns."""
        new_parent, old_parent = self.resolve(parent, i)
        self.new.mark(name, category, node, time, new_parent, dict(attrs))
        old = self.old.instant(name, category, node, time, parent=old_parent, **attrs)
        assert span_fields(self.new.spans[-1]) == span_fields(old)
        self.ids.append(old.span_id)

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


# -- flight recorder ------------------------------------------------------

notes = st.tuples(times, st.sampled_from(["send", "recv"]),
                  st.sampled_from(["StepExecute", "StepResult", "WorkflowPacket"]),
                  nodes, st.integers(0, 99), st.integers(0, 40))


@settings(max_examples=80, deadline=None)
@given(capacity=st.integers(1, 6), script=st.lists(notes, max_size=20),
       reads=st.lists(st.integers(0, 20), max_size=3))
def test_flight_snapshots_agree(capacity, script, reads):
    """Tuple notes snapshot to the dicts the dict ring kept, at any point."""
    new, old = FlightRecorder(capacity), reference_obs.FlightRecorder(capacity)
    for index, note in enumerate(script):
        new.note(*note)
        old.note(*note)
        if index in reads:
            assert new.snapshot() == old.snapshot()
    snapshot = new.snapshot()
    assert snapshot == old.snapshot()
    assert [list(event) for event in snapshot] == [list(event) for event in old.snapshot()]
    assert (len(new), new.recorded) == (len(old), old.recorded)
    if snapshot:  # a snapshot is the caller's to keep
        snapshot[0]["msg_id"] = -1
        assert new.snapshot()[0]["msg_id"] == old.snapshot()[0]["msg_id"]


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


# -- golden digests (sha256) ------------------------------------------------

GOLDEN = {
    ("centralized", "jsonl"): "625a18f6fedbe784e4355f512cab3d9b7543f3a723488ce0e47af42ebd7cf13a",
    ("centralized", "chrome"): "ad4a3637602b29ee1e44d751d6798369f83f9bfaa4faedae8a7ac4d395735b66",
    ("centralized", "prom"): "097cc5feefc523803931d598d6a37f5fc90f9e0bd14c4caaa6d40b5395733264",
    ("parallel", "jsonl"): "3aff6cc80f993896accec2d2dc13ba5e82fbe5cae4496cb8d503457553c02564",
    ("parallel", "chrome"): "1aa42718a313812c317afb92ff153ad7d972400abd7b6d9b20fea8cf7052bd7f",
    ("parallel", "prom"): "ba775b0b28d09a69b2e06c5972451f1002d4684c1871877793f7c523493354fc",
    ("distributed", "jsonl"): "68b263770cb9dc697d3d554b3d7d39ff6a8ff631f6501b218f717c0c6e6c86f4",
    ("distributed", "chrome"): "9f88a24fdf3fc7ca8e3da896ace70bf43ab2c0cda5f6f269615bc4f7979535dd",
    ("distributed", "prom"): "65fac59ffcb573e3adec179df08ea3cf5b82cd76199298086544135a9b656aba",
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


#: ``repro trace orders --instances 4 --seed 7``: relative-order clearance
#: and its coordination marks on every architecture.
ORDERS_GOLDEN = {
    ("centralized", "jsonl"): "a98e066c9efac07b7d5d93e41b94564684074a158084ea4d134c1d35bc1c4390",
    ("centralized", "chrome"): "4da422c2672f3e7f08eb3395160da64beb1d8276197473c31ba756b62253b116",
    ("parallel", "jsonl"): "ba816773ad2c75a695158a9d9a501cec171568c6ef93fd116df7ed43d3186194",
    ("parallel", "chrome"): "80efdb3548daa27b186fac379f7a9ce340e8b098749d86ef86555f067ef8e0df",
    ("distributed", "jsonl"): "3a3eb974854e497d5e452c60b923d44ca00c9182c8cbe941e46e0f142c5e208d",
    ("distributed", "chrome"): "771c20ff215a0e617f93ae2b6aa2c241aed2d89d6d7c6a873f103361ba913c11",
}


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
@pytest.mark.parametrize("export", ["jsonl", "chrome"])
def test_orders_exports_are_the_parents_bytes(architecture, export, tmp_path, capsys):
    out = tmp_path / f"{architecture}.{export}"
    assert main(["trace", "orders", "--instances", "4", "--seed", "7",
                 "--architecture", architecture, "--format", export,
                 "--out", str(out)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == ORDERS_GOLDEN[architecture, export]


FAULTED_GOLDEN = {
    "centralized": "0aca91d72a52be837842c8042035bc1bf087607eceedcffeb153de50d1ceae28",
    "parallel": "627c663a82b0709821b822bc3bde6d2351260cf6f24ea938366d0ce936a82985",
    "distributed": "deb7e561e8b7a2089cca7056ec622eef6172e5defbe06a2555d0a167dd68a7fd",
}


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_faulted_run_export_is_the_parents_bytes(architecture):
    system, instances = faulted_run(architecture)
    assert [system.outcome(i).status.name for i in instances] == [
        "COMMITTED", "ABORTED", "COMMITTED"]
    statuses = {s.attrs.get("status") for s in system.tracer.by_category("step")}
    assert {"done", "failed"} <= statuses
    if architecture != "distributed":
        # engine-side watchdogs and the abort retire in-flight dispatches
        assert {"timeout", "cancelled"} <= statuses
    text = trace_to_jsonl(system.trace, system.tracer)
    assert hashlib.sha256(text.encode()).hexdigest() == FAULTED_GOLDEN[architecture]


#: :func:`~tests.conftest.faulted_system` with tracing off, run to
#: quiescence: the flat trace is the flight-recorder snapshots alone (the
#: agent crash and two step failures) -> (sha256, events they hold).
UNTRACED_FLIGHT_GOLDEN = {
    "centralized": ("651ab18e7188e57d86a58e5795d0fe9a8efcde4a54035fdc6154a4f7a2c6f3a5", 80),
    "parallel": ("1394c3e8f991e9aa026f5567ed8d87b25b9ffe58db88326843e1fc7c03095fd7", 78),
    "distributed": ("9dbe1f90b08f000bf1b6babe91b0663db622fdc153280fb458ddb0add9b9a2da", 13),
}


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_untraced_flight_snapshots_are_the_parents_bytes(architecture):
    system, __ = faulted_system(architecture, trace=False)
    system.run()
    snapshots = list(system.trace)
    assert [r.kind for r in snapshots] == ["flight.snapshot"] * 3
    assert [r.detail["reason"] for r in snapshots] == ["crash", "step.fail", "step.fail"]
    digest, events = UNTRACED_FLIGHT_GOLDEN[architecture]
    assert sum(len(r.detail["events"]) for r in snapshots) == events
    text = trace_to_jsonl(system.trace)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
