"""The parallel engines' :class:`TimestampMutex` against its history oracle.

The mutex keeps only outstanding requests; the oracle in
``reference_mutex.py`` keeps every request and release it has seen.
Any sequence of requests and releases must leave both with the same
holder and the same number waiting, and the mutex with nothing beyond
what is outstanding.  A replica drops a mutex nobody waits on.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines.parallel import TimestampMutex
from repro.model import MutualExclusionSpec
from tests.conftest import linear_schema, make_system, register_programs
from tests.engines.reference_mutex import TimestampMutex as HistoryMutex

INSTANCES = [f"i{n}" for n in range(5)]

#: ``(kind, instance, time)``: the engines stamp a request ``(time,
#: instance)``; a small time range makes equal times (and the instance
#: tie-break) common.
operations = st.lists(
    st.tuples(
        st.sampled_from(["request", "request", "release"]),
        st.sampled_from(INSTANCES),
        st.integers(0, 3),
    ),
    max_size=40,
)


@settings(max_examples=500, deadline=None)
@given(ops=operations)
def test_mutex_answers_as_the_history_oracle(ops):
    """Requests after a release, releases before any request, repeated
    requests and repeated releases: same ``holder()`` and ``waiting()``
    after every operation."""
    mutex, oracle = TimestampMutex(), HistoryMutex()
    for kind, instance, time in ops:
        if kind == "request":
            schema = "A" if instance < "i3" else "B"
            for lock in (mutex, oracle):
                lock.request((time, instance), schema, instance)
        else:
            for lock in (mutex, oracle):
                lock.release(instance)
        assert mutex.holder() == oracle.holder()
        assert mutex.waiting() == oracle.waiting()
        outstanding = [entry[1] for entry in mutex._queue]
        assert len(set(outstanding)) == len(outstanding) == oracle.waiting()


def test_release_forgets_the_instance():
    mutex = TimestampMutex()
    for n, instance in enumerate(INSTANCES):
        mutex.request((n, instance), "A", instance)
    for instance in INSTANCES:
        mutex.release(instance)
    assert mutex.holder() is None and mutex.waiting() == 0
    assert mutex._queue == []


def test_replicas_drop_a_mutex_nobody_waits_on():
    system = make_system("parallel", seed=4)
    schema = linear_schema(steps=4)
    system.register_schema(schema)
    register_programs(system, schema)
    system.add_coordination(MutualExclusionSpec(
        name="mx", schema_a="Linear", schema_b="Linear",
        region_a=("S2", "S3"), region_b=("S2", "S3"), conflict_key="WF.x",
    ))
    ids = [system.start_workflow("Linear", {"x": key}, delay=0.1 * n)
           for n, key in enumerate("rrsrs")]
    system.run()
    assert all(system.outcome(i).committed for i in ids)
    assert [engine.replica.mx for engine in system.engines] == [{}, {}]
