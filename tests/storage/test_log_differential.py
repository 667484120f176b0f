"""The chained engine log against its whole-snapshot oracle.

(a) a Hypothesis state machine makes the mutations the engines make to an
``InstanceState`` and persists after each through a ``WorkflowDatabase``
and an ``AgentDatabase``; (b) one fixed-seed run per architecture with a
mid-run crash does the same with the engines themselves.  In both, after
every append, :class:`tests.storage.reference_log.Shadowed` recovers a
fresh store from a copy of the log as it stands and requires what
"latest snapshot wins" over whole snapshots restores.
"""

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.analysis.experiment import PAPER_DEFAULTS, PreparedRun
from repro.model import compile_schema
from repro.storage.agdb import AgentDatabase
from repro.storage.tables import InstanceStatus, StepStatus
from repro.storage.wfdb import WorkflowDatabase
from tests.conftest import ALL_ARCHITECTURES, linear_schema
from tests.storage.reference_log import Shadowed

STEPS = ["S1", "S2", "S3"]
values = st.one_of(st.integers(0, 3), st.sampled_from(["", "a", "b"]), st.none())
outputs = st.dictionaries(st.sampled_from(["o1", "o2"]), values, max_size=2)
which = st.integers(0, 7)


class LogMachine(RuleBasedStateMachine):
    """Shared rules; a subclass says how its store creates, fetches,
    finishes and drops an instance."""

    def __init__(self):
        super().__init__()
        self.shadow = Shadowed(self.make_store())
        self.store = self.shadow.store
        self.live: list[str] = []  # ids with a table in the store
        self.dropped: dict = {}  # id -> the state object a caller may still hold
        self.created = 0

    def pick(self, index: int):
        return self.state_of(self.live[index % len(self.live)])

    @rule(x=values)
    def create(self, x):
        self.created += 1
        instance_id = f"i{self.created}"
        self.new(instance_id, {"x": x, "y": 0})
        self.live.append(instance_id)

    @precondition(lambda self: self.live)
    @rule(i=which, step=st.sampled_from(STEPS), status=st.sampled_from(list(StepStatus)),
          inputs=outputs, result=outputs, stamp=st.booleans())
    def write_step_row(self, i, step, status, inputs, result, stamp):
        state = self.pick(i)
        record = state.record(step)
        record.status = status
        record.last_inputs = inputs
        record.last_outputs = result
        if stamp:
            record.executions += 1
            record.exec_seq = state.next_exec_seq()
            record.done_at = float(record.exec_seq)
            record.agent = f"agent-{record.exec_seq % 2}"
        self.persist(state)

    @precondition(lambda self: self.live)
    @rule(i=which, step=st.sampled_from(STEPS), result=outputs)
    def bind_outputs(self, i, step, result):
        state = self.pick(i)
        state.bind_outputs(step, result)
        self.persist(state)

    @precondition(lambda self: self.live)
    @rule(i=which, step=st.sampled_from(STEPS), rebind=st.booleans())
    def unbind_outputs(self, i, step, rebind):
        """Compensation; with ``rebind`` the step re-executes to the same
        outputs before the next persist — the table only changes order."""
        state = self.pick(i)
        bound = {n: state.data[f"{step}.{n}"] for n in ("o1", "o2")
                 if f"{step}.{n}" in state.data}
        state.unbind_outputs(step, ["o1", "o2"])
        if rebind:
            state.bind_outputs(step, bound)
        self.persist(state)

    @precondition(lambda self: self.live)
    @rule(i=which, data=st.dictionaries(st.sampled_from(["S1.o1", "S9.o1", "WF.x"]), values))
    def merge_data(self, i, data):
        state = self.pick(i)
        state.merge_data(data)
        self.persist(state)

    @precondition(lambda self: self.live)
    @rule(i=which, x=values)
    def change_inputs(self, i, x):
        state = self.pick(i)
        state.apply_input_changes({"x": x})
        self.persist(state)

    @precondition(lambda self: self.live)
    @rule(i=which, epoch=st.booleans())
    def roll_back(self, i, epoch):
        state = self.pick(i)
        if epoch:
            state.recovery_epoch += 1
        state.invalidation_round += 1
        self.persist(state)

    @precondition(lambda self: self.live)
    @rule(i=which, events=st.dictionaries(st.sampled_from(["S1.D", "S2.D", "S3.F", "WF.S"]),
                                          st.integers(0, 2)))
    def replace_events(self, i, events):
        state = self.pick(i)
        state.events_snapshot = events
        self.persist(state)

    @precondition(lambda self: self.live)
    @rule(i=which, token=st.sampled_from(["S1.D", "S2.D"]), by=st.integers(0, 2))
    def raise_invalidation(self, i, token, by):
        state = self.pick(i)
        state.known_invalidations[token] = state.known_invalidations.get(token, 0) + by
        self.persist(state)

    @precondition(lambda self: self.live)
    @rule(i=which)
    def persist_unchanged(self, i):
        self.persist(self.pick(i))

    @precondition(lambda self: self.live)
    @rule(i=which, status=st.sampled_from(list(InstanceStatus)))
    def change_status(self, i, status):
        self.finish(self.live[i % len(self.live)], status)

    @precondition(lambda self: self.live)
    @rule(i=which)
    def drop_finished(self, i):
        instance_id = self.live[i % len(self.live)]
        state = self.state_of(instance_id)
        if state.status is not InstanceStatus.RUNNING:
            self.drop(instance_id)
            self.live.remove(instance_id)
            self.dropped[instance_id] = state

    @rule()
    def crash(self):
        """The node loses its memory; states are re-fetched from the store."""
        self.store.recover()
        self.live = [i for i in self.live if self.has(i)]
        self.shadow.check()


class WfdbMachine(LogMachine):
    def make_store(self):
        store = WorkflowDatabase()
        store.register_class(compile_schema(linear_schema()))
        return store

    def new(self, instance_id, inputs):
        self.store.create_instance("Linear", instance_id, inputs)

    def state_of(self, instance_id):
        return self.store.instance(instance_id)

    def has(self, instance_id):
        return self.store.has_instance(instance_id)

    def persist(self, state):
        self.store.persist(state)

    def finish(self, instance_id, status):
        self.store.set_status(instance_id, status)

    def drop(self, instance_id):
        self.store.archive(instance_id)


class AgdbMachine(LogMachine):
    def make_store(self):
        return AgentDatabase("agent-1")

    def new(self, instance_id, inputs):
        self.persist(self.store.ensure_fragment("W", instance_id, inputs))
        self.store.set_summary(instance_id, InstanceStatus.RUNNING)

    def state_of(self, instance_id):
        return self.store.fragment(instance_id)

    def has(self, instance_id):
        return self.store.has_fragment(instance_id)

    def persist(self, state):
        self.store.persist_fragment(state)

    def finish(self, instance_id, status):
        state = self.state_of(instance_id)
        state.status = status
        self.persist(state)
        self.store.set_summary(instance_id, status)

    def drop(self, instance_id):
        self.store.purge_instances([instance_id, "never-seen"])

    @precondition(lambda self: self.live)
    @rule(i=which, reported=st.dictionaries(st.sampled_from(STEPS), st.integers(0, 2)))
    def set_tracker(self, i, reported):
        self.store.set_tracker(self.live[i % len(self.live)],
                               {"reported": reported, "finished": False})

    @precondition(lambda self: self.dropped)
    @rule(i=which)
    def persist_after_purge(self, i):
        """A straggler persists a purged fragment: it stays purged."""
        instance_id = sorted(self.dropped)[i % len(self.dropped)]
        self.persist(self.dropped[instance_id])

    @rule(i=st.integers(0, 3))
    def purge_unknown(self, i):
        """A purge that drops nothing is not logged; its ids ride on the next."""
        self.store.purge_instances([f"ghost{i}"])


machine_settings = settings(max_examples=120, stateful_step_count=40, deadline=None,
                            suppress_health_check=list(HealthCheck))
TestWfdbChains = WfdbMachine.TestCase
TestWfdbChains.settings = machine_settings
TestAgdbChains = AgdbMachine.TestCase
TestAgdbChains.settings = machine_settings


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_engine_run_with_crash_recovers_as_the_oracle_does(architecture):
    """A coordinated run in which every instance rolls back once; mid-run
    the engine (or three agents) crash and recover from their chained logs.
    Every append any node made was checked against the oracle."""
    prepared = PreparedRun(architecture, PAPER_DEFAULTS.evolve(c=3, i=4), coordination=True,
                           fail_first_attempt=True, seed=11, trace=True)
    system = prepared.system
    if architecture == "distributed":
        nodes = list(system.agents)
        crashing = nodes[:3]
        shadows = [Shadowed(agent.agdb) for agent in nodes]
    else:
        nodes = [system.engine] if architecture == "centralized" else list(system.engines)
        crashing = nodes[:1]
        shadows = [Shadowed(engine.wfdb) for engine in nodes]
    for node in crashing:
        system.simulator.schedule(30.0, node.crash)  # all six started, none finished
        system.simulator.schedule(32.0, node.recover)
    counters = prepared.execute(instances_per_schema=2)
    assert counters.committed + counters.aborted == len(prepared.started) == 6
    assert system.trace.count("engine.recovered") + system.trace.count("agent.recovered") \
        == len(crashing)
    assert sum(shadow.checks for shadow in shadows) >= 100
    for shadow in shadows:
        shadow.check()
