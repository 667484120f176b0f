"""What distributed control keeps per instance fragment at rest.

Every agent an instance touched holds a fragment of it (one
:class:`AgentRuntime`, its log chain, the coordination agent's tracker)
until the coordination agent's purge broadcast names the finished
instance, one ``purge_interval`` after its outcome.  These tests run the
coordinated distributed sweep config up to just before its first purge,
when most held fragments belong to finished instances at rest, and bound
what a held fragment costs: the bytes (``tracemalloc``, after
``gc.collect()``) and the objects the garbage collector tracks that
retiring every held fragment then frees.  Each bound is the measured
value plus a stated margin; the measured values are in ``EXPERIMENTS.md``.
Once the run is over, the purge has left nothing.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

import pytest

from repro.analysis.experiment import PreparedRun
from repro.engines.runtime import AgentRuntime, EngineRuntime, InstanceRuntime
from repro.rules.engine import RuleEngine, RuleInstance
from repro.rules.events import EventOccurrence, EventTable
from repro.storage.tables import InstanceState, StepRecord

#: KB per held fragment.  At rest after the run (the simulator purged
#: nothing then), seed 7 measured 10.98 on 3.11, 10.95 on 3.12 and 12.51
#: on 3.10 (bigger dicts; slotted dataclasses repeat their base's slots
#: there); each bound is that plus 0.75 KB.  Just before the first purge,
#: what retiring the 183 held fragments frees measures 9.8 on 3.11.
MAX_KB_PER_FRAGMENT = 13.25 if sys.version_info < (3, 11) else 11.75
#: GC-tracked objects per held fragment: 45.0 on 3.11 and 3.12, 45.1 on
#: 3.10 at rest after the run, plus 3; 44.7 on 3.11 just before the first
#: purge.
MAX_OBJECTS_PER_FRAGMENT = 48.0


@pytest.fixture(scope="module")
def footprint():
    """(fragments, bytes, gc-tracked objects) the coordinated distributed
    sweep config holds just before its first purge broadcast: what
    retiring every fragment held then frees."""
    tracemalloc.start()
    try:
        run = PreparedRun("distributed", coordination=True, seed=7)
        system = run.system
        run.generator.drive(system, run.workload)
        while not system.outcomes:
            system.run(until=system.simulator.now + 1.0)
        first = min(outcome.finished_at for outcome in system.outcomes.values())
        # No coordination agent arms its purge timer before an outcome.
        system.run(until=first + system.config.purge_interval - 1.0)
        assert not any(agent.agdb._purged for agent in system.agents)
        gc.collect()
        objects = len(gc.get_objects())
        held = tracemalloc.get_traced_memory()[0]
        fragments = 0
        for agent in system.agents:
            fragments += len(agent.runtimes)
            agent._retire(list(agent.runtimes))
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
        objects -= len(gc.get_objects())
    finally:
        tracemalloc.stop()
    return fragments, freed, objects


def test_retained_bytes_per_fragment_stay_bounded(footprint):
    fragments, retained, __ = footprint
    assert retained / 1024 / fragments < MAX_KB_PER_FRAGMENT


def test_gc_tracked_objects_per_fragment_stay_bounded(footprint):
    fragments, __, objects = footprint
    assert objects / fragments < MAX_OBJECTS_PER_FRAGMENT


def test_a_quiescent_config_holds_no_fragment():
    run = PreparedRun("distributed", coordination=True, seed=7)
    run.execute()
    # the purge is what emptied the agents: each one its schemas reach
    # holds a tombstone per finished instance
    schemas = {outcome.schema_name for outcome in run.system.outcomes.values()}
    recipients = set().union(*map(run.system.purge_recipients, schemas))
    assert recipients
    for agent in run.system.agents:
        assert bool(agent.agdb._purged) == (agent.name in recipients), agent.name
    for agent in run.system.agents:
        assert not agent.runtimes and not agent.trackers
        assert not agent.agdb._fragments and not agent.agdb._trackers


@pytest.mark.parametrize("record", [
    EventOccurrence, RuleInstance, StepRecord, InstanceState, InstanceRuntime,
    EngineRuntime, AgentRuntime, RuleEngine, EventTable,
])
def test_per_fragment_records_have_no_instance_dict(record):
    assert record.__dictoffset__ == 0, record
