"""What distributed control keeps per instance fragment at rest.

The simulator keeps every fragment it built (it never purges, so
Table 6's message counts stay the paper's), so a distributed sweep
config ends holding one :class:`AgentRuntime` per (agent, instance) it
touched.  These tests run the coordinated distributed sweep config and
bound what a fragment costs once the run is over: bytes retained
(``tracemalloc``, after ``gc.collect()``) and objects the garbage
collector tracks.  Each bound is the measured value plus a stated
margin; the measured values are in ``EXPERIMENTS.md``.
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

#: Retained KB per fragment, measured at seed 7: 10.98 on 3.11, 10.95 on
#: 3.12 and 12.51 on 3.10 (bigger dicts; slotted dataclasses repeat their
#: base's slots there).  Each bound is that plus 0.75 KB.  Before the
#: records were slotted and idle containers dropped: 14.29 / 14.13 / 16.74.
MAX_KB_PER_FRAGMENT = 13.25 if sys.version_info < (3, 11) else 11.75
#: GC-tracked objects per fragment: 45.0 on 3.11 and 3.12, 45.1 on 3.10,
#: plus 3.  Before: 56.2 / 56.2 / 63.1.
MAX_OBJECTS_PER_FRAGMENT = 48.0


@pytest.fixture(scope="module")
def footprint():
    """(fragments, retained bytes, gc-tracked objects) of one coordinated
    distributed sweep config, counted from the installed system to the
    end of its run."""
    run = PreparedRun("distributed", coordination=True, seed=7)
    gc.collect()
    tracemalloc.start()
    try:
        objects = len(gc.get_objects())
        traced = tracemalloc.get_traced_memory()[0]
        run.execute()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - traced
        objects = len(gc.get_objects()) - objects
    finally:
        tracemalloc.stop()
    fragments = sum(len(agent.runtimes) for agent in run.system.agents)
    return fragments, retained, objects


def test_retained_bytes_per_fragment_stay_bounded(footprint):
    fragments, retained, __ = footprint
    assert retained / 1024 / fragments < MAX_KB_PER_FRAGMENT


def test_gc_tracked_objects_per_fragment_stay_bounded(footprint):
    fragments, __, objects = footprint
    assert objects / fragments < MAX_OBJECTS_PER_FRAGMENT


@pytest.mark.parametrize("record", [
    EventOccurrence, RuleInstance, StepRecord, InstanceState, InstanceRuntime,
    EngineRuntime, AgentRuntime, RuleEngine, EventTable,
])
def test_per_fragment_records_have_no_instance_dict(record):
    assert record.__dictoffset__ == 0, record
