"""Distributed failure-handling paths under injected transport faults.

The watchdog/probe machinery in :mod:`repro.engines.distributed.failure`
exists for exactly the conditions the fault layer creates: crashed
executors, lost probe reports, duplicated replies.  These tests drive
those paths through :meth:`ControlSystem.inject_faults` instead of
hand-placed ``crash()`` calls, so the whole scenario replays from
``(seed, plan)``.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.causal import CausalTrace
from repro.analysis.invariants import check_invariants
from repro.engines import DistributedControlSystem, SystemConfig
from repro.engines.distributed import elect_executor
from repro.model import SchemaBuilder
from repro.runtime.faults import Crash, FaultPlan
from tests.conftest import linear_schema, register_programs


def make(seed=2, num_agents=6, agents_per_step=2, **config_kwargs):
    return DistributedControlSystem(
        SystemConfig(seed=seed, **config_kwargs),
        num_agents=num_agents,
        agents_per_step=agents_per_step,
    )


def query_step_schema():
    builder = SchemaBuilder("W", inputs=["x"])
    builder.step("S1", program="W.S1", inputs=["WF.x"], outputs=["out"])
    builder.step("S2", program="W.S2", step_type="query",
                 inputs=["S1.out"], outputs=["out"])
    builder.step("S3", program="W.S3", inputs=["S2.out"], outputs=["out"])
    builder.sequence("S1", "S2", "S3")
    return builder.build()


def slow_s2_schema(cost=200.0):  # x work_time_scale 0.1 = 20 sim-time units
    builder = SchemaBuilder("W", inputs=["x"])
    builder.step("S1", program="W.S1", inputs=["WF.x"], outputs=["out"])
    builder.step("S2", program="W.S2", inputs=["S1.out"], outputs=["out"],
                 cost=cost)
    builder.step("S3", program="W.S3", inputs=["S2.out"], outputs=["out"])
    builder.sequence("S1", "S2", "S3")
    return builder.build()


def start_probe_setup(plan, seed=5):
    """A workflow whose S2 runs long on a non-coordination agent, probed
    mid-flight by the coordination agent under ``plan``."""
    system = make(seed=seed, num_agents=6, agents_per_step=1)
    schema = slow_s2_schema()
    system.register_schema(schema)
    register_programs(system, schema)
    system.inject_faults(plan)
    instance = system.start_workflow("W", {"x": 1})
    system.run(until=8.0)  # S1 done, S2 executing
    ca = system.agent(system.assignment.eligible("W", "S1")[0])
    s2_agent = system.assignment.eligible("W", "S2")[0]
    assert s2_agent != ca.name  # report must cross the (faulty) network
    ca.workflow_status_probe(instance)
    return system, instance


def test_watchdog_takeover_under_injected_executor_crash():
    """A planned crash of the query-step executor: the peer's watchdog
    fires and takes the step over while the executor is still down."""
    system = make(seed=2, num_agents=4, agents_per_step=2,
                  step_status_timeout=5.0, step_status_poll_interval=3.0)
    schema = query_step_schema()
    system.register_schema(schema)
    register_programs(system, schema)
    instance = system.start_workflow("W", {"x": 1})
    executor = elect_executor(
        system.assignment.eligible("W", "S2"), "W", instance, "S2"
    )
    injector = system.inject_faults(
        FaultPlan(crashes=(Crash(executor, 1.15, 150.0),)))
    system.run(until=400.0)
    assert system.outcome(instance).committed
    assert injector.stats.crashes == 1
    assert system.trace.count("step.takeover") == 1
    done = [r for r in system.trace.filter(kind="step.done")
            if r.detail["step"] == "S2"]
    assert done[0].time < 151.15  # finished before the executor came back
    assert check_invariants(CausalTrace.from_run(system.trace, system.tracer),
                            ["dispatch-once"]) == []


def test_watchdog_waits_for_crashed_update_agent():
    """Update steps must wait for the crashed executor; the watchdog
    re-arms until the planned recovery brings it back."""
    system = make(seed=2, num_agents=4, agents_per_step=2,
                  step_status_timeout=5.0, step_status_poll_interval=3.0)
    schema = linear_schema(steps=3)
    system.register_schema(schema)
    register_programs(system, schema)
    instance = system.start_workflow("Linear", {"x": 1})
    executor = elect_executor(
        system.assignment.eligible("Linear", "S2"), "Linear", instance, "S2"
    )
    injector = system.inject_faults(
        FaultPlan(crashes=(Crash(executor, 1.15, 40.0),)))
    system.run()
    assert system.outcome(instance).committed
    assert injector.stats.recoveries == 1
    done = [r for r in system.trace.filter(kind="step.done")
            if r.detail["step"] == "S2"]
    assert done and done[0].time >= 41.15  # only after the recovery
    assert check_invariants(CausalTrace.from_run(system.trace, system.tracer),
                            ["dispatch-once"]) == []


def probe_reports(system, instance):
    """What the coordination agent received for probes of ``instance``,
    read from the trace: the stored reports go with the purge."""
    return [record.detail for record in system.trace.filter(kind="status.probe_report")
            if record.detail["instance"] == instance]


def test_probe_report_lost_once_then_retransmitted():
    """Drop the first WorkflowStatusProbeReport: the seeded backoff
    retransmits it and the origin still learns where the workflow is."""
    plan = FaultPlan(drop_p=1.0, drop_limit=1,
                     interfaces=("WorkflowStatusProbeReport",))
    system, instance = start_probe_setup(plan)
    system.run()
    stats = system.faults.stats
    assert stats.dropped == 1
    assert stats.retransmits == 1
    assert stats.lost == 0
    reports = probe_reports(system, instance)
    assert len(reports) == 1
    assert reports[0]["running"] == "S2"


def test_probe_report_lost_forever_without_retry():
    """Exhausting the retry budget loses the report: the probe stays
    unanswered but the workflow itself is unaffected."""
    plan = FaultPlan(drop_p=1.0, interfaces=("WorkflowStatusProbeReport",))
    system, instance = start_probe_setup(plan)
    system.run(until=3000.0)
    assert system.faults.stats.lost == 1
    assert probe_reports(system, instance) == []
    assert system.outcome(instance).committed  # workflow unharmed


def test_duplicate_probe_reply_suppressed():
    """Duplicate every probe report: receiver-side dedup keeps exactly
    one copy per probe."""
    plan = FaultPlan(dup_p=1.0, interfaces=("WorkflowStatusProbeReport",))
    system, instance = start_probe_setup(plan)
    system.run()
    stats = system.faults.stats
    assert stats.duplicated >= 1
    assert stats.suppressed >= 1
    assert len(probe_reports(system, instance)) == 1


def test_duplicate_probe_chain_applies_once():
    """Duplicated probe messages hit the per-probe dedup in
    ``_apply_status_probe``: each agent reports at most once."""
    plan = FaultPlan(dup_p=1.0, interfaces=("WorkflowStatusProbe",))
    system, instance = start_probe_setup(plan)
    system.run()
    reports = probe_reports(system, instance)
    agents = [r["agent"] for r in reports]
    assert len(agents) == len(set(agents))
    assert len(reports) == 1


#: One chaos run whose unhandled failure compensates steps that finished
#: at the same instant; prints the sha256 of its whole exported trace.
HASH_SEED_PROBE = """
import hashlib
from repro.analysis.experiment import PreparedRun
from repro.analysis.chaos import ChaosTask
from repro.obs.export import trace_to_jsonl
from repro.runtime.faults import FaultPlan
task = ChaosTask(config="distributed/normal", seed=3)
run = PreparedRun("distributed", task.resolved_params(), coordination=False,
                  seed=3, trace=True)
run.system.inject_faults(FaultPlan.parse(
    "crash=agent-000@2+30,crash=agent-002@5+3,execfail=0.1"))
run.execute(task.instances_per_schema)
text = trace_to_jsonl(run.system.trace, run.system.tracer)
print(hashlib.sha256(text.encode()).hexdigest())
"""


def test_unhandled_failure_compensates_in_schema_order_under_any_hash_seed():
    """Steps done at the same time compensate in schema order, not in the
    iteration order of a set of step names, which ``PYTHONHASHSEED``
    picks: the whole trace is the same under two hash seeds."""
    src = Path(__file__).resolve().parents[2] / "src"
    digests = set()
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(src)}
        probe = subprocess.run([sys.executable, "-c", HASH_SEED_PROBE], env=env,
                               capture_output=True, text=True, check=True)
        digests.add(probe.stdout.strip())
    assert len(digests) == 1, digests
