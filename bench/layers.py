"""Where the traced run puts its spans: one row per layer boundary.

Layers are the package names under ``src/repro``.  Every row names a
public callable at the edge of a layer; ``install`` replaces it by a
span- or count-recording version (see ``spans.py``).  A name imported
with ``from x import f`` is patched where it is *used*, because that is
the binding the caller looks up.
"""

from __future__ import annotations

from spans import Recorder, Summary


def install_engine_spans(recorder: Recorder) -> None:
    """Boundaries both runtimes share: engines, rules, storage, runtime,
    core (counts only) and the simulator kernel."""
    from repro.core.ocr import OCRPlan
    from repro.engines import base as engines_base
    from repro.engines.centralized import engine as centralized_engine
    from repro.engines.centralized.system import CentralizedControlSystem
    from repro.engines.distributed import navigation
    from repro.engines.distributed.system import DistributedControlSystem
    from repro.engines.parallel import ParallelControlSystem
    from repro.rules.engine import RuleEngine
    from repro.runtime.executor import ClockExecutor
    from repro.runtime.realtime import TaskExecutor
    from repro.runtime.trace import Trace
    from repro.runtime.transport import Network
    from repro.sim.kernel import Simulator
    from repro.storage.wal import WriteAheadLog

    recorder.wrap(engines_base, "compile_schema", "model.compile")
    for system in (CentralizedControlSystem, ParallelControlSystem,
                   DistributedControlSystem):
        recorder.wrap(system, "start_workflow", "engines.start_workflow")
    recorder.wrap(Network, "send", "runtime.transport.send")
    recorder.wrap(RuleEngine, "post_event", "rules.post_event")
    recorder.wrap(WriteAheadLog, "append", "storage.wal.append")
    recorder.wrap(TaskExecutor, "submit", "runtime.executor.submit")
    recorder.wrap(ClockExecutor, "submit", "runtime.executor.submit")
    recorder.wrap(Simulator, "run", "sim.kernel.run")

    # Counts at the same boundaries.  A rule firing is the engine calling
    # the action it was built with, so the action is counted.
    original_init = RuleEngine.__init__

    def counting_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        action = self._action

        def counted(rule):
            recorder.counts["rules.fired"] += 1
            return action(rule)

        self._action = counted

    RuleEngine.__init__ = counting_init

    def ocr_outcome(plan: OCRPlan, *args, **kwargs):
        if plan.decision is None:
            return None  # first execution: OCR not involved
        return plan.decision.name.lower()

    for module in (centralized_engine, navigation):
        recorder.count(module, "plan_step_action", "core.ocr", ocr_outcome)
    recorder.count(engines_base.ControlSystem, "obs_recovery_started",
                   "core.recovery.rollbacks")
    recorder.count(
        Trace, "record", "obs.trace",
        lambda result, trace, *a, **k: "recorded" if trace.enabled else None)


def install_service_spans(recorder: Recorder) -> None:
    """Boundaries only the daemon has: http, core, admission, durability,
    laws."""
    from repro.service import core, http
    from repro.service.admission import AdmissionController
    from repro.service.core import WorkflowService
    from repro.service.durability import ServiceLog, ServiceState

    recorder.wrap(http, "_read_request", "service.http.read")
    recorder.wrap(http, "_dispatch", "service.http.dispatch")
    recorder.wrap(http, "_response", "service.http.respond")
    # A stream's span is mostly waiting for events; giving it a span of
    # its own keeps that wait out of the dispatcher's self time.
    recorder.wrap(http, "_stream_events", "service.http.stream")
    recorder.wrap(WorkflowService, "submit", "service.core.submit")
    recorder.wrap(WorkflowService, "subscribe", "service.core.subscribe")
    recorder.wrap(AdmissionController, "admit", "service.admission.admit")
    recorder.wrap(ServiceLog, "append", "service.durability.append")
    recorder.wrap(ServiceLog, "flush", "service.durability.flush")
    recorder.wrap(ServiceLog, "__init__", "service.durability.load")
    recorder.wrap(ServiceState, "from_records", "service.durability.replay",
                  weigh=len)
    recorder.wrap(core, "load_laws", "laws.load")


def engine_layer_metrics(life: Summary, cut: Summary, instances: int,
                         life_instances: int) -> dict[str, float]:
    """Per-layer numbers of the boundaries ``install_engine_spans`` wraps.

    ``cut`` holds the spans of the timed window and ``instances`` the
    instances it ran; ``life`` holds everything the traced processes
    recorded, over ``life_instances`` instances — counts are not
    time-stamped, so ratios of counts are taken over the whole life."""
    ocr = {key.split(":", 1)[1]: value for key, value in life.counts.items()
           if key.startswith("core.ocr:")}
    revisited = sum(ocr.values())
    posted = life.calls["rules.post_event"]
    return {
        "model.compile_ms_per_schema": life.mean_self("model.compile", 1e6),
        "rules.post_event_us": cut.mean_self("rules.post_event", 1e3),
        "rules.events_per_instance": cut.calls["rules.post_event"] / instances,
        "rules.fired_per_event":
            life.counts["rules.fired"] / posted if posted else 0.0,
        "storage.wal.append_us": cut.mean_self("storage.wal.append", 1e3),
        "storage.wal.appends_per_instance":
            cut.calls["storage.wal.append"] / instances,
        "runtime.transport.send_us":
            cut.mean_self("runtime.transport.send", 1e3),
        "runtime.executor.tasks_per_instance":
            cut.calls["runtime.executor.submit"] / instances,
        "core.ocr.reuse_share":
            (ocr.get("reuse", 0) + ocr.get("incremental", 0)) / revisited
            if revisited else 0.0,
        "core.recovery.rollbacks_per_instance":
            life.counts["core.recovery.rollbacks"] / life_instances,
        "obs.trace_records_per_instance":
            life.counts["obs.trace:recorded"] / life_instances,
    }


def service_layer_metrics(cut: Summary, instances: int) -> dict[str, float]:
    """Per-layer numbers of the boundaries ``install_service_spans`` wraps,
    from the spans of the timed window."""
    dispatched = cut.calls["service.http.dispatch"]
    return {
        "service.http.self_ms_per_request": sum(
            cut.self_ns[f"service.http.{part}"]
            for part in ("read", "dispatch", "respond")) / dispatched / 1e6,
        "service.http.requests_per_instance": dispatched / instances,
        "service.core.submit_self_ms": cut.mean_self("service.core.submit", 1e6),
        "service.admission.admit_us":
            cut.mean_self("service.admission.admit", 1e3),
        "service.durability.append_us":
            cut.mean_self("service.durability.append", 1e3),
        "service.durability.flush_ms":
            cut.mean_self("service.durability.flush", 1e6),
        "service.durability.flushes_per_instance":
            cut.calls["service.durability.flush"] / instances,
        "service.durability.records_per_instance":
            cut.calls["service.durability.append"] / instances,
        "laws.load_ms_per_document": cut.mean_self("laws.load", 1e6),
        "laws.loads_per_instance": cut.calls["laws.load"] / instances,
    }
