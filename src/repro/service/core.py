"""Engine-facing core of the ``repro serve`` daemon.

:class:`WorkflowService` owns one control system (any of the paper's
three architectures) mounted on the wall-clock asyncio runtime
(:class:`~repro.runtime.realtime.RealtimeRuntime`), and exposes the
operations the HTTP front door needs: submit a workflow (LAWS text or a
schema-JSON document), query an instance's status, and subscribe to its
live event stream (tapped off the engine trace via
:attr:`repro.runtime.trace.Trace.listener`).

Submissions are idempotent at the document level: the same LAWS text (or
the same schema JSON) installs its workflow classes once and then only
starts new instances.  Event subscribers get per-instance
:class:`EventFeed` objects terminated by ``None`` once the instance
reaches an outcome.  The engine pushes each outcome to
:meth:`WorkflowService._on_outcome` (via :attr:`repro.engines.base.
ControlSystem.on_outcome`), the one place a finished instance is
handled; it becomes visible — status record, ``/instances``, final
stream event — only after its log record is flushed.

The service is also the daemon's *observability plane*: it owns the
engine's :class:`~repro.obs.registry.MetricsRegistry` (extended with
service-level commit/abort latency histograms and runtime queue-depth /
defect instruments), an always-on :class:`~repro.obs.profile.Profiler`
sampling the loop thread, and a structured NDJSON logger
(:mod:`repro.obs.logging`) correlating every operational event with the
``instance``/``node``/``lamport`` keys of the causal trace.  The HTTP
front door renders these through :meth:`metrics_text` (Prometheus
exposition), :meth:`trace_jsonl` (a ``repro analyze``-compatible
snapshot) and :meth:`profile_collapsed` (flamegraph stacks).  With
``observability=False`` all three raise — the front door turns that
into an explicit 503 rather than an empty scrape.

Resilience plane (PR 9): with ``state_dir`` set the service journals
installed documents, acknowledged submissions and outcomes to a
crash-durable :class:`~repro.service.durability.ServiceLog`
(group-flushed before each submission is acknowledged), and keeps the
one :class:`~repro.service.durability.ServiceState` it replays:
:meth:`start` re-installs workflows and re-drives in-flight instances
under fresh ids, each journaled as one ``redrive`` record; restored
outcomes and old ids are answered from that view.  Submissions pass an
:class:`~repro.service.admission.AdmissionController` (drain shedding,
bounded in-flight queue, token-bucket rate limit) and may carry a
``deadline_s``; instances still running past their deadline are aborted
and reported with a 504-style ``deadline-exceeded`` status.  Chaos plans reach the live runtime via
:meth:`install_faults` (guarded by ``enable_fault_endpoint``).
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.engines import SystemConfig, control_system_class
from repro.errors import AdmissionError, FrontEndError, SchemaError, WorkloadError
from repro.laws import TranslatedDocument, load_laws
from repro.model import SchemaBuilder
from repro.obs.export import prometheus_text, trace_to_jsonl
from repro.obs.logging import StructuredLogger
from repro.obs.profile import Profiler
from repro.obs.registry import HistogramMetric
from repro.runtime.faults import FaultPlan
from repro.runtime.latency import FixedLatency
from repro.runtime.realtime import RealtimeRuntime
from repro.service.admission import AdmissionController
from repro.service.durability import ServiceLog, ServiceState

__all__ = ["WorkflowService", "schema_from_dict"]

#: Wall-clock seconds buckets for the end-to-end instance latency
#: histograms (submission to commit/abort on the realtime runtime).
INSTANCE_LATENCY_BUCKETS = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def schema_from_dict(payload: dict[str, Any]):
    """Build a :class:`~repro.model.schema.WorkflowSchema` from JSON.

    The document mirrors the :class:`~repro.model.SchemaBuilder` surface::

        {"name": "Orders", "inputs": ["part", "qty"],
         "steps": [{"name": "Check", "program": "ord.check",
                    "inputs": ["WF.part"], "outputs": ["ok"],
                    "cost": 1.0, "join": "and", "type": "update",
                    "compensation_cost": 0.0}],
         "arcs": [{"src": "Check", "dst": "Reserve",
                   "condition": "WF.qty > 10"}],
         "rollback_points": [{"failed_step": "Ship", "origin": "Reserve"}],
         "compensation_sets": [["Reserve", "Pack"]],
         "abort_compensation": ["Reserve"],
         "outputs": {"tracking": "Ship.trk"}}

    Only ``name`` and ``steps`` are required.  Raises
    :class:`~repro.errors.SchemaError` on malformed documents (missing
    keys, unknown fields are ignored by design — forward compatibility).
    """
    if not isinstance(payload, dict):
        raise SchemaError("schema document must be a JSON object")
    try:
        name = payload["name"]
        steps = payload["steps"]
    except KeyError as exc:
        raise SchemaError(f"schema document missing required key {exc}") from None
    builder = SchemaBuilder(name, inputs=payload.get("inputs", ()))
    if not isinstance(steps, list) or not steps:
        raise SchemaError("schema document needs a non-empty 'steps' list")
    for step in steps:
        try:
            step_name = step["name"]
        except (KeyError, TypeError):
            raise SchemaError("every step needs a 'name'") from None
        extras = {}
        for json_key, kwarg in (
            ("join", "join"), ("type", "step_type"),
            ("compensation_cost", "compensation_cost"),
            ("compensation_program", "compensation_program"),
            ("compensable", "compensable"), ("resources", "resources"),
        ):
            if json_key in step:
                extras[kwarg] = step[json_key]
        builder.step(
            step_name,
            program=step.get("program", step_name),
            inputs=step.get("inputs", ()),
            outputs=step.get("outputs", ()),
            cost=step.get("cost", 1.0),
            **extras,
        )
    for arc in payload.get("arcs", ()):
        builder.arc(arc["src"], arc["dst"], arc.get("condition"))
    for point in payload.get("rollback_points", ()):
        builder.rollback_point(point["failed_step"], point["origin"])
    for members in payload.get("compensation_sets", ()):
        builder.compensation_set(*members)
    abort = payload.get("abort_compensation", ())
    if abort:
        builder.abort_compensation(*abort)
    for out_name, ref in payload.get("outputs", {}).items():
        builder.output(out_name, ref)
    return builder.build()


class EventFeed:
    """One subscriber's unread events: a list plus one wake-up future.

    The service calls :meth:`put`; the single reader either awaits
    :meth:`get` event by event or — the HTTP pump — awaits :meth:`wait`
    once and calls :meth:`take` for everything the loop turn produced.
    ``None`` is the terminator and the last thing a feed ever receives.
    """

    __slots__ = ("_events", "_waiter")

    def __init__(self) -> None:
        self._events: list[dict[str, Any] | None] = []
        self._waiter: asyncio.Future | None = None

    def put(self, event: dict[str, Any] | None) -> None:
        self._events.append(event)
        self.wake()

    def wake(self) -> None:
        """Resolve the reader's pending :meth:`wait`, if there is one."""
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def wait(self) -> asyncio.Future:
        """The future the next :meth:`put` (or :meth:`wake`) resolves."""
        if self._waiter is None or self._waiter.done():
            self._waiter = asyncio.get_running_loop().create_future()
        return self._waiter

    def take(self) -> list[dict[str, Any] | None]:
        """Everything unread, in order; the feed is empty afterwards."""
        events, self._events = self._events, []
        return events

    def empty(self) -> bool:
        return not self._events

    def get_nowait(self) -> dict[str, Any] | None:
        if not self._events:
            raise asyncio.QueueEmpty
        return self._events.pop(0)

    async def get(self) -> dict[str, Any] | None:
        while not self._events:
            await self.wait()
        return self._events.pop(0)


class WorkflowService:
    """One wall-clock control system behind a submission/query surface."""

    def __init__(
        self,
        architecture: str = "centralized",
        seed: int = 0,
        latency: float = 0.0,
        work_time_scale: float = 0.01,
        num_agents: int = 4,
        observability: bool = True,
        trace_capacity: int | None = 200_000,
        logger: StructuredLogger | None = None,
        state_dir: str | None = None,
        max_inflight: int | None = None,
        rate_limit: float | None = None,
        rate_burst: int | None = None,
        enable_fault_endpoint: bool = False,
    ):
        system_cls = control_system_class(architecture)
        self.architecture = architecture
        self.runtime = RealtimeRuntime(latency=FixedLatency(latency))
        # Wall-clock timeouts: the simulated defaults (tens of time units)
        # would mean tens of real seconds of watchdog wait.  The trace is a
        # ring: a long-lived daemon keeps the most recent window, not the
        # boot minutes (evictions are counted and reported at shutdown).
        config = SystemConfig(
            seed=seed,
            latency=latency,
            work_time_scale=work_time_scale,
            step_status_timeout=2.0,
            step_status_poll_interval=1.0,
            # Distributed agents forget what they finished: terminal ids
            # are broadcast after PURGE_BATCH of them or this long.
            purge_interval=0.25,
            trace=observability,
            trace_capacity=trace_capacity,
        )
        #: Whether the metrics/trace/profile surfaces are live.
        self.observability = observability
        self.system = system_cls(config, num_agents=num_agents,
                                 runtime=self.runtime)
        self.system.trace.listener = self._on_trace
        self.system.on_outcome = self._on_outcome
        self.logger = (logger if logger is not None
                       else StructuredLogger(stream=None))
        self.logger = self.logger.bind(architecture=architecture)
        self.profiler: Profiler | None = None
        if self.observability:
            # Always-on sampler, started with the loop in :meth:`start`.
            self.profiler = Profiler().install(self.system)
        self.started_at: float | None = None
        #: Installed document (canonical JSON) -> its default workflow name.
        self._installed_documents: dict[str, str] = {}
        #: instance id -> wall-clock submit time (insertion ordered; the
        #: key set doubles as "known instances").
        self._submit_times: dict[str, float] = {}
        #: Known instances the engine has not finished yet.
        self._running = 0
        #: Finished instances whose ``outcome`` record is appended but not
        #: flushed, each with the stream events it has emitted since:
        #: hidden until :meth:`_publish_outcomes`.
        self._unpublished: dict[str, list[dict[str, Any]]] = {}
        self._subscribers: dict[str, list[EventFeed]] = {}
        #: Firehose subscribers: feeds receiving every instance-tagged
        #: event (the ``GET /events`` stream and ``repro top``).
        self._event_taps: list[EventFeed] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = False
        self._draining = False
        #: Admission gate for every submission (always present: even with
        #: no knobs set it sheds load during drain).
        self.admission = AdmissionController(
            max_inflight=max_inflight, rate=rate_limit, burst=rate_burst,
        )
        self.enable_fault_endpoint = enable_fault_endpoint
        #: instance id -> the loop timer that aborts it (submissions that
        #: carried ``deadline_s`` and are still running).
        self._deadlines: dict[str, asyncio.TimerHandle] = {}
        #: Instances whose deadline expired before an engine outcome;
        #: value is the expiry time.  Reported as ``deadline-exceeded``.
        self._expired: dict[str, float] = {}
        #: Outcome status -> its latency histogram, bound on first use.
        self._latency_by_status: dict[str, HistogramMetric] = {}
        #: Durable log (``--state-dir``); ``None`` = memory-only service.
        self._log: ServiceLog | None = None
        #: The log's replayed view (empty when memory-only): restored
        #: outcomes, keyed by ids the engine never saw, and the redrive
        #: chains, this boot's re-drives included.
        self._state = ServiceState()
        #: What :meth:`drained` awaits; :meth:`_on_outcome` resolves it
        #: when the last running instance finishes.
        self._idle: asyncio.Future | None = None
        if state_dir is not None:
            self._log = ServiceLog(state_dir)
            self._state = ServiceState.from_records(self._log.records())
            if self._log.torn_tail:
                self.logger.warning("durability.torn_tail",
                                    path=str(self._log.path))

    # -- lifecycle ---------------------------------------------------------

    def start(self, loop: asyncio.AbstractEventLoop | None = None) -> None:
        """Bind the runtime clock and replay durable state."""
        self._loop = loop if loop is not None else asyncio.get_running_loop()
        self.runtime.start(self._loop)
        self.started_at = self.runtime.clock.now
        if self.profiler is not None:
            self.profiler.start()
        if self._log is not None:
            # Recovery needs the bound clock (re-driving schedules frontend
            # work), so it runs here rather than in __init__.
            self._recover()
        self._ready = True
        self.logger.info(
            "service.ready", runtime=self.runtime.name,
            observability=self.observability,
            durable=self._log is not None,
        )

    def _recover(self) -> None:
        """Recovery boot: replay the durable log into a fresh system.

        Order matters: documents first (workflow classes must exist),
        then the instance-id reservation (fresh ids must never collide
        with acknowledged pre-crash ids), then the re-drive of in-flight
        instances — each one a *new* engine instance journaled as one
        ``redrive`` record and folded into the replayed view, so a second
        crash resolves the full chain.  Restored outcomes are served from
        that view.
        """
        state = self._state
        for document in state.documents:
            self._install(document)
        self.system.reserve_instance_ids(state.max_instance_index())
        redriven = 0
        now = self.runtime.clock.now
        for payload in state.inflight():
            original = payload["instance"]
            workflow = payload["workflow"]
            inputs = dict(payload.get("inputs", {}))
            replacement = self.system.start_workflow(workflow, inputs)
            deadline = payload.get("deadline")
            # Deadlines are journaled as budgets, not clock readings: the
            # re-driven instance gets its full original budget again.
            self._track(replacement, now, deadline)
            redrive = {"original": original, "replacement": replacement,
                       "workflow": workflow, "inputs": inputs,
                       "deadline": deadline}
            self._log.append("redrive", redrive)
            state.apply("redrive", redrive)
            self.logger.info("instance.redriven", instance=replacement,
                             original=original, workflow=workflow)
            redriven += 1
        self._log.flush()
        self.logger.info(
            "service.recovered", documents=len(state.documents),
            finished=len(state.outcomes), redriven=redriven,
            log_records=len(self._log.wal), torn_tail=self._log.torn_tail,
        )

    def readiness(self) -> tuple[bool, str]:
        """Readiness (distinct from liveness): ``(ready, reason)``.

        Not ready until :meth:`start` has bound the runtime and replayed
        the durable log, and never ready again once a graceful drain
        has begun — load balancers should stop routing new submissions
        while in-flight instances finish.
        """
        if self._draining:
            return False, "draining"
        if not self._ready:
            return False, "starting"
        return True, "ok"

    def begin_drain(self) -> None:
        """Flip readiness off ahead of shutdown (idempotent).

        New submissions are shed immediately (503 ``draining``); the
        firehose event streams are flushed and closed with their ``None``
        terminator (there will be no new instances to report), while
        per-instance streams stay open until their instance finishes —
        in-flight work runs to its outcome.
        """
        if not self._draining:
            self._draining = True
            self.logger.info("service.draining",
                             running=self.running_count())
            taps, self._event_taps = self._event_taps, []
            for feed in taps:
                feed.put(None)

    async def drained(self, grace: float) -> bool:
        """Wait until no acknowledged instance is running, at most
        ``grace`` seconds; ``False`` if some still are.

        :meth:`_on_outcome` wakes the wait at the last outcome, so a drain
        ends on that outcome rather than on the next look at the count.
        """
        if self._running:
            idle = self._idle = self._loop.create_future()
            try:
                await asyncio.wait((idle,), timeout=grace)
            finally:
                self._idle = None
        return not self._running

    async def close(self) -> None:
        self.begin_drain()
        if self.profiler is not None:
            self.profiler.stop()
        # The engine's timers outlive the service; an outcome landing
        # after the log is closed would have nowhere to go.
        self.system.on_outcome = None
        for timer in self._deadlines.values():
            timer.cancel()
        self._deadlines.clear()
        self._publish_outcomes()
        for feed in self._event_taps:
            feed.put(None)
        self._event_taps.clear()
        trace = self.system.trace
        spans_dropped = self.system.tracer.dropped
        if trace.dropped or spans_dropped:
            # `repro trace` warns about ring-buffer losses; the daemon owes
            # its operator the same honesty at shutdown.
            self.logger.warning(
                "trace.dropped", dropped=trace.dropped,
                spans_dropped=spans_dropped,
                capacity=trace.capacity,
            )
        if self._log is not None:
            self._log.close()
        # The clock's timerfd goes with the service; the engine's timers
        # that outlive it fire by loop timer.
        self.runtime.clock.close()
        self.logger.info(
            "service.closed", instances_submitted=len(self._submit_times),
            instances_finished=len(self.system.outcomes),
        )

    # -- submission --------------------------------------------------------

    def running_count(self) -> int:
        """Acknowledged instances that have not reached an outcome yet."""
        return self._running

    def submit(
        self,
        laws: str | None = None,
        schema: dict[str, Any] | None = None,
        workflow: str | None = None,
        inputs: dict[str, Any] | None = None,
        instances: int = 1,
        deadline_s: float | None = None,
    ) -> dict[str, Any]:
        """Install (once) and start ``instances`` runs of a workflow.

        Exactly one of ``laws`` (LAWS source text) or ``schema`` (a
        schema-JSON document) may be given; with neither, ``workflow``
        must name an already-installed class.  Submissions pass the
        admission controller first (drain shedding, in-flight bound,
        rate limit) and optionally carry a per-instance ``deadline_s``:
        instances still running that many wall-clock seconds later are
        aborted and reported as ``deadline-exceeded``.  With a durable
        log, the submission is group-flushed to disk *before* it is
        acknowledged.  Returns a summary dict with the started ids.
        """
        if laws is not None and schema is not None:
            raise FrontEndError("submit either 'laws' or 'schema', not both")
        if instances < 1:
            raise FrontEndError("instances must be >= 1")
        if deadline_s is not None and deadline_s <= 0:
            raise FrontEndError("deadline_s must be > 0 seconds")
        now = self.runtime.clock.now
        try:
            self.admission.admit(now, running=self.running_count(),
                                 count=instances, draining=self._draining)
        except AdmissionError as exc:
            self.logger.warning(
                "admission.rejected", code=exc.code, status=exc.status,
                instances=instances, retry_after=exc.retry_after,
            )
            raise
        default_name = None
        document = ({"laws": laws} if laws is not None
                    else None if schema is None else {"schema": schema})
        if document is not None:
            default_name, installed = self._install(document)
            if installed and self._log is not None:
                self._log.append("document", document)
        schema_name = workflow or default_name
        if schema_name is None:
            raise FrontEndError(
                "no workflow named: submit 'laws' or 'schema', or name an "
                "installed class via 'workflow'"
            )
        if schema_name not in self.system.schemas:
            raise FrontEndError(
                f"workflow class {schema_name!r} is not installed "
                f"(installed: {sorted(self.system.schemas)})"
            )
        started = [
            self.system.start_workflow(schema_name, dict(inputs or {}))
            for __ in range(instances)
        ]
        for iid in started:
            self._track(iid, now, deadline_s)
            if self._log is not None:
                self._log.append("submit", {
                    "instance": iid, "workflow": schema_name,
                    "inputs": dict(inputs or {}), "deadline": deadline_s,
                })
            self.logger.info("instance.submitted", instance=iid,
                             workflow=schema_name, deadline_s=deadline_s)
        if self._log is not None:
            # Group commit: one fsync makes the whole batch durable before
            # the caller sees an acknowledgement.
            self._log.flush()
        return {"workflow": schema_name, "instances": started}

    def _track(self, instance_id: str, now: float,
               deadline_s: float | None) -> None:
        """Start accounting for an instance the engine was just handed."""
        self._submit_times[instance_id] = now
        self._running += 1
        if deadline_s is not None:
            # A bare loop timer, not a clock event: a pending deadline is
            # not engine work `RealtimeClock.join()` should wait for.
            self._deadlines[instance_id] = self._loop.call_later(
                deadline_s, self._expire, instance_id)

    def _install(self, document: dict[str, Any]) -> tuple[str, bool]:
        """Install a document once: ``{"laws": text}`` or ``{"schema":
        payload}``, the dict its ``document`` record journals.  Returns its
        first workflow class and whether this call installed it."""
        key = json.dumps(document, sort_keys=True)
        name = self._installed_documents.get(key)
        if name is not None:
            return name, False
        if "laws" in document:
            translated = load_laws(document["laws"])
        else:
            translated = TranslatedDocument([schema_from_dict(document["schema"])])
        clashes = [s.name for s in translated.schemas if s.name in self.system.schemas]
        if clashes:
            raise FrontEndError(
                f"workflow class(es) {clashes} already installed by a "
                f"different document; rename or reuse via 'workflow'"
            )
        translated.install(self.system)
        name = self._installed_documents[key] = translated.schemas[0].name
        return name, True

    # -- fault injection ---------------------------------------------------

    def install_faults(self, spec: str) -> dict[str, Any]:
        """Install a chaos plan on the live runtime (``POST /debug/faults``).

        Off by default: the endpoint can crash nodes and lose messages,
        so it only works when the daemon was started with
        ``--enable-fault-endpoint`` (never expose that flag beyond a
        chaos rig).  One plan per process — a second install is refused
        (409-shaped) rather than silently stacking fault pipelines.
        """
        self._require_fault_endpoint()
        plan = FaultPlan.parse(spec)
        injector = self.system.inject_faults(plan)
        self.logger.warning("faults.installed", plan=plan.to_spec())
        return {"installed": injector.plan.to_spec()}

    def fault_stats(self) -> dict[str, Any]:
        """Plan + decision counters of the installed injector (GET side)."""
        self._require_fault_endpoint()
        injector = self.system.faults
        if injector is None:
            return {"installed": None}
        return {"installed": injector.plan.to_spec(),
                "stats": injector.stats.as_dict(),
                "lost_messages": len(injector.lost)}

    def _require_fault_endpoint(self) -> None:
        if not self.enable_fault_endpoint:
            raise FrontEndError(
                "fault injection endpoint is disabled; restart `repro "
                "serve` with --enable-fault-endpoint (chaos rigs only)"
            )

    # -- queries -----------------------------------------------------------

    def status(self) -> dict[str, Any]:
        clock = self.runtime.clock
        return {
            "ok": True,
            "architecture": self.architecture,
            "runtime": self.runtime.name,
            "uptime": (0.0 if self.started_at is None
                       else clock.now - self.started_at),
            "workflows": sorted(self.system.schemas),
            "instances_submitted": len(self._submit_times),
            "instances_finished": len(self.system.outcomes),
            "events_processed": clock.events_processed,
            "messages_sent": self.system.metrics.total_messages(),
            "ready": self.readiness()[0],
            "draining": self._draining,
            "observability": self.observability,
            "trace_dropped": self.system.trace.dropped,
            # Always 0: nothing retries a step callback.  Kept while the
            # benchmark's load generator (bench/loadgen.py:delta) reads it.
            "executor_retries": 0,
            "executor_errors": self.runtime.executor.errors,
            "durable": self._log is not None,
            "instances_recovered": len(self._state.outcomes),
            "instances_redriven": len(self._state.redrives),
            "admission": self.admission.stats.as_dict(),
            "faults_installed": (None if self.system.faults is None
                                 else self.system.faults.plan.to_spec()),
        }

    def instance(self, instance_id: str) -> dict[str, Any]:
        """Public status record for one instance (running or finished).

        Ids acknowledged by a pre-crash incarnation resolve through the
        redrive chain: the record reports the requested id with the
        resolved id's state (plus the ``resolved`` field when they
        differ).  Instances past their submission deadline report
        ``deadline-exceeded`` until the engine abort lands, after which
        the engine outcome wins (flagged ``deadline_exceeded``).
        """
        resolved = self._state.resolve(instance_id)
        record = self._record(resolved)
        if record is None:
            raise FrontEndError(f"unknown instance {instance_id!r}")
        if resolved != instance_id:
            record["instance"] = instance_id
            record["resolved"] = resolved
        return record

    def _record(self, iid: str) -> dict[str, Any] | None:
        """The one status derivation, behind :meth:`instance`,
        :meth:`instances`, :meth:`subscribe` and the final stream event:
        the engine outcome once published, then a restored outcome, then
        ``deadline-exceeded`` or ``running``; ``None`` for an id this
        service never acknowledged."""
        outcome = (None if iid in self._unpublished
                   else self.system.outcomes.get(iid))
        restored = self._state.outcomes.get(iid)
        if outcome is not None:
            record = _outcome_record(outcome)
        elif restored is not None:
            record = {
                "instance": iid,
                "workflow": restored.get("workflow"),
                "status": restored.get("status"),
                "outputs": dict(restored.get("outputs") or {}),
                "finished_at": restored.get("finished_at"),
                "recovered": True,
            }
        elif iid in self._submit_times:
            record = {"instance": iid, "status": (
                "deadline-exceeded" if iid in self._expired else "running")}
        else:
            return None
        if iid in self._expired:
            record["deadline_exceeded"] = True
        return record

    def instances(self) -> list[dict[str, Any]]:
        """Per-instance status rows, submission order (``repro top`` feed)."""
        now = self.runtime.clock.now
        rows = []
        for iid, submitted in self._submit_times.items():
            record = self._record(iid)
            row = {"instance": iid, "status": record["status"],
                   "age": round(now - submitted, 6)}
            if "workflow" in record:
                row["workflow"] = record["workflow"]
            rows.append(row)
        return rows

    # -- event streaming ---------------------------------------------------

    def subscribe(self, instance_id: str) -> EventFeed:
        """Feed of event dicts for one instance, ``None``-terminated.

        Subscribing to an already-finished instance yields a single
        final status event and then the terminator.
        """
        instance_id = self._state.resolve(instance_id)
        record = self._record(instance_id)
        if record is None:
            raise FrontEndError(f"unknown instance {instance_id!r}")
        feed = EventFeed()
        if "finished_at" in record:  # an outcome, published or restored
            feed.put(_final_event(record))
            feed.put(None)
            return feed
        self._subscribers.setdefault(instance_id, []).append(feed)
        return feed

    def unsubscribe(self, instance_id: str, feed: EventFeed) -> None:
        """Detach a subscriber feed (client went away mid-stream).

        Without this, a disconnecting NDJSON client would leave its
        feed accumulating events until the instance finishes.  Unknown
        feeds (already closed at the instance's outcome) are ignored.
        """
        instance_id = self._state.resolve(instance_id)
        feeds = self._subscribers.get(instance_id)
        if not feeds:
            return
        try:
            feeds.remove(feed)
        except ValueError:
            return
        if not feeds:
            del self._subscribers[instance_id]

    def subscribe_events(self) -> EventFeed:
        """Firehose feed of every instance-tagged event (all instances).

        Terminated with ``None`` at service close; callers detach early
        via :meth:`unsubscribe_events`.
        """
        feed = EventFeed()
        self._event_taps.append(feed)
        return feed

    def unsubscribe_events(self, feed: EventFeed) -> None:
        try:
            self._event_taps.remove(feed)
        except ValueError:
            pass

    def _on_trace(self, rec) -> None:
        """Trace tap: fan each instance-tagged record out to subscribers."""
        instance_id = rec.detail.get("instance")
        if not instance_id:
            return
        if instance_id not in self._subscribers and not self._event_taps:
            return
        event = {"t": round(rec.time, 6), "node": rec.node, "kind": rec.kind}
        event.update(
            (k, v) for k, v in rec.detail.items() if _jsonable(v)
        )
        held = self._unpublished.get(instance_id)
        if held is not None:
            held.append(event)  # it tells of an outcome not yet on disk
            return
        self._emit(instance_id, event)

    def _emit(self, instance_id: str, event: dict[str, Any]) -> None:
        for feed in self._subscribers.get(instance_id, ()):
            feed.put(event)
        for feed in self._event_taps:
            feed.put(event)

    def _on_outcome(self, outcome) -> None:
        """Completion handler: the engine just finished an instance.

        All the bookkeeping happens here, once.  Showing the outcome waits
        for one :meth:`_publish_outcomes` per loop turn: the outcomes of one
        turn share one fsync, and until it the instance's stream events —
        the engine handler calling us has its closing trace record still to
        write — are held back with it.
        """
        iid = outcome.instance_id
        submitted = self._submit_times.get(iid)
        if submitted is None:
            return  # a nested child: its parent is the submitted instance
        self._running -= 1
        timer = self._deadlines.pop(iid, None)
        if timer is not None:
            timer.cancel()
        latency = self.runtime.clock.now - submitted
        status = outcome.status.value
        self.admission.note_latency(latency)
        if self.observability:
            histogram = self._latency_by_status.get(status)
            if histogram is None:
                histogram = self._latency_by_status[status] = (
                    self.system.registry.histogram(
                        "crew_service_instance_latency_seconds",
                        "Wall-clock submission-to-outcome latency per instance.",
                        buckets=INSTANCE_LATENCY_BUCKETS,
                        architecture=self.architecture, status=status,
                    ))
            histogram.observe(latency)
        self.logger.info(
            "instance.finished", instance=iid, workflow=outcome.schema_name,
            status=status, latency=round(latency, 6),
        )
        if self._log is not None:
            self._log.append("outcome", _outcome_record(outcome))
        if not self._unpublished:
            self._loop.call_soon(self._publish_outcomes)
        self._unpublished[iid] = []
        if not self._running and self._idle is not None:
            self._idle.set_result(None)  # a drain's last instance
            self._idle = None

    def _publish_outcomes(self) -> None:
        """Make this turn's outcomes durable (one fsync), then visible:
        the held stream events of each instance, then its final event."""
        if self._log is not None:
            self._log.flush()
        finished, self._unpublished = self._unpublished, {}
        for iid, held in finished.items():
            for event in held:
                self._emit(iid, event)
            for feed in self._subscribers.pop(iid, ()):
                feed.put(_final_event(self._record(iid)))
                feed.put(None)

    def _expire(self, iid: str) -> None:
        """Deadline timer: abort an instance that outlived its budget."""
        timer = self._deadlines.pop(iid)
        now = self.runtime.clock.now
        self._expired[iid] = now
        self.admission.stats.deadline_exceeded += 1
        self.logger.warning(
            "instance.deadline_exceeded", instance=iid,
            overrun=round(self._loop.time() - timer.when(), 6))
        self._emit(iid, {"t": round(now, 6), "instance": iid,
                         "kind": "instance.deadline_exceeded"})
        # The 504-style outcome: the service aborts the instance; the
        # engine's abort/compensation path drives it to a terminal
        # outcome, which keeps the at-most-once commit story intact.
        self.system.abort_workflow(iid)

    # -- observability plane -----------------------------------------------

    def _refresh_runtime_metrics(self) -> None:
        """Sync scrape-time instruments from runtime/service state.

        Gauges are set; lifetime-monotone totals (executor counters,
        profiler layer samples) are *assigned* rather than
        ``inc()``-ed so repeated scrapes stay idempotent.
        """
        registry = self.system.registry
        clock = self.runtime.clock
        executor = self.runtime.executor
        registry.gauge(
            "crew_realtime_pending_timers",
            "Scheduled-but-unfired wall-clock events, armed step timers "
            "(service time and stall) included.",
        ).set(clock.pending)
        registry.gauge(
            "crew_executor_inflight_tasks",
            "Executor tasks submitted but not yet finished.",
        ).set(executor.inflight)
        registry.gauge(
            "crew_service_event_subscribers",
            "Open NDJSON event-stream subscriptions (incl. firehose).",
        ).set(sum(len(q) for q in self._subscribers.values())
              + len(self._event_taps))
        registry.gauge(
            "crew_service_instances_running",
            "Submitted instances that have not reached an outcome.",
        ).set(self._running)
        registry.gauge(
            "crew_service_uptime_seconds",
            "Wall-clock seconds since the service runtime started.",
        ).set(0.0 if self.started_at is None
              else clock.now - self.started_at)
        _set_counter(registry.counter(
            "crew_executor_submitted_total",
            "Tasks handed to the realtime executor.",
        ), executor.submitted)
        _set_counter(registry.counter(
            "crew_executor_errors_total",
            "Task callbacks that raised (engine defects; never retried).",
        ), executor.errors)
        _set_counter(registry.counter(
            "crew_trace_dropped_records_total",
            "Trace records evicted from the ring buffer.",
        ), self.system.trace.dropped)
        _set_counter(registry.counter(
            "crew_trace_dropped_spans_total",
            "Spans evicted from the ring buffer.",
        ), self.system.tracer.dropped)
        admission = self.admission.stats
        _set_counter(registry.counter(
            "crew_admission_accepted_total",
            "Instances admitted by the submission gate.",
        ), admission.accepted)
        for reason, value in (
            ("draining", admission.rejected_draining),
            ("queue-full", admission.rejected_queue_full),
            ("rate-limited", admission.rejected_rate_limited),
        ):
            _set_counter(registry.counter(
                "crew_admission_rejected_total",
                "Instances refused by the submission gate.", reason=reason,
            ), value)
        _set_counter(registry.counter(
            "crew_service_deadline_exceeded_total",
            "Instances aborted for outliving their submission deadline.",
        ), admission.deadline_exceeded)
        if self.admission.bucket is not None:
            registry.gauge(
                "crew_admission_rate_tokens",
                "Token-bucket tokens currently available to submissions.",
            ).set(self.admission.bucket.tokens)
        if self._log is not None:
            _set_counter(registry.counter(
                "crew_service_wal_records_total",
                "Records appended to the durable service log.",
            ), self._log.wal.appends)
            _set_counter(registry.counter(
                "crew_service_wal_flushes_total",
                "Group-commit fsync batches on the durable service log.",
            ), self._log.flushes)
        if self.profiler is not None:
            self.profiler.publish(registry)

    def _require_observability(self) -> None:
        if not self.observability:
            raise WorkloadError(
                "observability is disabled on this service; restart "
                "`repro serve` without --no-observability to enable "
                "/metrics, /debug/trace and /debug/profile"
            )

    def metrics_text(self) -> str:
        """Prometheus exposition of the full registry (scrape surface)."""
        self._require_observability()
        self._refresh_runtime_metrics()
        return prometheus_text(self.system.registry)

    def trace_jsonl(self) -> str:
        """`repro analyze`-compatible JSONL snapshot of the live trace."""
        self._require_observability()
        return trace_to_jsonl(self.system.trace, tracer=self.system.tracer)

    def profile_collapsed(self) -> str:
        """Collapsed flamegraph stacks from the sampler."""
        self._require_observability()
        assert self.profiler is not None
        return self.profiler.collapsed() + "\n"


def _set_counter(counter, value: float) -> None:
    """Assign an absolute value to a cumulative counter.

    The sources here are process-lifetime monotone already (executor
    totals, trace drop counts); assignment keeps a
    scrape idempotent where ``inc()`` would double-count."""
    counter.value = float(value)


def _outcome_record(outcome) -> dict[str, Any]:
    """An engine outcome as its ``outcome`` record journals it, which is
    also the status record of a finished instance."""
    return {
        "instance": outcome.instance_id,
        "workflow": outcome.schema_name,
        "status": outcome.status.value,
        "outputs": dict(outcome.outputs),
        "finished_at": outcome.finished_at,
    }


def _final_event(record: dict[str, Any]) -> dict[str, Any]:
    """The last event of an instance's stream: its status record."""
    return dict(record, kind="instance.finished")


def _jsonable(value: Any) -> bool:
    return isinstance(value, (str, int, float, bool, type(None)))
