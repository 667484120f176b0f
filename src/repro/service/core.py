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
retry instruments), an always-on :class:`~repro.obs.profile.Profiler`
over the realtime clock and transport, and a structured NDJSON logger
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
(group-flushed before each submission is acknowledged), and
:meth:`start` replays it — re-installing workflows, restoring finished
outcomes, and re-driving in-flight instances under fresh ids recorded as
``redrive`` aliases.  Submissions pass an :class:`~repro.service.
admission.AdmissionController` (drain shedding, bounded in-flight queue,
token-bucket rate limit) and may carry a ``deadline_s``; instances still
running past their deadline are aborted and reported with a 504-style
``deadline-exceeded`` status.  Chaos plans reach the live runtime via
:meth:`install_faults` (guarded by ``enable_fault_endpoint``).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from typing import Any

from repro.engines import SystemConfig, control_system_class
from repro.errors import (
    AdmissionError,
    FrontEndError,
    SchemaError,
    StorageError,
    WorkloadError,
)
from repro.laws import load_laws
from repro.model import SchemaBuilder
from repro.obs.export import prometheus_text, trace_to_jsonl
from repro.obs.logging import StructuredLogger
from repro.obs.profile import Profiler
from repro.runtime.faults import FaultPlan
from repro.runtime.latency import FixedLatency
from repro.runtime.realtime import RealtimeRuntime
from repro.runtime.rng import SimRandom
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
        config: SystemConfig | None = None,
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
        # Seed the runtime's jitter streams from the service seed so a
        # chaos replay of the wall-clock path draws the same retry-backoff
        # and fault-decision sequences (satellite of the sim determinism).
        effective_seed = seed if config is None else config.seed
        self.runtime = RealtimeRuntime(
            latency=FixedLatency(latency),
            rng=SimRandom(effective_seed).spawn("runtime"),
        )
        if config is None:
            # Wall-clock timeouts: the simulated defaults (tens of time
            # units) would mean tens of real seconds of watchdog wait.
            # The trace runs in ring mode — a long-lived daemon wants the
            # most recent window, not the boot minutes (drops are counted
            # and reported at shutdown either way).
            config = SystemConfig(
                seed=seed,
                runtime="asyncio",
                latency=latency,
                work_time_scale=work_time_scale,
                step_status_timeout=2.0,
                step_status_poll_interval=1.0,
                # Distributed agents forget what they finished: terminal
                # ids are broadcast after PURGE_BATCH of them or this long.
                purge_interval=0.25,
                trace=observability,
                trace_capacity=trace_capacity,
                trace_ring=True,
            )
        #: Whether the metrics/trace/profile surfaces are live.  A config
        #: passed explicitly decides via its own ``trace`` switch.
        self.observability = config.trace
        self.system = system_cls(config, num_agents=num_agents,
                                 runtime=self.runtime)
        self.system.trace.listener = self._on_trace
        self.system.on_outcome = self._on_outcome
        self.logger = (logger if logger is not None
                       else StructuredLogger(stream=None))
        self.logger = self.logger.bind(architecture=architecture)
        self.profiler: Profiler | None = None
        if self.observability:
            # Always-on subsystem profiler: the wall-clock hot path is
            # orders of magnitude cooler than the simulated kernel's, so
            # the frame brackets are cheap next to real network latency.
            self.profiler = Profiler(sample_interval=64).install(self.system)
        executor = self.runtime.executor
        executor.on_retry = self._on_executor_retry
        executor.on_give_up = self._on_executor_give_up
        self.started_at: float | None = None
        #: Installed document digest -> its default workflow name.
        self._installed_documents: dict[str, str] = {}
        #: instance id -> wall-clock submit time (insertion ordered; the
        #: key set doubles as "known instances").
        self._submit_times: dict[str, float] = {}
        #: Known instances the engine has not finished yet.
        self._running = 0
        #: Finished instances whose ``outcome`` record is appended but not
        #: flushed; hidden until :meth:`_publish_outcomes`.
        self._unpublished: set[str] = set()
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
        #: Durable log (``--state-dir``); ``None`` = memory-only service.
        self._log: ServiceLog | None = None
        #: Outcomes restored from a previous incarnation's log, keyed by
        #: the *original* instance id (the engine never saw these ids).
        self._durable_outcomes: dict[str, dict[str, Any]] = {}
        #: Redrive aliases: original id -> replacement id (and the chain's
        #: reverse, replacement -> original, for log/trace correlation).
        self._aliases: dict[str, str] = {}
        self._origins: dict[str, str] = {}
        self._recovered_state: ServiceState | None = None
        self._replaying = False
        if state_dir is not None:
            self._log = ServiceLog(state_dir)
            self._recovered_state = ServiceState.from_records(
                self._log.records()
            )
            if self._log.torn_tail:
                self.logger.warning("durability.torn_tail",
                                    path=str(self._log.path))

    # -- lifecycle ---------------------------------------------------------

    def start(self, loop: asyncio.AbstractEventLoop | None = None) -> None:
        """Bind the runtime clock and replay durable state."""
        self._loop = loop if loop is not None else asyncio.get_running_loop()
        self.runtime.start(self._loop)
        self.started_at = self.runtime.clock.now
        if self._recovered_state is not None:
            # Recovery needs the bound clock (re-driving schedules frontend
            # work), so it runs here rather than in __init__.
            state, self._recovered_state = self._recovered_state, None
            self._recover(state)
        self._ready = True
        self.logger.info(
            "service.ready", runtime=self.runtime.name,
            observability=self.observability,
            durable=self._log is not None,
        )

    def _recover(self, state: ServiceState) -> None:
        """Recovery boot: replay the durable log into a fresh system.

        Order matters: documents first (workflow classes must exist),
        then the instance-id reservation (fresh ids must never collide
        with acknowledged pre-crash ids), then outcome restoration, then
        the re-drive of in-flight instances — each one a *new* engine
        instance whose lineage is recorded as a ``redrive`` record, so a
        second crash resolves the full chain.
        """
        self._replaying = True
        try:
            for document in state.documents:
                if "laws" in document:
                    self._install_laws(document["laws"])
                elif "schema" in document:
                    self._install_schema(document["schema"])
                else:  # pragma: no cover - defensive
                    raise StorageError(
                        f"document record with neither laws nor schema: "
                        f"{sorted(document)}"
                    )
        finally:
            self._replaying = False
        self.system.reserve_instance_ids(state.max_instance_index())
        self._aliases.update(state.redrives)
        for original, replacement in state.redrives.items():
            self._origins[replacement] = original
        for iid, outcome in state.outcomes.items():
            self._durable_outcomes[iid] = dict(outcome)
        redriven = 0
        now = self.runtime.clock.now
        for payload in state.inflight():
            original = payload["instance"]
            workflow = payload["workflow"]
            inputs = dict(payload.get("inputs", {}))
            replacement = self.system.start_workflow(workflow, inputs)
            self._aliases[original] = replacement
            self._origins[replacement] = original
            deadline = payload.get("deadline")
            # Deadlines are journaled as budgets, not clock readings: the
            # re-driven instance gets its full original budget again.
            self._track(replacement, now, deadline)
            self._log.append("submit", {
                "instance": replacement, "workflow": workflow,
                "inputs": inputs, "deadline": deadline,
            })
            self._log.append("redrive", {
                "original": original, "replacement": replacement,
            })
            self.logger.info("instance.redriven", instance=replacement,
                             original=original, workflow=workflow)
            redriven += 1
        self._log.flush()
        self.logger.info(
            "service.recovered", documents=len(state.documents),
            finished=len(state.outcomes), redriven=redriven,
            log_records=len(self._log), torn_tail=self._log.torn_tail,
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

    async def close(self) -> None:
        self.begin_drain()
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
            # PR 6 taught `repro trace` to warn about ring-buffer losses;
            # the daemon owes its operator the same honesty at shutdown.
            self.logger.warning(
                "trace.dropped", dropped=trace.dropped,
                spans_dropped=spans_dropped,
                capacity=trace.capacity, policy=trace.drop_policy,
            )
        if self._log is not None:
            self._log.close()
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
        if laws is not None:
            default_name = self._install_laws(laws)
        elif schema is not None:
            default_name = self._install_schema(schema)
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

    def _install_laws(self, text: str) -> str:
        """Install a LAWS document once; return its first schema name."""
        digest = "laws:" + hashlib.sha256(text.encode()).hexdigest()
        name = self._installed_documents.get(digest)
        if name is None:
            document = load_laws(text)
            self._check_fresh(s.name for s in document.schemas)
            document.install(self.system)
            name = self._installed_documents[digest] = document.schemas[0].name
            if self._log is not None and not self._replaying:
                self._log.append("document", {"laws": text})
        return name

    def _install_schema(self, payload: dict[str, Any]) -> str:
        digest = "schema:" + hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()
        name = self._installed_documents.get(digest)
        if name is None:
            schema = schema_from_dict(payload)
            self._check_fresh([schema.name])
            self.system.register_schema(schema)
            name = self._installed_documents[digest] = schema.name
            if self._log is not None and not self._replaying:
                self._log.append("document", {"schema": payload})
        return name

    def _check_fresh(self, names) -> None:
        clashes = [n for n in names if n in self.system.schemas]
        if clashes:
            raise FrontEndError(
                f"workflow class(es) {clashes} already installed by a "
                f"different document; rename or reuse via 'workflow'"
            )

    # -- fault injection ---------------------------------------------------

    def install_faults(self, spec: str) -> dict[str, Any]:
        """Install a chaos plan on the live runtime (``POST /debug/faults``).

        Off by default: the endpoint can crash nodes and lose messages,
        so it only works when the daemon was started with
        ``--enable-fault-endpoint`` (never expose that flag beyond a
        chaos rig).  One plan per process — a second install is refused
        (409-shaped) rather than silently stacking fault pipelines.
        """
        if not self.enable_fault_endpoint:
            raise FrontEndError(
                "fault injection endpoint is disabled; restart `repro "
                "serve` with --enable-fault-endpoint (chaos rigs only)"
            )
        plan = FaultPlan.parse(spec)
        if self.system.faults is not None:
            raise WorkloadError("fault injector already installed")
        injector = self.system.inject_faults(plan)
        self.logger.warning("faults.installed", plan=plan.to_spec())
        return {"installed": injector.plan.to_spec()}

    def fault_stats(self) -> dict[str, Any]:
        """Plan + decision counters of the installed injector (GET side)."""
        if not self.enable_fault_endpoint:
            raise FrontEndError(
                "fault injection endpoint is disabled; restart `repro "
                "serve` with --enable-fault-endpoint (chaos rigs only)"
            )
        injector = self.system.faults
        if injector is None:
            return {"installed": None}
        return {"installed": injector.plan.to_spec(),
                "stats": injector.stats.as_dict(),
                "lost_messages": len(injector.lost)}

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
            "executor_retries": self.runtime.executor.retries,
            "executor_failures": len(self.runtime.executor.failures),
            "durable": self._log is not None,
            "instances_recovered": len(self._durable_outcomes),
            "instances_redriven": len(self._origins),
            "admission": self.admission.stats.as_dict(),
            "faults_installed": (None if self.system.faults is None
                                 else self.system.faults.plan.to_spec()),
        }

    def resolve_instance(self, instance_id: str) -> str:
        """Follow redrive aliases to the id currently carrying the work."""
        seen = set()
        while instance_id in self._aliases:
            if instance_id in seen:  # pragma: no cover - defensive
                break
            seen.add(instance_id)
            instance_id = self._aliases[instance_id]
        return instance_id

    def instance(self, instance_id: str) -> dict[str, Any]:
        """Public status record for one instance (running or finished).

        Ids acknowledged by a pre-crash incarnation resolve through the
        redrive chain: the record reports the requested id with the
        resolved id's state (plus the ``resolved`` field when they
        differ).  Instances past their submission deadline report
        ``deadline-exceeded`` until the engine abort lands, after which
        the engine outcome wins (flagged ``deadline_exceeded``).
        """
        resolved = self.resolve_instance(instance_id)
        record = self._instance_record(resolved)
        if record is None:
            raise FrontEndError(f"unknown instance {instance_id!r}")
        if resolved != instance_id:
            record["instance"] = instance_id
            record["resolved"] = resolved
        return record

    def _outcome(self, iid: str):
        """The engine outcome of ``iid``, once it may be shown."""
        if iid in self._unpublished:
            return None
        return self.system.outcomes.get(iid)

    def _instance_record(self, iid: str) -> dict[str, Any] | None:
        expired = iid in self._expired
        outcome = self._outcome(iid)
        if outcome is not None:
            record = {
                "instance": iid,
                "workflow": outcome.schema_name,
                "status": outcome.status.value,
                "outputs": dict(outcome.outputs),
                "finished_at": outcome.finished_at,
            }
            if expired:
                record["deadline_exceeded"] = True
            return record
        durable = self._durable_outcomes.get(iid)
        if durable is not None:
            return {
                "instance": iid,
                "workflow": durable.get("workflow"),
                "status": durable.get("status"),
                "outputs": dict(durable.get("outputs") or {}),
                "finished_at": durable.get("finished_at"),
                "recovered": True,
            }
        if iid not in self._submit_times:
            return None
        if expired:
            return {"instance": iid, "status": "deadline-exceeded",
                    "deadline_exceeded": True}
        return {"instance": iid, "status": "running"}

    def instances(self) -> list[dict[str, Any]]:
        """Per-instance status rows, submission order (``repro top`` feed)."""
        now = self.runtime.clock.now
        rows = []
        for iid, submitted in self._submit_times.items():
            outcome = self._outcome(iid)
            if outcome is not None:
                rows.append({
                    "instance": iid,
                    "workflow": outcome.schema_name,
                    "status": outcome.status.value,
                    "age": round(now - submitted, 6),
                })
            else:
                status = ("deadline-exceeded" if iid in self._expired
                          else "running")
                rows.append({"instance": iid, "status": status,
                             "age": round(now - submitted, 6)})
        return rows

    # -- event streaming ---------------------------------------------------

    def subscribe(self, instance_id: str) -> EventFeed:
        """Feed of event dicts for one instance, ``None``-terminated.

        Subscribing to an already-finished instance yields a single
        final status event and then the terminator.
        """
        instance_id = self.resolve_instance(instance_id)
        finished = (self._outcome(instance_id) is not None
                    or instance_id in self._durable_outcomes)
        if not finished and instance_id not in self._submit_times:
            raise FrontEndError(f"unknown instance {instance_id!r}")
        feed = EventFeed()
        if finished:
            feed.put(self._final_event(instance_id))
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
        instance_id = self.resolve_instance(instance_id)
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
        self._emit(instance_id, event)

    def _emit(self, instance_id: str, event: dict[str, Any]) -> None:
        for feed in self._subscribers.get(instance_id, ()):
            feed.put(event)
        for feed in self._event_taps:
            feed.put(event)

    def _final_event(self, instance_id: str) -> dict[str, Any]:
        record = self.instance(instance_id)
        record["kind"] = "instance.finished"
        return record

    def _on_outcome(self, outcome) -> None:
        """Completion handler: the engine just finished an instance.

        All the bookkeeping happens here, once.  Showing the outcome waits
        for one :meth:`_publish_outcomes` per loop turn: the engine handler
        calling us has its closing trace record still to write, and the
        outcomes of one turn share one fsync.
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
            self.system.registry.histogram(
                "crew_service_instance_latency_seconds",
                "Wall-clock submission-to-outcome latency per instance.",
                buckets=INSTANCE_LATENCY_BUCKETS,
                architecture=self.architecture, status=status,
            ).observe(latency)
        self.logger.info(
            "instance.finished", instance=iid, workflow=outcome.schema_name,
            status=status, latency=round(latency, 6),
        )
        if self._log is not None:
            self._log.append("outcome", {
                "instance": iid,
                "workflow": outcome.schema_name,
                "status": status,
                "outputs": dict(outcome.outputs),
                "finished_at": outcome.finished_at,
                "original": self._origins.get(iid),
            })
        if not self._unpublished:
            self._loop.call_soon(self._publish_outcomes)
        self._unpublished.add(iid)

    def _publish_outcomes(self) -> None:
        """Make this turn's outcomes durable (one fsync), then visible."""
        if self._log is not None:
            self._log.flush()
        finished, self._unpublished = self._unpublished, set()
        for iid in finished:
            for feed in self._subscribers.pop(iid, ()):
                feed.put(self._final_event(iid))
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

    def _on_executor_retry(self, fn, name, exc, attempt, backoff) -> None:
        """Executor hook: a transient step failure about to be retried."""
        self.logger.warning(
            "executor.retry", task=name, error=repr(exc),
            attempt=attempt, backoff=round(backoff, 6),
            **_node_fields(fn),
        )

    def _on_executor_give_up(self, fn, name, exc, attempts) -> None:
        """Executor hook: retry budget exhausted — the step is lost.

        Alongside the error log, snapshot the owning node's flight
        recorder into the trace (when ``fn`` is a node-bound method):
        the post-mortem sees the node's last transport events next to
        the failure instead of just a one-line repr.
        """
        fields = _node_fields(fn)
        self.logger.error(
            "executor.give_up", task=name, error=repr(exc),
            attempts=attempts, **fields,
        )
        owner = getattr(fn, "__self__", None)
        dump = getattr(owner, "dump_flight", None)
        if dump is not None:
            dump("task.failure", task=name, error=repr(exc),
                 attempts=attempts)

    def _refresh_runtime_metrics(self) -> None:
        """Sync scrape-time instruments from runtime/service state.

        Gauges are set; lifetime-monotone totals (executor counters,
        profiler frame aggregates) are *assigned* rather than
        ``inc()``-ed so repeated scrapes stay idempotent.
        """
        registry = self.system.registry
        clock = self.runtime.clock
        executor = self.runtime.executor
        registry.gauge(
            "crew_realtime_pending_timers",
            "Scheduled-but-unfired wall-clock events, armed step timers "
            "(service time, stall, backoff) included.",
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
            "crew_executor_retries_total",
            "Transient task failures retried on the backoff policy.",
        ), executor.retries)
        _set_counter(registry.counter(
            "crew_executor_failures_total",
            "Tasks abandoned after exhausting the retry budget.",
        ), len(executor.failures))
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
            ), self._log.appends)
            _set_counter(registry.counter(
                "crew_service_wal_flushes_total",
                "Group-commit fsync batches on the durable service log.",
            ), self._log.flushes)
        if self.profiler is not None:
            for stat in self.profiler.top_frames():
                _set_counter(registry.counter(
                    "crew_profile_calls_total",
                    "Profiler frame entries.", frame=stat.name), stat.calls)
                _set_counter(registry.counter(
                    "crew_profile_self_seconds_total",
                    "Wall-clock self time attributed to a profiler frame.",
                    frame=stat.name), stat.self_ns / 1e9)

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
        """Collapsed flamegraph stacks from the subsystem profiler."""
        self._require_observability()
        assert self.profiler is not None
        return self.profiler.collapsed() + "\n"


def _node_fields(fn: Any) -> dict[str, Any]:
    """Correlation fields for a task callable bound to an engine node."""
    owner = getattr(fn, "__self__", None)
    fields: dict[str, Any] = {}
    name = getattr(owner, "name", None)
    if isinstance(name, str):
        fields["node"] = name
    lamport = getattr(owner, "lamport_clock", None)
    if isinstance(lamport, int):
        fields["lamport"] = lamport
    return fields


def _set_counter(counter, value: float) -> None:
    """Assign an absolute value to a cumulative counter.

    The sources here are process-lifetime monotone already (executor
    totals, trace drop counts, profiler aggregates); assignment keeps a
    scrape idempotent where ``inc()`` would double-count."""
    counter.value = float(value)


def _jsonable(value: Any) -> bool:
    return isinstance(value, (str, int, float, bool, type(None)))
