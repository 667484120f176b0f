"""Shared machinery of the three workflow control architectures.

:class:`ControlSystem` is the public facade: register schemas, programs
and coordination specs, start/abort instances, drive the simulation and
read outcomes.  The concrete systems —
:class:`~repro.engines.centralized.CentralizedControlSystem`,
:class:`~repro.engines.parallel.ParallelControlSystem` and
:class:`~repro.engines.distributed.DistributedControlSystem` — differ in
*where* enactment runs and *which* interactions are physical messages;
the enactment semantics (rules, OCR, coordination) are shared.

The module also hosts the architecture-neutral execution-state helpers
(recording results, compensations and reuses in the instance tables) used
by every node implementation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.core.programs import ProgramRegistry, StepProgram
from repro.errors import FrontEndError, SchemaError, WorkloadError
from repro.model.compiler import CompiledSchema, compile_schema
from repro.model.coordination_spec import (
    CoordinationSpec,
    MutualExclusionSpec,
    RelativeOrderSpec,
    RollbackDependencySpec,
)
from repro.model.schema import StepDef, WorkflowSchema
from repro.obs.causal import MessageTracer
from repro.obs.flight import FlightRecorder
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import NULL_SPAN, Span, Tracer
from repro.rules.events import step_compensated, step_done, step_fail
from repro.runtime.factory import build_runtime
from repro.runtime.latency import FixedLatency
from repro.runtime.metrics import MetricsCollector
from repro.runtime.protocols import Runtime
from repro.runtime.retry import RetryPolicy
from repro.runtime.rng import SimRandom
from repro.runtime.trace import Trace
from repro.storage.tables import InstanceState, InstanceStatus, StepStatus

__all__ = [
    "AgentAssignment",
    "ControlSystem",
    "InstanceOutcome",
    "SystemConfig",
    "governed_step_count",
    "record_compensation",
    "record_execution_failure",
    "record_execution_success",
    "record_reuse",
]


# Histogram bucket presets (simulated time units / counts).  Latencies in
# a default deployment are a few units (two network hops at latency 1.0
# plus cost x work_time_scale); makespans and recoveries run longer.
STEP_LATENCY_BUCKETS = (0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0,
                        16.0, 32.0, 64.0)
MAKESPAN_BUCKETS = (4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
                    1024.0, 2048.0)
RECOVERY_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)
PENDING_RULE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
QUEUE_DEPTH_BUCKETS = (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0)


@dataclass
class SystemConfig:
    """Tunable knobs shared by all architectures.

    ``work_time_scale`` converts step cost units into simulated execution
    time; ``successor_selection`` picks the distributed executor election
    strategy (``"hash"`` — deterministic, matches the paper's message
    expression ``s·a + f`` — or ``"load"``, which adds StateInformation
    probe traffic); the failure-recovery knobs control the distributed
    StepStatus polling/takeover machinery.  ``flight_capacity`` sizes the
    per-node flight-recorder ring (independent of ``trace``; 0 disables
    it).
    """

    seed: int = 0
    runtime: str = "sim"
    latency: float = 1.0
    trace: bool = True
    trace_capacity: int | None = 500_000
    trace_ring: bool = False
    flight_capacity: int = 64
    work_time_scale: float = 0.1
    successor_selection: str = "hash"
    dispatch_probes: bool = True
    agent_failure_recovery: bool = True
    step_status_timeout: float = 50.0
    step_status_poll_interval: float = 25.0
    purge_interval: float | None = None
    max_loop_iterations: int = 100
    max_events: int = 5_000_000

    def __post_init__(self) -> None:
        if self.successor_selection not in ("hash", "load"):
            raise WorkloadError(
                f"successor_selection must be 'hash' or 'load', "
                f"got {self.successor_selection!r}"
            )


@dataclass
class InstanceOutcome:
    """Public record of how one instance ended."""

    instance_id: str
    schema_name: str
    status: InstanceStatus
    outputs: dict[str, Any] = field(default_factory=dict)
    finished_at: float | None = None

    @property
    def committed(self) -> bool:
        return self.status is InstanceStatus.COMMITTED


class AgentAssignment:
    """Static (schema, step) -> eligible agents mapping.

    "This information is static and is available at the agent after the
    workflow schema has been compiled."  The default policy spreads steps
    round-robin over the agent pool with ``agents_per_step`` eligible
    agents each (Table 3's parameter ``a``).
    """

    def __init__(self) -> None:
        self._eligible: dict[tuple[str, str], tuple[str, ...]] = {}

    def assign(self, schema_name: str, step: str, agents: Sequence[str]) -> None:
        if not agents:
            raise SchemaError(f"step {schema_name}.{step} needs at least one agent")
        self._eligible[(schema_name, step)] = tuple(agents)

    def assign_round_robin(
        self, compiled: CompiledSchema, pool: Sequence[str], agents_per_step: int = 1
    ) -> None:
        if agents_per_step > len(pool):
            raise SchemaError(
                f"agents_per_step={agents_per_step} exceeds pool size {len(pool)}"
            )
        for index, step in enumerate(compiled.schema.steps):
            chosen = tuple(
                pool[(index + j) % len(pool)] for j in range(agents_per_step)
            )
            self._eligible[(compiled.name, step)] = chosen

    def eligible(self, schema_name: str, step: str) -> tuple[str, ...]:
        try:
            return self._eligible[(schema_name, step)]
        except KeyError:
            raise SchemaError(
                f"no agents assigned for step {schema_name}.{step}"
            ) from None

    def has(self, schema_name: str, step: str) -> bool:
        return (schema_name, step) in self._eligible

    def items(self) -> Iterable[tuple[tuple[str, str], tuple[str, ...]]]:
        return self._eligible.items()


def governed_step_count(
    compiled: CompiledSchema, specs: Iterable[CoordinationSpec]
) -> int:
    """Number of governed steps of a schema across its coordination specs.

    This is the paper's ``me + ro + rd`` per-workflow factor: relative
    ordering counts its governed steps, mutual exclusion the steps of its
    region, and rollback dependency its trigger/target step.
    """
    governed: set[tuple[str, str]] = set()
    name = compiled.name
    for spec in specs:
        if isinstance(spec, RelativeOrderSpec):
            for side, steps in ((spec.schema_a, spec.steps_a), (spec.schema_b, spec.steps_b)):
                if side == name:
                    governed.update((spec.name, s) for s in steps)
        elif isinstance(spec, MutualExclusionSpec):
            for side, region in ((spec.schema_a, spec.region_a), (spec.schema_b, spec.region_b)):
                if side == name:
                    first, last = region
                    members = (
                        (compiled.graph.descendants_map[first] | {first})
                        & (compiled.graph.ancestors_map[last] | {last})
                    )
                    governed.update((spec.name, s) for s in members)
        elif isinstance(spec, RollbackDependencySpec):
            if spec.schema_a == name:
                governed.add((spec.name, spec.trigger_step_a))
            if spec.schema_b == name:
                governed.add((spec.name, spec.rollback_to_b))
    return len(governed)


# -- instance-state transition helpers (shared by every node type) -------------


def record_execution_success(
    state: InstanceState,
    step_def: StepDef,
    inputs: Mapping[str, Any],
    outputs: Mapping[str, Any],
    now: float,
    agent: str | None,
) -> str:
    """Record a successful execution; returns the event token to post."""
    record = state.record(step_def.name)
    record.status = StepStatus.DONE
    record.executions += 1
    record.last_inputs = dict(inputs)
    record.last_outputs = dict(outputs)
    record.done_at = now
    record.exec_seq = state.next_exec_seq()
    record.agent = agent
    state.bind_outputs(step_def.name, outputs)
    return step_done(step_def.name)


def record_execution_failure(
    state: InstanceState,
    step_def: StepDef,
    inputs: Mapping[str, Any],
    now: float,
    agent: str | None,
) -> str:
    """Record a logical step failure; returns the event token to post."""
    record = state.record(step_def.name)
    record.status = StepStatus.FAILED
    record.executions += 1
    record.last_inputs = dict(inputs)
    record.done_at = None
    record.agent = agent
    return step_fail(step_def.name)


def record_reuse(state: InstanceState, step_def: StepDef, now: float) -> str:
    """Record an OCR result reuse; returns the ``step.done`` token to post.

    The previous outputs are re-bound (they may have been produced in an
    earlier recovery epoch) and the execution-order stamp is refreshed so
    compensation-set ordering reflects the re-executed history.
    """
    record = state.record(step_def.name)
    record.reuses += 1
    record.status = StepStatus.DONE
    record.done_at = now
    record.exec_seq = state.next_exec_seq()
    state.bind_outputs(step_def.name, record.last_outputs)
    return step_done(step_def.name)


def record_compensation(
    state: InstanceState, step_def: StepDef, kind: str
) -> str:
    """Record a (complete or partial) compensation; returns the event token.

    A *partial* compensation leaves the step logically DONE-but-dirty; the
    caller immediately re-executes it incrementally, so for table purposes
    we mark it COMPENSATED until the re-execution lands.
    """
    record = state.record(step_def.name)
    record.status = StepStatus.COMPENSATED
    record.compensations += 1
    state.unbind_outputs(step_def.name, step_def.outputs)
    return step_compensated(step_def.name)


class ControlSystem:
    """Abstract facade over one simulated workflow control deployment."""

    architecture = "abstract"

    def __init__(
        self,
        config: SystemConfig | None = None,
        runtime: Runtime | None = None,
    ):
        self.config = config if config is not None else SystemConfig()
        self.metrics = MetricsCollector()
        self.rng = SimRandom(self.config.seed)
        # The execution substrate.  Engines construct against the
        # repro.runtime protocols only (the AST layering contract bans
        # repro.sim imports here); with no runtime given, the factory
        # resolves the deterministic simulated backend by name.
        if runtime is None:
            # rng is a child seed space so backends that jitter (the
            # asyncio executor's retry backoff) derive it from the system
            # seed instead of a fixed default — wall-clock chaos replays
            # then draw identical decision sequences from (seed, plan).
            runtime = build_runtime(
                self.config.runtime,
                metrics=self.metrics,
                latency=FixedLatency(self.config.latency),
                rng=self.rng.spawn("runtime"),
            )
        self.runtime = runtime
        #: The runtime's clock.  Named ``simulator`` since the simulated
        #: kernel was historically the only substrate; under the asyncio
        #: backend this is a :class:`~repro.runtime.realtime.RealtimeClock`.
        self.simulator = runtime.clock
        self.network = runtime.transport
        if self.network.metrics is not self.metrics:
            # Externally built runtimes carry their own collector; adopt
            # it so `system.metrics` stays the single source of truth.
            self.metrics = self.network.metrics
        self.trace = Trace(
            enabled=self.config.trace, capacity=self.config.trace_capacity,
            ring=self.config.trace_ring,
        )
        # Observability: the span tracer and metrics registry follow the
        # single `trace` switch so benchmark runs stay un-instrumented.
        self.tracer = Tracer(
            trace=self.trace, enabled=self.config.trace,
            capacity=self.config.trace_capacity, ring=self.config.trace_ring,
        )
        self.registry = MetricsRegistry()
        if self.config.trace:
            self.network.registry = self.registry
            self.network.causal = MessageTracer(self.tracer)
            depth_hist = self.registry.histogram(
                "crew_event_queue_depth",
                "Simulator event-queue depth sampled at each event.",
                buckets=QUEUE_DEPTH_BUCKETS,
            )
            self.simulator.event_hook = (
                lambda time, depth: depth_hist.observe(depth)
            )
        # The flight recorder deliberately does NOT follow the trace
        # switch — its whole point is post-mortem context when full
        # tracing is off.  flight_capacity=0 strips it entirely.
        if self.config.flight_capacity > 0:
            capacity = self.config.flight_capacity
            self.network.flight_factory = lambda name: FlightRecorder(capacity)
            self.network.flight_sink = self._flight_sink
        #: Fault injector installed by :meth:`inject_faults` (None = the
        #: transport keeps its reliable persistent-queue semantics).
        self.faults = None
        self._workflow_spans: dict[str, Span] = {}
        self._recovery_spans: dict[str, Span] = {}
        self.programs = ProgramRegistry()
        self.schemas: dict[str, CompiledSchema] = {}
        self.specs: list[CoordinationSpec] = []
        self.assignment = AgentAssignment()
        self.outcomes: dict[str, InstanceOutcome] = {}
        #: Completion callback: ``on_outcome(outcome)`` runs for every
        #: instance (nested ones too) inside the engine handler that
        #: finished it, before that handler's closing trace record.
        self.on_outcome: Callable[[InstanceOutcome], None] | None = None
        self._instance_ids = itertools.count(1)

    # -- registration -----------------------------------------------------------

    def register_schema(self, schema: WorkflowSchema) -> CompiledSchema:
        """Compile and register a workflow class."""
        if schema.name in self.schemas:
            raise SchemaError(f"workflow class {schema.name!r} already registered")
        compiled = compile_schema(schema)
        self.schemas[schema.name] = compiled
        self._on_schema_registered(compiled)
        return compiled

    def register_program(self, name: str, program: StepProgram) -> None:
        self.programs.register(name, program)

    def add_coordination(self, spec: CoordinationSpec) -> None:
        """Install a coordinated-execution requirement (before any starts)."""
        for schema_name in spec.schemas():
            if schema_name not in self.schemas:
                raise SchemaError(
                    f"coordination spec {spec.name!r} references unregistered "
                    f"schema {schema_name!r}"
                )
        self.specs.append(spec)
        self._on_spec_added(spec)

    def compiled(self, schema_name: str) -> CompiledSchema:
        try:
            return self.schemas[schema_name]
        except KeyError:
            raise SchemaError(f"unknown workflow class {schema_name!r}") from None

    def specs_for(self, schema_name: str) -> list[CoordinationSpec]:
        return [s for s in self.specs if s.involves(schema_name)]

    # -- template methods --------------------------------------------------------

    def _on_schema_registered(self, compiled: CompiledSchema) -> None:
        """Hook for subclasses (agent assignment, directory setup)."""

    def _on_spec_added(self, spec: CoordinationSpec) -> None:
        """Hook for subclasses (authority placement)."""

    # -- public workflow API (front-end database operations) -----------------------

    #: How long the front-end database waits before re-issuing a WI whose
    #: target node was down (simulated seconds).
    FRONTEND_RETRY_INTERVAL = 1.0

    def schedule_frontend(self, delay: float, node: Any, fn, *args: Any) -> None:
        """Schedule a front-end WI against ``node``, deferring while it is down.

        The front-end database sits outside the fault domain: a WI issued
        against a crashed engine/agent must be retried until the node is
        back up, never executed on a down node — that would create
        volatile state the node's recovery replay cannot see.
        """

        def attempt() -> None:
            if not node.is_up:
                self.simulator.schedule(self.FRONTEND_RETRY_INTERVAL, attempt)
                return
            fn(*args)

        self.simulator.schedule(delay, attempt)

    def start_workflow(
        self, schema_name: str, inputs: Mapping[str, Any], delay: float = 0.0
    ) -> str:  # pragma: no cover - interface
        raise NotImplementedError

    def abort_workflow(self, instance_id: str, delay: float = 0.0) -> None:
        raise NotImplementedError  # pragma: no cover - interface

    def change_inputs(
        self, instance_id: str, changes: Mapping[str, Any], delay: float = 0.0
    ) -> None:
        raise NotImplementedError  # pragma: no cover - interface

    def workflow_status(self, instance_id: str) -> InstanceStatus:
        raise NotImplementedError  # pragma: no cover - interface

    # -- observability hooks (shared by every architecture) ---------------------------

    def obs_instance_started(
        self,
        instance_id: str,
        schema_name: str,
        node: str,
        now: float,
        parent_instance: str | None = None,
    ) -> Span:
        """Count the start and open the workflow-instance span.

        Nested workflows pass ``parent_instance`` so their span nests
        under the parent's step that launched them.
        """
        self.metrics.instances_started += 1
        if not self.tracer.enabled:
            return NULL_SPAN
        parent = None
        if parent_instance is not None:
            parent = self._workflow_spans.get(parent_instance)
        span = self.tracer.start(
            instance_id, "workflow", node, now, parent=parent,
            schema=schema_name, architecture=self.architecture,
        )
        self._workflow_spans[instance_id] = span
        self.registry.counter(
            "crew_instances_started_total", "Workflow instances started.",
            architecture=self.architecture,
        ).inc()
        return span

    def workflow_span(self, instance_id: str) -> Span:
        """The open workflow span of an instance (NULL_SPAN if unknown)."""
        if not self.tracer.enabled:
            return NULL_SPAN
        return self._workflow_spans.get(instance_id, NULL_SPAN)

    def obs_step_dispatched(
        self, instance_id: str, step: str, node: str, now: float, **attrs: Any
    ) -> Span:
        """Open a step span (engine dispatch or local program launch)."""
        if not self.tracer.enabled:
            return NULL_SPAN
        parent = self._recovery_spans.get(instance_id)
        if parent is None or parent.end is not None:
            parent = self._workflow_spans.get(instance_id)
        return self.tracer.add(
            f"{instance_id}/{step}", "step", node, now, None, parent, None,
            {"instance": instance_id, "step": step, **attrs},
        )

    def obs_step_finished(self, span: Span, now: float, **attrs: Any) -> None:
        """Close a step span and feed the step-latency histogram."""
        if not self.tracer.enabled or span.is_null or not span.open:
            return
        self.tracer.end(span, now, **attrs)
        self.registry.histogram(
            "crew_step_latency",
            "Step dispatch-to-result latency in simulated time units.",
            buckets=STEP_LATENCY_BUCKETS,
            architecture=self.architecture,
        ).observe(now - span.start)

    def obs_step_done(self, instance_id: str, step: str, now: float) -> None:
        """A step completed successfully; closes a recovery episode whose
        rollback origin just re-established itself."""
        if not self.tracer.enabled:
            return
        episode = self._recovery_spans.get(instance_id)
        if (episode is not None and episode.open
                and episode.attrs.get("origin") == step):
            self._obs_end_recovery(instance_id, now, resolved="origin-reexecuted")

    def obs_recovery_started(
        self,
        instance_id: str,
        node: str,
        now: float,
        origin: str | None,
        epoch: int,
        mechanism: str,
    ) -> Span:
        """Open a recovery-episode span (rollback / unhandled failure).

        A newer rollback supersedes a still-open episode: the old span is
        closed here so episodes never overlap for one instance.
        """
        if not self.tracer.enabled:
            return NULL_SPAN
        if instance_id in self._recovery_spans:
            self._obs_end_recovery(instance_id, now, resolved="superseded")
        span = self.tracer.start(
            f"recovery:{instance_id}#{epoch}", "recovery", node, now,
            parent=self.workflow_span(instance_id),
            instance=instance_id, origin=origin or "-", epoch=epoch,
            mechanism=mechanism,
        )
        self._recovery_spans[instance_id] = span
        self.registry.counter(
            "crew_recoveries_total", "Recovery episodes (rollbacks) started.",
            architecture=self.architecture,
        ).inc()
        return span

    def _obs_end_recovery(self, instance_id: str, now: float, **attrs: Any) -> None:
        episode = self._recovery_spans.pop(instance_id, None)
        if episode is None or not episode.open:
            return
        self.tracer.end(episode, now, **attrs)
        self.registry.histogram(
            "crew_recovery_duration",
            "Rollback-to-reestablishment duration in simulated time units.",
            buckets=RECOVERY_BUCKETS,
            architecture=self.architecture,
        ).observe(episode.duration)

    def obs_ocr_planned(
        self, instance_id: str, node: str, now: float, plan: Any
    ) -> None:
        """Instant span for a non-trivial OCR decision (re-triggered step)."""
        if not self.tracer.enabled:
            return
        parent = self._recovery_spans.get(instance_id)
        if parent is None or not parent.open:
            parent = self.workflow_span(instance_id)
        self.tracer.instant(
            f"ocr:{plan.step}", "recovery", node, now, parent=parent,
            instance=instance_id, **plan.span_attrs(),
        )

    def obs_coordination(
        self, instance_id: str | None, node: str, now: float, op: str,
        spec_name: str | None = None, **attrs: Any,
    ) -> None:
        """Instant coordination-round span plus the per-op counter."""
        if not self.tracer.enabled:
            return
        parent = (self._workflow_spans.get(instance_id)
                  if instance_id is not None else None)
        self.tracer.add(
            f"coord:{op}", "coordination", node, now, now, parent, None,
            {"spec": spec_name or "-", **attrs},
        )
        self.registry.counter(
            "crew_coordination_ops_total", "Coordination operations performed.",
            op=op,
        ).inc()

    def rule_fire_hook(self, node: str, instance_id: str):
        """A RuleEngine ``fire_hook`` for one instance, or None when off.

        Emits an instant rule span under the instance's workflow span and
        samples the pending-rule-table depth after each firing.
        """
        if not self.tracer.enabled:
            return None
        fired = self.registry.counter(
            "crew_rules_fired_total", "ECA rules fired.", node=node,
        )
        depth = self.registry.histogram(
            "crew_pending_rules",
            "Pending-rule-table depth sampled after each rule firing.",
            buckets=PENDING_RULE_BUCKETS,
        )

        def hook(rule: Any, engine: Any) -> None:
            fired.inc()
            depth.observe(engine.pending_count())
            now = self.simulator.now
            self.tracer.add(
                f"rule:{rule.rule_id}", "rule", node, now, now,
                self._workflow_spans.get(instance_id), None,
                {"instance": instance_id, "step": rule.step,
                 "kind": rule.kind},
            )

        return hook

    def _flight_sink(
        self, time: float, node: str, reason: str,
        events: list[dict], **detail: Any,
    ) -> None:
        """Persist a flight-recorder snapshot (bypasses the trace switch)."""
        self.trace.snapshot(
            time, node, "flight.snapshot", reason=reason, events=events,
            **detail,
        )

    # -- fault injection ---------------------------------------------------------------

    def inject_faults(self, plan, retry=None):
        """Install a deterministic fault injector over this system's transport.

        ``plan`` is a :class:`repro.runtime.faults.FaultPlan`; ``retry`` an
        optional :class:`repro.runtime.retry.RetryPolicy` (defaulted)
        driving transport retransmissions and the engines' step-retry
        watchdogs.  The injector draws from a child seed space of the
        system's master seed (``rng.spawn("faults")``), so installing it
        never perturbs the workload's own random streams, and the whole
        run replays bit-for-bit from ``(seed, plan)`` on the simulated
        backend (the asyncio backend replays the same seeded decision
        sequence on wall-clock time — outcome-level reproducibility).
        Call before :meth:`run`; returns the installed injector.

        Only runtimes advertising :meth:`supports_faults` accept a plan.
        """
        if self.faults is not None:
            raise WorkloadError("fault injector already installed")
        if not self.runtime.supports_faults():
            raise WorkloadError(
                f"runtime {self.runtime.name!r} does not support "
                "deterministic fault injection"
            )
        injector = self.runtime.install_faults(
            plan, self.rng.spawn("faults"),
            retry=retry if retry is not None else RetryPolicy(),
        )
        injector.on_fault = self._on_fault
        self.faults = injector
        return injector

    def _on_fault(self, time: float, kind: str, **detail: Any) -> None:
        """Record one injected fault decision into the trace."""
        self.trace.record(time, "faults", f"fault.{kind}", **detail)

    # -- driving the simulation -------------------------------------------------------

    def run(self, until: float | None = None) -> int:
        """Run the simulation to quiescence (or ``until``).

        Only meaningful on clocks that own their event loop (the DES
        kernel).  The asyncio runtime is driven by awaiting
        :meth:`repro.runtime.realtime.RealtimeRuntime.join` instead.
        """
        runner = getattr(self.simulator, "run", None)
        if runner is None:
            raise WorkloadError(
                f"runtime {self.runtime.name!r} has no synchronous run(); "
                "await the runtime's join() from the owning event loop"
            )
        fired = runner(until=until, max_events=self.config.max_events)
        if self.config.trace:
            self.registry.gauge(
                "crew_sim_events_processed", "Simulation events processed.",
            ).set(self.simulator.events_processed)
            self.registry.gauge(
                "crew_sim_time", "Current simulated time.",
            ).set(self.simulator.now)
            self.registry.gauge(
                "crew_trace_dropped_records", "Trace records lost to capacity.",
            ).set(self.trace.dropped)
            if self.tracer.dropped:
                # Beside the record gauge, but only once there is a loss:
                # a run that fits exports the families it always did.
                self.registry.gauge(
                    "crew_trace_dropped_spans", "Spans lost to capacity.",
                ).set(self.tracer.dropped)
        return fired

    def new_instance_id(self, schema_name: str) -> str:
        return f"{schema_name}-{next(self._instance_ids)}"

    def reserve_instance_ids(self, floor: int) -> None:
        """Advance the instance-id counter past ``floor``.

        Recovery boot paths (``repro serve --state-dir``) call this with
        the highest instance index found in the durable log before
        re-driving in-flight work, so instance ids minted after a crash
        can never collide with ids the previous incarnation already
        acknowledged.
        """
        current = next(self._instance_ids)
        self._instance_ids = itertools.count(max(current, floor + 1))

    def _note_owner(self, instance_id: str, node_name: str) -> None:
        """Hook: record which node controls an instance (parallel control
        tracks ownership; other architectures don't need to)."""

    # -- outcomes ----------------------------------------------------------------------

    def outcome(self, instance_id: str) -> InstanceOutcome:
        try:
            return self.outcomes[instance_id]
        except KeyError:
            raise FrontEndError(
                f"instance {instance_id!r} has not finished (or does not exist)"
            ) from None

    def committed_instances(self) -> list[str]:
        return sorted(
            iid for iid, out in self.outcomes.items() if out.committed
        )

    def aborted_instances(self) -> list[str]:
        return sorted(
            iid
            for iid, out in self.outcomes.items()
            if out.status is InstanceStatus.ABORTED
        )

    def _record_outcome(
        self,
        instance_id: str,
        schema_name: str,
        status: InstanceStatus,
        outputs: Mapping[str, Any],
        now: float,
    ) -> None:
        outcome = self.outcomes[instance_id] = InstanceOutcome(
            instance_id=instance_id,
            schema_name=schema_name,
            status=status,
            outputs=dict(outputs),
            finished_at=now,
        )
        if status is InstanceStatus.COMMITTED:
            self.metrics.instances_committed += 1
        elif status is InstanceStatus.ABORTED:
            self.metrics.instances_aborted += 1
        if self.on_outcome is not None:
            self.on_outcome(outcome)
        # A terminal instance runs no more programs.  Not earlier: a step
        # re-executed after a rollback continues the stream it drew from.
        self.rng.retire(
            f"prog:{instance_id}:{step}"
            for step in self.schemas[schema_name].schema.steps
        )
        if not self.tracer.enabled:
            return
        self._obs_end_recovery(instance_id, now, resolved=status.name.lower())
        span = self._workflow_spans.pop(instance_id, None)
        if span is not None and span.open:
            self.tracer.end(span, now, status=status.name)
            self.registry.histogram(
                "crew_instance_makespan",
                "Workflow start-to-finish time in simulated time units.",
                buckets=MAKESPAN_BUCKETS,
                architecture=self.architecture,
            ).observe(span.duration)
        self.registry.counter(
            "crew_instances_finished_total", "Workflow instances finished.",
            architecture=self.architecture, status=status.name,
        ).inc()

    @staticmethod
    def workflow_outputs(
        compiled: CompiledSchema, state: InstanceState
    ) -> dict[str, Any]:
        """Resolve the schema's declared workflow outputs from the data table."""
        outputs: dict[str, Any] = {}
        for name, ref in compiled.schema.outputs.items():
            if ref in state.data:
                outputs[name] = state.data[ref]
        return outputs
