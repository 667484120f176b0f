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
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.core.programs import (
    ExecutionContext,
    ProgramRegistry,
    StepProgram,
    StepResult,
    program_stream_name,
)
from repro.errors import FrontEndError, ParameterError, SchemaError, SimulationError, WorkloadError
from repro.model.compiler import CompiledSchema, compile_schema
from repro.model.coordination_spec import (
    CoordinationSpec,
    MutualExclusionSpec,
    RelativeOrderSpec,
    RollbackDependencySpec,
)
from repro.model.schema import StepDef, WorkflowSchema
from repro.obs.flight import FlightRecorder
from repro.obs.registry import CounterMetric, HistogramMetric, MetricsRegistry
from repro.obs.spans import Span, Tracer
from repro.rules.events import step_compensated, step_done, step_fail
from repro.runtime.executor import ClockRuntime
from repro.runtime.latency import FixedLatency
from repro.runtime.messages import Message
from repro.runtime.metrics import Mechanism, MetricsCollector
from repro.runtime.retry import RetryPolicy
from repro.runtime.rng import SimRandom
from repro.runtime.trace import Trace
from repro.sim.kernel import SimRuntime
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

#: Loop-back re-entries one rule may make in one instance before the
#: engine calls the loop runaway.
MAX_LOOP_ITERATIONS = 100
#: Events one :meth:`ControlSystem.run` fires at most.
MAX_EVENTS = 5_000_000


@dataclass
class SystemConfig:
    """Tunable knobs shared by all architectures.

    ``work_time_scale`` converts step cost units into simulated execution
    time; ``successor_selection`` picks the distributed executor election
    strategy (``"hash"`` — deterministic, matches the paper's message
    expression ``s·a + f`` — or ``"load"``, which adds StateInformation
    probe traffic); the failure-recovery knobs control the distributed
    StepStatus polling/takeover machinery.  ``purge_interval`` is how long
    a distributed coordination agent holds a partial batch of finished
    instances before it broadcasts their purge (and how long an aborted
    instance waits to join a batch); the simulator default is 50 time
    units, 50 message latencies, and the daemon passes its own in seconds.
    """

    seed: int = 0
    latency: float = 1.0
    trace: bool = True
    trace_capacity: int | None = 500_000
    work_time_scale: float = 0.1
    successor_selection: str = "hash"
    step_status_timeout: float = 50.0
    step_status_poll_interval: float = 25.0
    purge_interval: float = 50.0

    def __post_init__(self) -> None:
        if self.successor_selection not in ("hash", "load"):
            raise WorkloadError(
                f"successor_selection must be 'hash' or 'load', "
                f"got {self.successor_selection!r}"
            )
        if not (isinstance(self.purge_interval, (int, float))
                and 0 < self.purge_interval < float("inf")):
            raise ParameterError(
                f"purge_interval must be a positive number of time units, "
                f"got {self.purge_interval!r}"
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


class _MessageSpanNames(dict):
    """interface -> its ("send:<interface>", "recv:<interface>") span
    names, so the message spans of one interface share two strings; a hit
    is a plain dict subscript."""

    def __missing__(self, interface: str) -> tuple[str, str]:
        names = self[interface] = (f"send:{interface}", f"recv:{interface}")
        return names


class ControlSystem:
    """Abstract facade over one simulated workflow control deployment."""

    architecture = "abstract"

    def __init__(
        self,
        config: SystemConfig | None = None,
        runtime: ClockRuntime | None = None,
    ):
        self.config = config if config is not None else SystemConfig()
        self.metrics = MetricsCollector()
        self.rng = SimRandom(self.config.seed)
        # With no runtime given the system runs on the simulator; a
        # wall-clock caller passes a RealtimeRuntime.
        if runtime is None:
            runtime = SimRuntime(
                metrics=self.metrics,
                latency=FixedLatency(self.config.latency),
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
            enabled=self.config.trace, capacity=self.config.trace_capacity
        )
        # Observability: the span tracer and metrics registry follow the
        # single `trace` switch so benchmark runs stay un-instrumented.
        self.tracer = Tracer(
            enabled=self.config.trace, capacity=self.config.trace_capacity
        )
        self.registry = MetricsRegistry()
        if self.config.trace:
            depth_hist = self.registry.histogram(
                "crew_event_queue_depth",
                "Simulator event-queue depth sampled at each event.",
                buckets=QUEUE_DEPTH_BUCKETS,
            )
            self.simulator.event_hook = (
                lambda time, depth: depth_hist.observe(depth)
            )
        # Every node emits its protocol events here, and the transport
        # reports each physical message at both ends; the trace switch
        # picks which views the events feed and which pair of message
        # methods runs.
        self.network.observer = self
        self._views = EVENT_VIEWS if self.config.trace else UNTRACED_EVENT_VIEWS
        if self.config.trace:
            self.sent, self.received = self._traced_sent, self._traced_received
        else:
            self.sent, self.received = self._noted_sent, self._noted_received
        #: node name -> its flight-recorder ring of recent transport
        #: events.  Kept with tracing off too: its whole point is
        #: post-mortem context when full tracing is off.
        self._flights: dict[str, FlightRecorder] = {}
        #: node name -> its ``crew_node_messages_received_total`` child.
        self._received_counters: dict[str, CounterMetric] = {}
        self._message_span_names = _MessageSpanNames()
        self._workflow_spans: dict[str, Span] = {}
        self._recovery_spans: dict[str, Span] = {}
        #: instance -> (node, step) -> the step span open there.
        self._step_spans: dict[str, dict[tuple[str, str], Span]] = {}
        # The views' hot metric children, each bound on its first
        # observation: bound any earlier, a family nobody fed would
        # appear in the exposition.
        self._started_counter: CounterMetric | None = None
        self._step_latency: HistogramMetric | None = None
        self._makespan: HistogramMetric | None = None
        self._finished_counters: dict[InstanceStatus, CounterMetric] = {}
        self._coordination_counters: dict[str, CounterMetric] = {}
        self.programs = ProgramRegistry()
        self.schemas: dict[str, CompiledSchema] = {}
        self.specs: list[CoordinationSpec] = []
        self.assignment = AgentAssignment()
        self.outcomes: dict[str, InstanceOutcome] = {}
        #: instance id -> the node controlling it, where an architecture
        #: has more than one node to choose from (centralized has not).
        self._owners: dict[str, str] = {}
        #: Completion callback: ``on_outcome(outcome)`` runs for every
        #: instance (nested ones too) from the view of its end event, inside
        #: the engine handler that finished it and before the event's flat
        #: record.
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
    ) -> str:
        """WorkflowStart WI: a new instance, started at :meth:`_place`'s node."""
        self.compiled(schema_name)  # validate registration eagerly
        instance_id = self.new_instance_id(schema_name)
        node = self._place(schema_name, instance_id)
        self.schedule_frontend(
            delay, node, node.workflow_start, schema_name, instance_id, dict(inputs),
        )
        return instance_id

    def abort_workflow(self, instance_id: str, delay: float = 0.0) -> None:
        """WorkflowAbort WI, to the node that controls the instance."""
        node = self._owner_node(instance_id)
        self.schedule_frontend(delay, node, node.workflow_abort, instance_id)

    def change_inputs(
        self, instance_id: str, changes: Mapping[str, Any], delay: float = 0.0
    ) -> None:
        """WorkflowChangeInputs WI, to the node that controls the instance."""
        node = self._owner_node(instance_id)
        self.schedule_frontend(
            delay, node, node.workflow_change_inputs, instance_id, dict(changes),
        )

    def workflow_status(self, instance_id: str) -> InstanceStatus:
        """WorkflowStatus WI, answered by the node that controls the instance."""
        return self._owner_node(instance_id).workflow_status(instance_id)

    # -- where a WI lands: each architecture supplies these two -----------------------

    def _place(self, schema_name: str, instance_id: str) -> Any:
        """The node a new instance starts at.  An architecture with more
        than one such node notes its choice with :meth:`_note_owner`."""
        raise NotImplementedError  # pragma: no cover - interface

    def _owner_node(self, instance_id: str) -> Any:
        """The node that controls an existing instance."""
        raise NotImplementedError  # pragma: no cover - interface

    def owner_of(self, instance_id: str) -> str:
        """The name of the node that controls an instance."""
        return self._owner_node(instance_id).name

    def _note_owner(self, instance_id: str, node_name: str) -> None:
        self._owners[instance_id] = node_name

    def _noted_owner(self, instance_id: str) -> str:
        """The node name :meth:`_note_owner` recorded for an instance."""
        try:
            return self._owners[instance_id]
        except KeyError:
            raise FrontEndError(f"unknown instance {instance_id!r}") from None

    # -- protocol events -------------------------------------------------------------

    def emit(self, node: Any, kind: str, **detail: Any) -> None:
        """One protocol event at ``node``, now: run the views its kind feeds.

        Every engine node's ``Node.emit(kind, **detail)`` is this call.
        :data:`EVENT_VIEWS` decides what a kind feeds — the flat trace
        record, the step, workflow and recovery spans, the OCR and
        coordination marks, their histograms and the flight dump — and
        with tracing off only the views marked untraced run.
        """
        views = self._views.get(kind)
        if views is None:
            if self.config.trace:
                self.trace.record(self.simulator.now, node.name, kind, **detail)
            return
        now = self.simulator.now
        for view in views:
            view(self, now, node, kind, detail)

    # -- physical messages ------------------------------------------------------------

    def _noted_sent(self, src_node: Any, dst: str, msg_id: int, interface: str,
                    mechanism: Mechanism, lamport: int,
                    payload: Mapping[str, Any]) -> None:
        """``sent`` with tracing off: the sender's flight note."""
        self._flights[src_node.name].note(self.simulator.now, "send", interface,
                                          dst, msg_id, lamport)

    def _noted_received(self, node: Any, message: Message) -> None:
        """``received`` with tracing off: the receiver's flight note."""
        self._flights[node.name].note(self.simulator.now, "recv", message.interface,
                                      message.src, message.msg_id, node.lamport_clock)

    def _traced_sent(self, src_node: Any, dst: str, msg_id: int, interface: str,
                     mechanism: Mechanism, lamport: int,
                     payload: Mapping[str, Any]) -> int:
        """``sent`` with tracing on: the flight note and the send span,
        linked to the span active on the sender; returns the span's id.

        Both traced methods read ``mechanism._value_``, the member's plain
        attribute behind the ``.value`` property, at a fifth of its cost.
        """
        src, now = src_node.name, self.simulator.now
        self._flights[src].note(now, "send", interface, dst, msg_id, lamport)
        return self.tracer.message(
            self._message_span_names[interface][0], src, now, src_node.current_span,
            msg_id, src, dst, mechanism._value_, lamport, "send",
            payload.get("instance_id"),
        )

    def _traced_received(self, node: Any, message: Message) -> int:
        """``received`` with tracing on: the receive count, the flight note
        and the recv span, linked to the send span; returns the span's id
        — the node's ``current_span`` while it handles the message."""
        dst, now, lamport = node.name, self.simulator.now, node.lamport_clock
        self._received_counters[dst].inc()
        self._flights[dst].note(now, "recv", message.interface, message.src,
                                message.msg_id, lamport)
        return self.tracer.message(
            self._message_span_names[message.interface][1], dst, now, message.send_span,
            message.msg_id, message.src, dst, message.mechanism._value_, lamport,
            "recv", message.payload.get("instance_id"),
        )

    def obs_recovery_started(
        self,
        instance_id: str,
        node: str,
        now: float,
        origin: str | None,
        epoch: int,
        mechanism: str,
    ) -> None:
        """Open a recovery-episode span (rollback, unhandled failure, abort).

        A newer rollback supersedes a still-open episode: the old span is
        closed here so episodes never overlap for one instance.  Called
        once per episode whether tracing is on or not.
        """
        if not self.tracer.enabled:
            return
        if instance_id in self._recovery_spans:
            self._obs_end_recovery(instance_id, now, resolved="superseded")
        span = self.tracer.start(
            f"recovery:{instance_id}#{epoch}", "recovery", node, now,
            parent=self._workflow_spans.get(instance_id),
            instance=instance_id, origin=origin or "-", epoch=epoch,
            mechanism=mechanism,
        )
        self._recovery_spans[instance_id] = span
        self.registry.counter(
            "crew_recoveries_total", "Recovery episodes (rollbacks) started.",
            architecture=self.architecture,
        ).inc()

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

    def _step_parent(self, instance_id: str) -> Span | None:
        """An instance's open recovery episode, else its workflow span."""
        parent = self._recovery_spans.get(instance_id)
        if parent is None or parent.end is not None:
            parent = self._workflow_spans.get(instance_id)
        return parent

    def _pop_step_span(self, node: str, instance_id: str, step: str) -> Span | None:
        spans = self._step_spans.get(instance_id)
        if spans is None:
            return None
        span = spans.pop((node, step), None)
        if not spans:
            del self._step_spans[instance_id]
        return span

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
            # Interned: the tracer keeps one name per rule, not per firing.
            self.tracer.mark(
                sys.intern(f"rule:{rule.rule_id}"), "rule", node, now,
                self._workflow_spans.get(instance_id),
                {"instance": instance_id, "step": rule.step,
                 "kind": rule.kind},
            )

        return hook

    # -- step programs -----------------------------------------------------------------

    def execute_program(
        self, node: str, schema_name: str, step_def: StepDef, instance_id: str,
        attempt: int, inputs: Mapping[str, Any], cost: float,
    ) -> StepResult:
        """Run one step's program on agent ``node`` and account its work.

        With a fault plan installed, each execution first draws an
        injected ``execfail``; a hit fails the step without running its
        program, and the engine's own step-failure path (rollback point,
        halt, compensation, re-execution) takes it from there.
        """
        faults = self.runtime.faults
        if faults is not None and faults.executor_should_fail(
                node, instance_id, step_def.name):
            result = StepResult(success=False, error="injected execfail")
        else:
            program = self.programs.get(step_def.program, step_def.outputs)
            result = program.execute(inputs, ExecutionContext(
                schema_name, instance_id, step_def.name, attempt,
                self.simulator.now, node, streams=self.rng,
            ))
        self.metrics.record_work(node, "execute", cost)
        return result

    # -- fault injection ---------------------------------------------------------------

    def inject_faults(self, plan, retry=None):
        """Install a deterministic fault injector over this system's transport.

        ``plan`` is a :class:`repro.runtime.faults.FaultPlan`; ``retry`` an
        optional :class:`repro.runtime.retry.RetryPolicy` (defaulted)
        driving transport retransmissions.  ``execfail`` is drawn in
        :meth:`execute_program`, ``execstall`` by the step executor.  The
        injector draws from a child seed space of the system's master seed
        (``rng.spawn("faults")``), so installing it never perturbs the
        workload's own random streams, and the whole run replays
        bit-for-bit from ``(seed, plan)`` on the simulated
        backend (the asyncio backend replays the same seeded decision
        sequence on wall-clock time — outcome-level reproducibility).
        Call before :meth:`run`; returns the installed injector.
        """
        injector = self.runtime.install_faults(
            plan, self.rng.spawn("faults"),
            retry=retry if retry is not None else RetryPolicy(),
        )
        injector.on_fault = self._on_fault
        return injector

    @property
    def faults(self):
        """The runtime's fault injector (None = the transport keeps its
        reliable persistent-queue semantics)."""
        return self.runtime.faults

    def _on_fault(self, time: float, kind: str, **detail: Any) -> None:
        """Record one injected fault decision into the trace."""
        self.trace.record(time, "faults", f"fault.{kind}", **detail)

    # -- driving the simulation -------------------------------------------------------

    def run(self, until: float | None = None) -> int:
        """Run the simulation to quiescence (or ``until``).

        Only meaningful on clocks that own their event loop (the DES
        kernel).  The asyncio runtime is driven by awaiting
        :meth:`repro.runtime.realtime.RealtimeRuntime.join` instead.
        Raises :class:`~repro.errors.SimulationError` once the clock
        drains if a step-executor callback raised.
        """
        runner = getattr(self.simulator, "run", None)
        if runner is None:
            raise WorkloadError(
                f"runtime {self.runtime.name!r} has no synchronous run(); "
                "await the runtime's join() from the owning event loop"
            )
        fired = runner(until=until, max_events=MAX_EVENTS)
        executor = self.runtime.executor
        if executor.errors:
            # A program fails its step instead of raising, and so does an
            # injected execfail: whatever raised is an engine defect.
            name, error = executor.first_error
            raise SimulationError(
                f"{executor.errors} step-executor callback(s) raised; the "
                f"first, in {name}:\n{error}"
            )
        if self.config.trace:
            if not self.simulator.pending:
                # A node that missed its instance's end may have launched
                # a step; with the clock drained nothing can close it now.
                for instance in [i for i in self._step_spans if i in self.outcomes]:
                    del self._step_spans[instance]
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


# -- views of the protocol events --------------------------------------------------
#
# A view is ``view(system, now, node, kind, detail)``.  ``detail`` is the
# keyword dict of the one ``Node.emit`` call; a view copies what it keeps.


def _untraced(view: Callable) -> Callable:
    """Mark a view that runs with tracing off too."""
    view.untraced = True
    return view


def _record(system: ControlSystem, now: float, node: Any, kind: str,
            detail: dict[str, Any]) -> None:
    """The flat trace record."""
    system.trace.record(now, node.name, kind, **detail)


def _end_record(system, now, node, kind, detail):
    """An instance's end record: its ``outputs`` are program values, which
    need not be JSON, and the outcome already holds them."""
    kept = detail.copy()
    del kept["outputs"]
    system.trace.record(now, node.name, kind, **kept)


@_untraced
def _count_start(system, now, node, kind, detail):
    system.metrics.instances_started += 1


def _workflow_opened(system, now, node, kind, detail):
    """The workflow span; a nested workflow's nests under its parent's."""
    instance = detail["instance"]
    system._workflow_spans[instance] = system.tracer.start(
        instance, "workflow", node.name, now,
        parent=system._workflow_spans.get(detail["parent"]),
        schema=detail["schema"], architecture=system.architecture,
    )
    started = system._started_counter
    if started is None:
        started = system._started_counter = system.registry.counter(
            "crew_instances_started_total", "Workflow instances started.",
            architecture=system.architecture,
        )
    started.inc()


def _workflow_ended(status: InstanceStatus) -> Callable:
    """The instance's outcome: the outcome table and counters, then the
    completion callback; the instance's program streams retire."""
    @_untraced
    def ended(system, now, node, kind, detail):
        instance, schema = detail["instance"], detail["schema"]
        outcome = system.outcomes[instance] = InstanceOutcome(
            instance_id=instance, schema_name=schema, status=status,
            outputs=dict(detail["outputs"]), finished_at=now,
        )
        if status is InstanceStatus.COMMITTED:
            system.metrics.instances_committed += 1
        else:
            system.metrics.instances_aborted += 1
        if system.on_outcome is not None:
            system.on_outcome(outcome)
        # A terminal instance runs no more programs.  Not earlier: a step
        # re-executed after a rollback continues the stream it drew from.
        system.rng.retire(
            program_stream_name(instance, step)
            for step in system.schemas[schema].schema.steps
        )
    return ended


def _workflow_closed(status: InstanceStatus) -> Callable:
    """The workflow span, with the recovery episode and step spans it still
    had open; the makespan histogram and the finished counter."""
    def closed(system, now, node, kind, detail):
        instance = detail["instance"]
        # What the instance still had open closes with its workflow span
        # below; a step launched after this point opens a root span.
        system._step_spans.pop(instance, None)
        system._obs_end_recovery(instance, now, resolved=status.name.lower())
        span = system._workflow_spans.pop(instance, None)
        if span is not None and span.open:
            system.tracer.end(span, now, status=status.name)
            makespan = system._makespan
            if makespan is None:
                makespan = system._makespan = system.registry.histogram(
                    "crew_instance_makespan",
                    "Workflow start-to-finish time in simulated time units.",
                    buckets=MAKESPAN_BUCKETS,
                    architecture=system.architecture,
                )
            makespan.observe(span.duration)
        finished = system._finished_counters.get(status)
        if finished is None:
            finished = system._finished_counters[status] = system.registry.counter(
                "crew_instances_finished_total", "Workflow instances finished.",
                architecture=system.architecture, status=status.name,
            )
        finished.inc()
    return closed


def _step_opened(system, now, node, kind, detail):
    """Open the step span of (node, instance, step)."""
    instance, step = detail["instance"], detail["step"]
    span = system.tracer.add(
        f"{instance}/{step}", "step", node.name, now, None,
        system._step_parent(instance), None, detail.copy(),
    )
    system._step_spans.setdefault(instance, {})[node.name, step] = span


def _step_closed(status: str, *keys: str) -> Callable:
    """Close the step span with ``status`` (and ``keys`` of the detail)
    and feed the step-latency histogram."""
    def closed(system, now, node, kind, detail):
        span = system._pop_step_span(node.name, detail["instance"], detail["step"])
        if span is None or span.end is not None:
            return
        attrs = {"status": status}
        for key in keys:
            attrs[key] = detail[key]
        system.tracer.end(span, now, **attrs)
        latency = system._step_latency
        if latency is None:
            latency = system._step_latency = system.registry.histogram(
                "crew_step_latency",
                "Step dispatch-to-result latency in simulated time units.",
                buckets=STEP_LATENCY_BUCKETS,
                architecture=system.architecture,
            )
        latency.observe(now - span.start)
    return closed


def _step_cancelled(system, now, node, kind, detail):
    """Close the step span as cancelled: its result will never count."""
    span = system._pop_step_span(node.name, detail["instance"], detail["step"])
    if span is not None:
        system.tracer.end(span, now, status="cancelled")


def _node_forgot(system, now, node, kind, detail):
    """A node lost its volatile state — of the instances it retired, or of
    all in a crash — so it will never finish those steps: their spans leave
    the map open, for their workflow span (or the tracer's finish) to close."""
    retired = detail.get("instances")
    for instance in list(system._step_spans) if retired is None else retired:
        spans = system._step_spans.get(instance)
        if not spans:
            continue
        for key in [key for key in spans if key[0] == node.name]:
            del spans[key]
        if not spans:
            system._step_spans.pop(instance, None)


def _reestablished(system, now, node, kind, detail):
    """A step completed: it closes a recovery episode it was the origin of."""
    instance = detail["instance"]
    episode = system._recovery_spans.get(instance)
    if (episode is not None and episode.open
            and episode.attrs.get("origin") == detail["step"]):
        system._obs_end_recovery(instance, now, resolved="origin-reexecuted")


def _recovery_started(mechanism: str | None = None) -> Callable:
    """Open a recovery episode (``mechanism``, else the detail's)."""
    @_untraced
    def started(system, now, node, kind, detail):
        if detail["epoch"] is None:
            return  # nothing of the instance here to halt
        system.obs_recovery_started(
            detail["instance"], node.name, now, origin=detail.get("origin"),
            epoch=detail["epoch"], mechanism=mechanism or detail["mechanism"],
        )
    return started


def _ocr_marked(system, now, node, kind, detail):
    """Instant mark of a non-trivial OCR decision (a re-triggered step)."""
    instance, plan = detail["instance"], detail["plan"]
    system.tracer.mark(
        sys.intern(f"ocr:{plan.step}"), "recovery", node.name, now,
        system._step_parent(instance),
        {"instance": instance, **plan.span_attrs()},
    )


def _coordination_marked(system, now, node, kind, detail):
    """Instant coordination-round mark plus the per-op counter."""
    op, spec = detail["op"], detail["spec"] or "-"
    attrs = {"spec": spec}  # first among the attrs, whatever the call's order
    attrs.update(detail)
    attrs["spec"] = spec
    del attrs["op"], attrs["instance"]
    system.tracer.mark(
        sys.intern(f"coord:{op}"), "coordination", node.name, now,
        system._workflow_spans.get(detail["instance"]), attrs,
    )
    ops = system._coordination_counters.get(op)
    if ops is None:
        ops = system._coordination_counters[op] = system.registry.counter(
            "crew_coordination_ops_total",
            "Coordination operations performed.", op=op,
        )
    ops.inc()


@_untraced
def _flight_ring(system, now, node, kind, detail):
    """A new node's flight-recorder ring."""
    system._flights[node.name] = FlightRecorder()


def _receive_counter(system, now, node, kind, detail):
    """A new node's receive counter: it exports ``0`` until a message
    lands."""
    system._received_counters[node.name] = system.registry.counter(
        "crew_node_messages_received_total",
        "Physical messages delivered to a node.", node=node.name,
    )


def _load_counter(system, now, node, kind, detail):
    """A new node's load counter, which ``Node.charge`` increments."""
    node._load_counter = system.registry.counter(
        "crew_node_load_units_total",
        "Navigation load charged to a node, in units of l.", node=node.name,
    )


def _count_crash(system, now, node, kind, detail):
    system.registry.counter(
        "crew_node_crashes_total", "Node crash events.", node=node.name
    ).inc()


def _flight_dump(reason: str, *keys: str) -> Callable:
    """Snapshot the node's flight-recorder ring into the trace, bypassing
    the trace switch: post-mortem context is for untraced runs too."""
    @_untraced
    def dump(system, now, node, kind, detail):
        system.trace.snapshot(
            now, node.name, "flight.snapshot", reason=reason,
            events=system._flights[node.name].snapshot(),
            **{k: detail[k] for k in keys},
        )
    return dump


#: Protocol event kind -> the views it feeds, in order.  A kind not listed
#: feeds the flat record alone, which ``ControlSystem.emit`` writes inline.
#: Each protocol event has one kind on every architecture, and its record
#: carries every key of its detail but an end event's ``outputs``.  A kind
#: listed without a record view (a mark, a cancelled or reestablished step,
#: a halt, a crash) has never had a flat record.
EVENT_VIEWS: dict[str, tuple[Callable, ...]] = {
    "workflow.start": (_record, _count_start, _workflow_opened),
    "workflow.commit": (_workflow_ended(InstanceStatus.COMMITTED),
                        _workflow_closed(InstanceStatus.COMMITTED), _end_record),
    "workflow.aborted": (_workflow_ended(InstanceStatus.ABORTED),
                         _workflow_closed(InstanceStatus.ABORTED), _end_record),
    # A distributed agent relaunching a step cancels its stale span first.
    "step.dispatch": (_record, _step_cancelled, _step_opened),
    "step.redispatch": (_record, _step_closed("timeout")),
    "step.done": (_record, _step_closed("done"), _reestablished),
    "step.fail": (_record, _flight_dump("step.fail", "instance", "step"),
                  _step_closed("failed", "error")),
    "step.reuse": (_record, _reestablished),
    "step.cancel": (_step_cancelled,),
    "nested.done": (_reestablished,),
    "rollback": (_record, _recovery_started()),
    "failure.unhandled": (_record, _recovery_started("failure")),
    "abort.halt": (_recovery_started("abort"),),
    "ocr.plan": (_ocr_marked,),
    "coord": (_coordination_marked,),
    "node.attach": (_flight_ring, _receive_counter, _load_counter),
    "node.crash": (_count_crash, _flight_dump("crash"), _node_forgot),
    "instances.retired": (_node_forgot,),
}

#: What each kind feeds with tracing off.
UNTRACED_EVENT_VIEWS: dict[str, tuple[Callable, ...]] = {
    kind: tuple(view for view in views if getattr(view, "untraced", False))
    for kind, views in EVENT_VIEWS.items()
}
