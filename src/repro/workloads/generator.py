"""Parameterized workload generation for the Table 4-6 experiments.

Each generated schema realizes the Table 3 parameters structurally::

    P1 -> ... -> Pp -> O ──> A1 -> ... -> A(r-1) ──┐
                       └──> B1 -> ... -> Bv     ──┴─> J ──> T1..Tf

* ``P*`` — prefix chain (p = s - r - v - f - 1 steps, including the start);
* ``O`` — the rollback origin, splitting into two parallel branches;
* ``A*`` — the failure path: the last A step fails with probability ``pf``
  (at most once), rolling the workflow back to ``O`` — exactly ``r`` steps
  (O plus the A branch);
* ``B*`` — ``v`` steps running in parallel, the threads that must be
  halted/invalidated by the rollback;
* ``J`` — AND-join; ``T*`` — ``f`` parallel terminal steps.

Per rolled-back step, an ``AlwaysReexecute`` CR policy is assigned with
probability ``pr`` (the paper's "probability of step re-execution") and
``ReuseIfInputsUnchanged`` otherwise, so OCR reuse emerges at the paper's
rate.  The first ``w`` prefix steps form the abort-compensation list, and
a ``tune`` workflow input consumed by ``O`` makes input changes roll back
exactly the ``r``-step region.

Coordination requirements (``me``/``ro``/``rd``) are generated as specs
between each schema and itself (class-level coordination, the paper's
order-processing motivation), governing prefix steps; instances conflict
via a ``key`` workflow input drawn from a small pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.programs import ConstantProgram, FailEveryNth, FailWithProbability
from repro.engines.base import ControlSystem
from repro.errors import WorkloadError
from repro.model.builder import SchemaBuilder
from repro.model.coordination_spec import (
    CoordinationSpec,
    MutualExclusionSpec,
    RelativeOrderSpec,
    RollbackDependencySpec,
)
from repro.model.policies import AlwaysReexecute, ReuseIfInputsUnchanged
from repro.model.schema import StepType, WorkflowSchema
from repro.runtime.rng import SimRandom
from repro.workloads.params import WorkloadParameters

__all__ = ["GeneratedWorkload", "WorkloadGenerator", "WorkloadRun"]


@dataclass
class GeneratedWorkload:
    """Schemas + specs + bookkeeping produced by the generator."""

    params: WorkloadParameters
    schemas: list[WorkflowSchema]
    specs: list[CoordinationSpec]
    #: schema name -> the step that may fail (for targeted assertions).
    failure_steps: dict[str, str]
    #: schema name -> rollback origin of that failure.
    origins: dict[str, str]


@dataclass
class WorkloadRun:
    """Result of driving a workload through a control system."""

    instances: list[str] = field(default_factory=list)
    input_changed: list[str] = field(default_factory=list)
    aborted_requests: list[str] = field(default_factory=list)


class WorkloadGenerator:
    """Builds Table-3-shaped schemas and drives them through a system."""

    def __init__(self, params: WorkloadParameters, seed: int = 0,
                 key_pool: int = 2, coordination: bool = False):
        self.params = params
        self.rng = SimRandom(seed)
        self.key_pool = max(1, key_pool)
        self.coordination = coordination

    # -- schema construction ---------------------------------------------------

    def step_names(self, index: int) -> dict[str, Any]:
        """The structural step roles for schema ``index`` (see module doc)."""
        p = self.params
        prefix_len = p.s - p.r - p.v - p.f - 1
        if prefix_len < 1:
            raise WorkloadError("parameters leave no room for a prefix chain")
        prefix = [f"P{i+1}" for i in range(prefix_len)]
        origin = "O"
        branch_a = [f"A{i+1}" for i in range(p.r - 1)]
        branch_b = [f"B{i+1}" for i in range(p.v)]
        join = "J"
        terminals = [f"T{i+1}" for i in range(p.f)]
        return {
            "prefix": prefix,
            "origin": origin,
            "branch_a": branch_a,
            "branch_b": branch_b,
            "join": join,
            "terminals": terminals,
        }

    def build_schema(self, index: int) -> WorkflowSchema:
        p = self.params
        roles = self.step_names(index)
        name = f"WL{index:02d}"
        rng = self.rng.stream(f"schema:{index}")
        builder = SchemaBuilder(name, inputs=["key", "tune"])

        failing_step = roles["branch_a"][-1] if roles["branch_a"] else roles["origin"]
        rollback_region = [roles["origin"], *roles["branch_a"]]

        def policy_for(step: str):
            if step in rollback_region:
                if rng.random() < p.pr:
                    return AlwaysReexecute()
                return ReuseIfInputsUnchanged()
            return ReuseIfInputsUnchanged()

        previous = None
        for step in roles["prefix"]:
            inputs = ["WF.key"] if previous is None else [f"{previous}.out"]
            builder.step(step, program=f"{name}.{step}", inputs=inputs,
                         outputs=["out"], cr_policy=policy_for(step),
                         step_type=StepType.UPDATE)
            if previous is not None:
                builder.arc(previous, step)
            previous = step

        origin = roles["origin"]
        builder.step(origin, program=f"{name}.{origin}",
                     inputs=[f"{previous}.out", "WF.tune"], outputs=["out"],
                     cr_policy=policy_for(origin))
        builder.arc(previous, origin)

        prev_a = origin
        for step in roles["branch_a"]:
            builder.step(step, program=f"{name}.{step}",
                         inputs=[f"{prev_a}.out"], outputs=["out"],
                         cr_policy=policy_for(step))
            builder.arc(prev_a, step)
            prev_a = step

        prev_b = origin
        for step in roles["branch_b"]:
            builder.step(step, program=f"{name}.{step}",
                         inputs=[f"{prev_b}.out"], outputs=["out"],
                         cr_policy=policy_for(step))
            builder.arc(prev_b, step)
            prev_b = step

        join = roles["join"]
        join_kind = "and" if prev_a != prev_b else "none"
        builder.step(join, program=f"{name}.{join}",
                     inputs=[f"{prev_a}.out"], outputs=["out"],
                     join=join_kind if prev_a != prev_b else "none")
        builder.arc(prev_a, join)
        if prev_b != prev_a:
            builder.arc(prev_b, join)

        for terminal in roles["terminals"]:
            builder.step(terminal, program=f"{name}.{terminal}",
                         inputs=[f"{join}.out"], outputs=["out"])
            builder.arc(join, terminal)

        builder.rollback_point(failing_step, origin)
        if p.w:
            compensated = roles["prefix"][: p.w]
            builder.abort_compensation(*compensated)
        builder.output("result", f"{roles['terminals'][0]}.out")
        return builder.build()

    def build(self) -> GeneratedWorkload:
        schemas = [self.build_schema(i) for i in range(self.params.c)]
        specs: list[CoordinationSpec] = []
        failure_steps: dict[str, str] = {}
        origins: dict[str, str] = {}
        for index, schema in enumerate(schemas):
            roles = self.step_names(index)
            failing = roles["branch_a"][-1] if roles["branch_a"] else roles["origin"]
            failure_steps[schema.name] = failing
            origins[schema.name] = roles["origin"]
            if self.coordination:
                specs.extend(self._specs_for(schema.name, roles))
        return GeneratedWorkload(
            params=self.params,
            schemas=schemas,
            specs=specs,
            failure_steps=failure_steps,
            origins=origins,
        )

    def _specs_for(self, name: str, roles: dict[str, Any]) -> list[CoordinationSpec]:
        """Class-level coordination specs governing prefix steps."""
        p = self.params
        specs: list[CoordinationSpec] = []
        chain = [*roles["prefix"], roles["origin"], *roles["branch_a"]]
        if p.ro >= 1:
            steps = tuple(chain[: max(1, p.ro)])
            specs.append(RelativeOrderSpec(
                name=f"{name}-ro", schema_a=name, schema_b=name,
                steps_a=steps, steps_b=steps, conflict_key="WF.key",
            ))
        if p.me >= 1:
            first = chain[0]
            last = chain[min(p.me - 1, len(chain) - 1)]
            if first != last or p.me == 1:
                specs.append(MutualExclusionSpec(
                    name=f"{name}-mx", schema_a=name, schema_b=name,
                    region_a=(first, last), region_b=(first, last),
                    conflict_key="WF.key",
                ))
        if p.rd >= 1:
            specs.append(RollbackDependencySpec(
                name=f"{name}-rd", schema_a=name, schema_b=name,
                trigger_step_a=roles["origin"], rollback_to_b=chain[0],
                conflict_key="WF.key",
            ))
        return specs

    # -- installation ------------------------------------------------------------

    def install(self, system: ControlSystem, workload: GeneratedWorkload,
                fail_first_attempt: bool = False) -> None:
        """Register schemas, coordination specs and (failing) programs.

        Each schema's failure step fails with probability ``pf`` (at most
        once per instance), or with ``fail_first_attempt`` on the first
        attempt of *every* instance, so each rolls back once and recovers.
        """
        p = self.params
        for schema in workload.schemas:
            system.register_schema(schema)
            failing = workload.failure_steps[schema.name]
            for step in schema.steps.values():
                # Deterministic outputs (not attempt-tagged): a re-executed
                # step "does not produce any new results", so downstream
                # steps remain OCR-reusable — the paper's common case.
                program = ConstantProgram(
                    {out: f"{schema.name}.{step.name}.{out}" for out in step.outputs}
                )
                if step.name == failing:
                    if fail_first_attempt:
                        program = FailEveryNth(program, {1})
                    elif p.pf > 0:
                        program = FailWithProbability(program, p.pf,
                                                      max_failures=1)
                system.register_program(step.program, program)
        for spec in workload.specs:
            system.add_coordination(spec)

    # -- driving -------------------------------------------------------------------

    def drive(
        self,
        system: ControlSystem,
        workload: GeneratedWorkload,
        instances_per_schema: int | None = None,
        arrival_gap: float = 5.0,
    ) -> WorkloadRun:
        """Start instances and schedule input changes/aborts per Table 3."""
        p = self.params
        count = instances_per_schema if instances_per_schema is not None else p.i
        run = WorkloadRun()
        # Independent streams per administrative decision so both rare
        # mechanisms are exercised at their Table 3 rates regardless of how
        # the draws interleave.
        pi_rng = self.rng.stream("admin:input-change")
        pa_rng = self.rng.stream("admin:abort")
        # Input changes land just after the rollback-origin step completes,
        # whatever the architecture's pacing: one engine/agent hop per step
        # of the prefix chain plus the origin itself, plus slack.
        if system.architecture in ("centralized", "parallel"):
            # probe round-trip (when a > 1) + dispatch round-trip + service
            per_step = 4.3 if p.a > 1 else 2.2
        else:
            per_step = 1.2  # one packet hop + service
        origin_depth = (p.s - p.r - p.v - p.f - 1) + 1
        change_delay = per_step * (origin_depth + 1.5)
        at = 0.0
        for n in range(count):
            for schema in workload.schemas:
                key = f"K{n % self.key_pool}"
                instance = system.start_workflow(
                    schema.name, {"key": key, "tune": 0}, delay=at
                )
                run.instances.append(instance)
                change = pi_rng.random() < p.pi
                abort = pa_rng.random() < p.pa
                if change:
                    system.change_inputs(
                        instance, {"tune": n + 1}, delay=at + change_delay
                    )
                    run.input_changed.append(instance)
                elif abort:
                    system.abort_workflow(instance, delay=at + arrival_gap)
                    run.aborted_requests.append(instance)
                at += arrival_gap
        return run
