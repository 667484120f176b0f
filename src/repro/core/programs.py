"""Step programs: the "black boxes" agents execute to perform steps.

"A step is performed by typically executing a program that accesses a
database.  The program associated with a step and the data that is
accessed by the step are not known to the WFMS" — so the enactment layers
only see this narrow interface: a program consumes the step's resolved
input values and yields a :class:`StepResult` (success/failure + outputs).

The library ships composable synthetic programs used by examples, tests
and workloads: constant/function programs, failure injectors (for the
paper's *logical* step failures), and a default no-op.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.errors import WorkloadError
from repro.storage.tables import StepRecord

__all__ = [
    "ConstantProgram",
    "ExecutionContext",
    "FailEveryNth",
    "FailWithProbability",
    "FunctionProgram",
    "NoopProgram",
    "ProgramRegistry",
    "StepProgram",
    "StepResult",
    "program_stream_name",
]


@dataclass(frozen=True)
class StepResult:
    """Outcome of one program execution."""

    success: bool
    outputs: dict[str, Any] = field(default_factory=dict)
    error: str | None = None


def program_stream_name(instance_id: str, step: str) -> str:
    """The :class:`~repro.runtime.rng.SimRandom` stream a step's program
    draws from, for every execution of that step in that instance."""
    return f"prog:{instance_id}:{step}"


class ExecutionContext:
    """What a program may observe about its invocation.

    ``attempt`` counts executions of this step within this instance
    (1-based), letting synthetic programs fail the first attempt and
    succeed on re-execution — the canonical rollback test scenario.
    ``rng`` is a dedicated deterministic random stream: given directly,
    or — when an engine passes its ``streams`` instead — the stream
    :func:`program_stream_name` names, resolved on the first read of
    ``rng``, so a program that never draws costs no stream.
    """

    __slots__ = ("_rng", "_streams", "attempt", "instance_id", "node", "now",
                 "schema_name", "step")

    def __init__(
        self,
        schema_name: str,
        instance_id: str,
        step: str,
        attempt: int,
        now: float,
        node: str,
        rng: Any = None,
        streams: Any = None,
    ):
        self.schema_name = schema_name
        self.instance_id = instance_id
        self.step = step
        self.attempt = attempt
        self.now = now
        self.node = node
        self._rng = rng
        self._streams = streams

    @property
    def rng(self) -> Any:
        rng = self._rng
        if rng is None and self._streams is not None:
            rng = self._rng = self._streams.stream(
                program_stream_name(self.instance_id, self.step))
        return rng


class StepProgram:
    """Interface every step program implements."""

    def execute(
        self, inputs: Mapping[str, Any], ctx: ExecutionContext
    ) -> StepResult:  # pragma: no cover - interface
        raise NotImplementedError

    def compensate(self, record: StepRecord, ctx: ExecutionContext) -> None:
        """Undo a previous execution.  Effects are symbolic in the
        simulation; the default is a no-op hook."""


class NoopProgram(StepProgram):
    """Succeeds and produces a deterministic marker for each output."""

    def __init__(self, outputs: tuple[str, ...] = ()):
        self._outputs = outputs

    def execute(self, inputs: Mapping[str, Any], ctx: ExecutionContext) -> StepResult:
        return StepResult(
            success=True,
            outputs={name: f"{ctx.step}.{name}@{ctx.attempt}" for name in self._outputs},
        )


class ConstantProgram(StepProgram):
    """Always succeeds with fixed outputs (handy in unit tests)."""

    def __init__(self, outputs: Mapping[str, Any] | None = None):
        self._outputs = dict(outputs or {})

    def execute(self, inputs: Mapping[str, Any], ctx: ExecutionContext) -> StepResult:
        return StepResult(success=True, outputs=dict(self._outputs))


class FunctionProgram(StepProgram):
    """Wraps ``fn(inputs, ctx) -> dict`` as a program; exceptions fail the step."""

    def __init__(
        self,
        fn: Callable[[Mapping[str, Any], ExecutionContext], Mapping[str, Any]],
        compensate_fn: Callable[[StepRecord, ExecutionContext], None] | None = None,
    ):
        self._fn = fn
        self._compensate_fn = compensate_fn

    def execute(self, inputs: Mapping[str, Any], ctx: ExecutionContext) -> StepResult:
        try:
            outputs = self._fn(inputs, ctx)
        except Exception as exc:  # logical step failure
            return StepResult(success=False, error=str(exc))
        return StepResult(success=True, outputs=dict(outputs or {}))

    def compensate(self, record: StepRecord, ctx: ExecutionContext) -> None:
        if self._compensate_fn is not None:
            self._compensate_fn(record, ctx)


class FailEveryNth(StepProgram):
    """Fails on configured attempt numbers, then delegates.

    ``fail_attempts={1}`` yields the paper's Figure 3 scenario: the first
    execution thread fails, the re-executed thread succeeds.
    """

    def __init__(self, inner: StepProgram, fail_attempts: frozenset[int] | set[int]):
        self._inner = inner
        self._fail_attempts = frozenset(fail_attempts)

    def execute(self, inputs: Mapping[str, Any], ctx: ExecutionContext) -> StepResult:
        if ctx.attempt in self._fail_attempts:
            return StepResult(
                success=False, error=f"injected failure (attempt {ctx.attempt})"
            )
        return self._inner.execute(inputs, ctx)

    def compensate(self, record: StepRecord, ctx: ExecutionContext) -> None:
        self._inner.compensate(record, ctx)


class FailWithProbability(StepProgram):
    """Fails with probability ``pf`` per attempt (Table 3's logical-failure
    probability), drawing from the context's deterministic stream."""

    def __init__(self, inner: StepProgram, pf: float, max_failures: int | None = None):
        if not 0.0 <= pf <= 1.0:
            raise WorkloadError(f"failure probability {pf} outside [0, 1]")
        self._inner = inner
        self._pf = pf
        self._max_failures = max_failures
        self._failures: dict[tuple[str, str], int] = {}

    def execute(self, inputs: Mapping[str, Any], ctx: ExecutionContext) -> StepResult:
        key = (ctx.instance_id, ctx.step)
        failed_so_far = self._failures.get(key, 0)
        budget_ok = self._max_failures is None or failed_so_far < self._max_failures
        if budget_ok and ctx.rng is not None and ctx.rng.random() < self._pf:
            self._failures[key] = failed_so_far + 1
            return StepResult(success=False, error="probabilistic logical failure")
        return self._inner.execute(inputs, ctx)

    def compensate(self, record: StepRecord, ctx: ExecutionContext) -> None:
        self._inner.compensate(record, ctx)


class ProgramRegistry:
    """Name -> program lookup shared by every node of a control system."""

    def __init__(self) -> None:
        self._programs: dict[str, StepProgram] = {}

    def register(self, name: str, program: StepProgram) -> None:
        self._programs[name] = program

    def get(self, name: str, outputs: tuple[str, ...] = ()) -> StepProgram:
        """Resolve a program; unknown names fall back to a no-op producing
        the declared outputs (steps are black boxes — a missing program is
        a workload convenience, not an error)."""
        program = self._programs.get(name)
        if program is None:
            # Not cached: the fallback depends on the declared outputs of
            # the *step*, and several steps may share one program name.
            return NoopProgram(outputs)
        return program

    def has(self, name: str) -> bool:
        return name in self._programs
