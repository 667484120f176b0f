"""Exception hierarchy for the CREW workflow management library.

Every error raised by this package derives from :class:`CrewError` so that
callers can catch library failures with a single ``except`` clause while
still being able to discriminate the failing subsystem.
"""

from __future__ import annotations


class CrewError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SchemaError(CrewError):
    """A workflow schema is structurally malformed (bad arcs, steps, refs)."""


class ValidationError(SchemaError):
    """Schema validation rejected a complete-but-inconsistent definition."""


class CompilationError(SchemaError):
    """The schema compiler could not derive rules or navigation metadata."""


class ConditionError(CrewError):
    """A rule or arc condition failed to parse or to evaluate."""


class RuleError(CrewError):
    """The ECA rule engine was driven into an illegal state."""


class StorageError(CrewError):
    """A workflow/agent database operation failed (missing row, bad key)."""


class RecoveryError(CrewError):
    """Rollback, thread halting or compensation could not be carried out."""


class CoordinationError(CrewError):
    """A coordinated-execution requirement could not be enforced."""


class SimulationError(CrewError):
    """The discrete-event simulation kernel was misused."""


class ParameterError(SimulationError, ValueError):
    """A runtime/transport knob was configured with an illegal value.

    Doubly rooted: it *is* a :class:`ValueError` (the natural contract for
    bad constructor arguments — negative latencies, inverted bounds) while
    remaining catchable as :class:`SimulationError`/:class:`CrewError` by
    callers that treat all library failures uniformly.
    """


class WorkloadError(CrewError):
    """Workload generation received inconsistent parameters."""


class LawsSyntaxError(CrewError):
    """The LAWS specification text could not be tokenized or parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class LawsSemanticError(CrewError):
    """A parsed LAWS specification refers to undefined steps/schemas."""


class FrontEndError(CrewError):
    """An administrative request (start/abort/status) was rejected."""


class AdmissionError(FrontEndError):
    """A submission was refused by the service's admission controller.

    Carries everything an HTTP front door needs to shape the refusal:
    ``code`` is a stable machine-readable slug (``"rate-limited"``,
    ``"queue-full"``, ``"draining"``), ``status`` the suggested HTTP
    status, and ``retry_after`` the earliest sensible retry in seconds
    (``None`` when retrying is pointless, e.g. while draining).
    """

    def __init__(self, message: str, code: str, status: int = 429,
                 retry_after: float | None = None):
        super().__init__(message)
        self.code = code
        self.status = status
        self.retry_after = retry_after
