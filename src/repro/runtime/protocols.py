"""Runtime protocols: what an execution substrate must provide.

The engines in :mod:`repro.engines` are defined by the paper's protocols
(navigation, commit, halting, OCR) — not by the discrete-event kernel the
reproduction happens to test them on.  This module pins down the three
seams between an engine and the substrate it runs on:

``Clock``
    Time and deferred callbacks: ``now``, ``schedule`` / ``schedule_at``
    returning a :class:`Cancellable` handle.  The simulated clock
    (:class:`repro.sim.kernel.Simulator`) advances virtual time through a
    deterministic event heap; the realtime clock
    (:class:`repro.runtime.realtime.RealtimeClock`) fires the same heap
    against a monotonic wall clock from the asyncio event loop.

``Transport``
    Named-node messaging with latency and fault hooks: ``register`` /
    ``send`` / ``flush_parked``, plus the duck-typed observability
    attachment points (``registry``, ``causal``, ``flight_factory``,
    ``faults``, ``profile``).  The shared in-process implementation is
    :class:`repro.runtime.transport.Network`, which is clock-agnostic: it
    delivers over whatever ``Clock`` it is constructed with.

``Executor``
    Step-program execution: ``submit(delay, fn, *args)`` runs ``fn`` after
    ``delay`` units of service time.  Under simulation this is exactly a
    clock callback (keeping fixed-seed schedules byte-identical); under
    asyncio it is a clock entry too, with :class:`repro.runtime.retry.
    RetryPolicy` wrapping transient failures.

A :class:`Runtime` bundles one of each plus lifecycle extras (fault
injection, quiescence).  Engines receive a ``Runtime`` and never name a
concrete substrate; the AST import-layering contract
(``tests/test_import_contract.py``) enforces that ``repro.engines.*``
imports ``repro.runtime`` but never ``repro.sim``.

All protocols are structural (:class:`typing.Protocol`): the simulator
predates this layer and conforms without inheriting from it.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Protocol, runtime_checkable

__all__ = ["Cancellable", "Clock", "Executor", "Runtime", "Transport"]


@runtime_checkable
class Cancellable(Protocol):
    """A handle to scheduled work that can be revoked before it fires."""

    cancelled: bool

    def cancel(self) -> None:
        """Prevent the work from running.  Idempotent."""


@runtime_checkable
class Clock(Protocol):
    """Time source plus deferred-callback scheduling.

    ``now`` is monotonic within one run.  Simulated clocks start at 0.0
    and advance only when events fire; wall clocks report seconds since
    the runtime started.  Events scheduled for the same instant fire in
    scheduling order.
    """

    @property
    def now(self) -> float:
        """Current time in runtime units (simulated units or seconds)."""
        ...

    def schedule(
        self, delay: float, action: Callable[..., Any], *args: Any
    ) -> Cancellable:
        """Run ``action(*args)`` ``delay`` time units from now."""
        ...

    def schedule_at(
        self, time: float, action: Callable[..., Any], *args: Any
    ) -> Cancellable:
        """Run ``action(*args)`` at absolute clock time ``time``."""
        ...

    @property
    def pending(self) -> int:
        """Number of scheduled-but-unfired callbacks (quiescence probe)."""
        ...


@runtime_checkable
class Transport(Protocol):
    """Named-node messaging with latency modelling and fault hooks."""

    def register(self, node: Any) -> None:
        """Attach a node under its unique name."""
        ...

    def node(self, name: str) -> Any:
        """Look up a registered node."""
        ...

    def node_names(self) -> list[str]:
        """All registered node names, sorted."""
        ...

    def is_up(self, name: str) -> bool:
        """Whether a node can currently process messages."""
        ...

    def send(
        self,
        src: str,
        dst: str,
        interface: str,
        payload: Mapping[str, Any],
        mechanism: Any,
        src_node: Any = None,
    ) -> Any:
        """Send one physical message; returns the in-flight message."""
        ...

    def flush_parked(self, name: str) -> int:
        """Deliver messages parked while ``name`` was down."""
        ...

    def parked_count(self, name: str) -> int:
        """Messages currently parked for a down node."""
        ...


@runtime_checkable
class Executor(Protocol):
    """Deferred step-program execution on behalf of a node.

    ``submit`` runs ``fn(*args)`` after ``delay`` units of *service time*
    — the simulated cost of a step program, or a real sleep under the
    wall clock.  Implementations return a :class:`Cancellable` (or a
    task handle exposing ``cancel``); callers that only fire-and-forget
    may ignore it.
    """

    def submit(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> Any:
        """Run ``fn(*args)`` after ``delay`` units of service time."""
        ...


@runtime_checkable
class Runtime(Protocol):
    """One execution substrate: a clock, a transport and an executor.

    ``name`` identifies the backend (``"sim"``, ``"asyncio"``) in logs and
    benchmark metadata.  ``install_faults`` wires a deterministic fault
    injector under the transport where the backend supports it (the
    simulated runtime does; wall-clock backends may raise).
    """

    name: str
    clock: Clock
    transport: Transport
    executor: Executor

    def supports_faults(self) -> bool:
        """Whether :meth:`install_faults` is available on this backend."""
        ...

    def install_faults(self, plan: Any, rng: Any, retry: Any) -> Any:
        """Install a deterministic fault injector; returns it."""
        ...
