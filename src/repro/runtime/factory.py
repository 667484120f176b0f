"""Runtime registry: resolve a backend by name without static coupling.

The engines layer must construct against :mod:`repro.runtime.protocols`
only — the AST import-layering contract forbids it from importing
``repro.sim`` — yet ``ControlSystem()`` with no arguments still has to
come up on the deterministic simulated backend.  The factory squares
that: backends register under a short name mapped to a ``"module:attr"``
target that is imported lazily on first use, so ``repro.runtime`` never
imports a concrete substrate at module load and third-party backends can
plug in with :func:`register_runtime`.

Built-ins:

``"sim"``
    :class:`repro.sim.kernel.SimRuntime` — the discrete-event kernel;
    deterministic, fault-injectable, the default everywhere.
``"asyncio"`` (alias ``"realtime"``)
    :class:`repro.runtime.realtime.RealtimeRuntime` — monotonic wall
    clock over the running asyncio loop.

Both are :class:`repro.runtime.executor.ClockRuntime` over their clock:
the same transport, the same retrying step executor, the same fault
injection.
"""

from __future__ import annotations

import importlib
from typing import Any

from repro.errors import ParameterError
from repro.runtime.protocols import Runtime

__all__ = ["available_runtimes", "build_runtime", "register_runtime"]

#: name -> "module:attr" of a Runtime class (or factory callable).
_REGISTRY: dict[str, str] = {
    "sim": "repro.sim.kernel:SimRuntime",
    "asyncio": "repro.runtime.realtime:RealtimeRuntime",
    "realtime": "repro.runtime.realtime:RealtimeRuntime",
}


def register_runtime(name: str, target: str) -> None:
    """Register (or override) a backend under ``name``.

    ``target`` is a ``"module:attr"`` string resolved lazily by
    :func:`build_runtime`; the attribute is called with the keyword
    arguments passed to ``build_runtime`` and must return an object
    satisfying :class:`repro.runtime.protocols.Runtime`.
    """
    if ":" not in target:
        raise ParameterError(
            f"runtime target must be 'module:attr', got {target!r}"
        )
    _REGISTRY[name] = target


def available_runtimes() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def build_runtime(name: str = "sim", **kwargs: Any) -> Runtime:
    """Instantiate the backend registered under ``name``.

    Keyword arguments are forwarded to the backend constructor (the
    built-ins accept ``metrics=``, ``latency=``, ``retry=`` and ``rng=``).
    """
    try:
        target = _REGISTRY[name]
    except KeyError:
        raise ParameterError(
            f"unknown runtime {name!r}; available: "
            f"{', '.join(available_runtimes())}"
        ) from None
    module_name, __, attr = target.partition(":")
    module = importlib.import_module(module_name)
    try:
        factory = getattr(module, attr)
    except AttributeError:
        raise ParameterError(
            f"runtime {name!r} target {target!r} has no attribute {attr!r}"
        ) from None
    return factory(**kwargs)
