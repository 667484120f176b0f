"""Discrete-event simulation substrate for the CREW reproduction.

The paper's prototype ran on real networked nodes; this package provides
the deterministic stand-in: the DES kernel (:mod:`repro.sim.kernel`)
fires the shared :class:`~repro.runtime.eventqueue.EventQueue` on
virtual time, and :class:`~repro.sim.kernel.SimRuntime` bundles it with
the clock-agnostic transport and the one step executor.  It is the
runtime every control system builds when it is given none.  Everything
runtime-neutral — transport, executor, nodes, metrics, seeded streams,
trace log, fault injection — lives in :mod:`repro.runtime`.
"""

from repro.sim.kernel import EventHandle, SimRuntime, Simulator

__all__ = ["EventHandle", "SimRuntime", "Simulator"]
