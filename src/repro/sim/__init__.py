"""Discrete-event simulation substrate for the CREW reproduction.

The paper's prototype ran on real networked nodes; this package provides
the deterministic stand-in, as the ``"sim"`` backend of the pluggable
runtime layer (:mod:`repro.runtime`): the DES kernel
(:mod:`repro.sim.kernel`) implements the ``Clock`` protocol and
:class:`~repro.sim.runtime.SimRuntime` bundles it with the shared
clock-agnostic transport.  Everything runtime-neutral — transport, nodes,
metrics, seeded streams, trace log, fault injection — lives in
:mod:`repro.runtime`.
"""

from repro.sim.kernel import EventHandle, Simulator
from repro.sim.runtime import SimRuntime

__all__ = ["EventHandle", "SimRuntime", "Simulator"]
