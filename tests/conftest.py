"""Shared fixtures and schema factories for the test suite."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.programs import FunctionProgram, NoopProgram
from repro.engines import (
    CentralizedControlSystem,
    DistributedControlSystem,
    ParallelControlSystem,
    SystemConfig,
)
from repro.model import SchemaBuilder


def linear_schema(name="Linear", steps=3, outputs=True):
    """S1 -> S2 -> ... -> Sn, each consuming the previous step's output."""
    builder = SchemaBuilder(name, inputs=["x"])
    previous = None
    for index in range(1, steps + 1):
        step = f"S{index}"
        ins = ["WF.x"] if previous is None else [f"{previous}.out"]
        builder.step(step, program=f"{name}.{step}", inputs=ins, outputs=["out"])
        if previous is not None:
            builder.arc(previous, step)
        previous = step
    if outputs:
        builder.output("result", f"{previous}.out")
    return builder.build()


def branching_schema(name="Branchy", fail_s4_attempts=frozenset({1})):
    """The Figure-3 shape: XOR branch, rollback point, branch flip on retry."""
    builder = SchemaBuilder(name, inputs=["load"])
    builder.step("S1", program=f"{name}.S1", inputs=["WF.load"], outputs=["x"])
    builder.step("S2", program=f"{name}.S2", inputs=["S1.x"], outputs=["route"])
    builder.step("S3", program=f"{name}.S3", outputs=["t"])
    builder.step("S4", program=f"{name}.S4", inputs=["S3.t"], outputs=["y"])
    builder.step("S5", program=f"{name}.S5", outputs=["y"])
    builder.step("S6", program=f"{name}.S6", join="xor", outputs=["res"])
    builder.arc("S1", "S2")
    builder.branch("S2", [("S3", "S2.route == 'top'")], otherwise="S5")
    builder.arc("S3", "S4")
    builder.arc("S4", "S6")
    builder.arc("S5", "S6")
    builder.rollback_point("S4", "S2")
    builder.output("result", "S6.res")
    return builder.build()


def parallel_schema(name="Fanout"):
    """Start -> (A, B in parallel) -> AND-join -> terminal."""
    builder = SchemaBuilder(name, inputs=["x"])
    builder.step("Start", program=f"{name}.Start", inputs=["WF.x"], outputs=["o"])
    builder.step("A", program=f"{name}.A", inputs=["Start.o"], outputs=["o"])
    builder.step("B", program=f"{name}.B", inputs=["Start.o"], outputs=["o"])
    builder.step("End", program=f"{name}.End", join="and",
                 inputs=["A.o", "B.o"], outputs=["res"])
    builder.parallel("Start", ["A", "B"])
    builder.join("End", ["A", "B"], kind="and")
    builder.output("result", "End.res")
    return builder.build()


def register_programs(system, schema, behaviors=None):
    """Register NoopPrograms (or supplied behaviors) for a schema's steps."""
    behaviors = behaviors or {}
    for step in schema.steps.values():
        program = behaviors.get(step.name)
        if program is None:
            program = NoopProgram(step.outputs)
        system.register_program(step.program, program)


def make_system(architecture, seed=0, **kwargs):
    """Instantiate one of the three control systems with small defaults."""
    config = kwargs.pop("config", None) or SystemConfig(seed=seed)
    if architecture == "centralized":
        return CentralizedControlSystem(
            config, num_agents=kwargs.pop("num_agents", 4),
            agents_per_step=kwargs.pop("agents_per_step", 1),
        )
    if architecture == "parallel":
        return ParallelControlSystem(
            config, num_engines=kwargs.pop("num_engines", 2),
            num_agents=kwargs.pop("num_agents", 4),
            agents_per_step=kwargs.pop("agents_per_step", 1),
        )
    if architecture == "distributed":
        return DistributedControlSystem(
            config, num_agents=kwargs.pop("num_agents", 6),
            agents_per_step=kwargs.pop("agents_per_step", 1),
        )
    raise ValueError(architecture)


ALL_ARCHITECTURES = ("centralized", "parallel", "distributed")

#: The shipped LAWS example: ``Orders`` plus the ``part_fifo`` ordering spec.
ORDERS_LAWS = Path(__file__).resolve().parent.parent / "examples" / "order_fulfilment.laws"


#: ``install_orders`` makes ``ord.reserve`` refuse this quantity: ``Reserve``
#: has no rollback point, so the instance aborts as an unhandled failure.
REFUSED_QTY = 13


def _reserve(inputs, ctx):
    if inputs["Check.ok"] == REFUSED_QTY:
        raise ValueError("out of stock")
    return {"rsv": ctx.instance_id}


def install_orders(system):
    """The shipped ``Orders`` document, with programs that abort an
    instance submitted with ``qty=REFUSED_QTY``; returns the document."""
    from repro.laws import load_laws

    document = load_laws(ORDERS_LAWS.read_text())
    document.install(system)
    system.register_program(
        "ord.check", FunctionProgram(lambda inputs, ctx: {"ok": inputs["WF.qty"]}))
    system.register_program("ord.reserve", FunctionProgram(_reserve))
    return document


def agent_holdings(agent) -> dict[str, set[str]]:
    """Every per-instance map of a distributed agent: name -> instance ids."""
    held = {
        "runtimes": set(agent.runtimes),
        "trackers": set(agent.trackers),
        "fragments": set(agent.agdb._fragments),
        "log chains": set(agent.agdb._chains._chains),
        "tracker records": set(agent.agdb._trackers) | set(agent.agdb._tracker_lsns),
        "probe reports": set(agent._probe_reports),
        "seen probes": set(agent._seen_status_probes),
    }
    for name, authority in agent.authorities.ro.items():
        held[f"ro {name}"] = set(authority._registrations) | set(authority._completions)
    for name, authority in agent.authorities.mx.items():
        held[f"mx {name}"] = {holder for __, holder in authority._holders.values()}
    for name, authority in agent.authorities.rd.items():
        held[f"rd {name}"] = set(authority._targets)
    return held


@pytest.fixture(params=ALL_ARCHITECTURES)
def any_system(request):
    """A fresh control system of each architecture in turn."""
    return make_system(request.param, seed=1)
