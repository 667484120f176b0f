"""Deterministic fault injection over the runtime transport/executor seams.

The transport in :mod:`repro.runtime.transport` is *reliable* — the paper
assumes persistent message queues — so the protocols above it are only
ever exercised against scripted failures.  This module adds a seeded
fault layer underneath that reliability contract: a :class:`FaultPlan`
describes *what* can go wrong (message drop / duplication / delay spikes /
reordering, link outages, node crash+restart, node stalls, executor
failures) and a :class:`FaultInjector` makes it happen deterministically,
drawing every decision from dedicated :class:`~repro.runtime.rng.SimRandom`
streams so any simulated run is bit-reproducible from ``(seed, plan)``.

:meth:`repro.runtime.executor.ClockRuntime.install_faults` puts the
injector in three places: on the clock (``arm`` and the retransmission
backoff use ``schedule`` / ``schedule_at``), under the
:class:`~repro.runtime.transport.Network` through its ``faults`` hook,
and into the :class:`~repro.runtime.executor.TaskExecutor` for the
executor stall.  The control system that installs it also asks it
before each program execution (``execfail``).  Under the discrete-event
kernel that makes runs bit-replayable; under the wall-clock asyncio runtime the same plan
replays the *decision sequence* deterministically (outcome-level
reproducibility modulo scheduling).

Layering: ``runtime`` cannot import ``engines``, so the retransmission
backoff policy is duck-typed — any object with ``backoff(attempt, rng) ->
float | None`` works (``None`` means the per-message retry budget is
exhausted and the message is permanently lost).  The concrete policy
lives in :mod:`repro.runtime.retry` and is wired in by
``ControlSystem.inject_faults``.

Injected semantics:

* **drop** — the transport loses the message; the injector retransmits it
  after a seeded jittered backoff (each retransmission re-enters the fault
  pipeline and can be dropped again).  Budget exhaustion records the
  message in :attr:`FaultInjector.lost`.
* **duplicate** — the message is delivered twice; the receiver-side dedup
  in :meth:`FaultInjector.suppress` keeps redelivery idempotent.
* **delay** — the delivery latency is multiplied by ``delay_factor``.
* **reorder** — extra uniform jitter breaks FIFO ordering between a pair.
* **outage** — messages crossing a cut link are held and delivered when
  the window heals (in send order).
* **crash** — the node crashes at ``at`` and recovers ``down_for`` later
  (recovery replays its WAL-backed stores and drains parked messages).
* **stall** — deliveries *to* the node landing inside the window are
  deferred to the window's end (a paused step agent).
* **exec-fail** — ``exec_fail_p`` fails one program execution: the
  step's program does not run and the step fails, so the engine's
  ``step.fail`` → rollback point → compensation → re-execution path
  handles it, as the paper handles any failed step
  (:meth:`repro.engines.base.ControlSystem.execute_program`).
  Compensation is never failed.
* **exec-stall** — the step executor of both runtimes
  (:class:`~repro.runtime.executor.TaskExecutor`) adds ``exec_stall_s``
  to a submission's service time with probability ``exec_stall_p`` (a
  slow worker).  On the simulator both replay bit for bit too.

Crashes also kill a node's deferred continuations: when a fault injector
is installed, :meth:`repro.runtime.node.Node.schedule_causal` guards every
deferred callback with the scheduling node's crash epoch, so work a node
deferred across simulated time dies with the crash instead of running on
a "down" node.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.errors import SimulationError
from repro.runtime.rng import SimRandom

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.eventqueue import EventQueue
    from repro.runtime.transport import Message, Network

__all__ = [
    "Crash",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "Outage",
    "Stall",
    "random_plan",
]


@dataclass(frozen=True)
class Crash:
    """Crash ``node`` at time ``at``; recover ``down_for`` later."""

    node: str
    at: float
    down_for: float


@dataclass(frozen=True)
class Stall:
    """Defer deliveries to ``node`` landing in ``[at, at + duration)``."""

    node: str
    at: float
    duration: float


@dataclass(frozen=True)
class Outage:
    """Cut the (bidirectional) link between ``a`` and ``b`` for a window.

    Either endpoint may be ``"*"`` (any node), so ``Outage("agent-001",
    "*", 10, 30)`` partitions one node away from the rest of the system.
    """

    a: str
    b: str
    start: float
    end: float

    def matches(self, src: str, dst: str) -> bool:
        def side(x: str, name: str) -> bool:
            return x == "*" or x == name

        return (side(self.a, src) and side(self.b, dst)) or (
            side(self.a, dst) and side(self.b, src)
        )


_CRASH_RE = re.compile(r"^([^@]+)@([0-9.]+)\+([0-9.]+)$")
_OUTAGE_RE = re.compile(r"^([^~]+)~([^@]+)@([0-9.]+)\+([0-9.]+)$")


def _num(value: float) -> str:
    """Shortest exact decimal for the spec string (no exponent forms)."""
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


@dataclass(frozen=True)
class FaultPlan:
    """A complete, serializable description of one fault schedule.

    Probabilities apply per message (re-drawn on each retransmission);
    scheduled faults (crashes, stalls, outages) are explicit events.  When
    ``interfaces`` is non-empty, the probabilistic faults only touch
    messages with those interface names — targeted protocol tests use this
    to lose e.g. only ``WorkflowStatusProbeReport`` messages.  ``drop_limit``
    caps the *total* number of drops across the run (``None`` = unlimited),
    which makes "lose exactly the first such message" tests deterministic.

    ``exec_fail_p`` applies per program execution and ``exec_stall_p``
    per executor submission, on either runtime.
    """

    drop_p: float = 0.0
    dup_p: float = 0.0
    delay_p: float = 0.0
    delay_factor: float = 4.0
    reorder_p: float = 0.0
    reorder_window: float = 2.0
    drop_limit: int | None = None
    interfaces: tuple[str, ...] = ()
    crashes: tuple[Crash, ...] = ()
    stalls: tuple[Stall, ...] = ()
    outages: tuple[Outage, ...] = ()
    exec_fail_p: float = 0.0
    exec_stall_p: float = 0.0
    exec_stall_s: float = 0.5

    def __post_init__(self) -> None:
        for name in ("drop_p", "dup_p", "delay_p", "reorder_p",
                     "exec_fail_p", "exec_stall_p"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SimulationError(f"{name}={value} must be in [0, 1]")
        if self.delay_factor < 1.0:
            raise SimulationError("delay_factor must be >= 1")
        if self.reorder_window < 0.0:
            raise SimulationError("reorder_window must be >= 0")
        if self.exec_stall_s < 0.0:
            raise SimulationError("exec_stall_s must be >= 0")
        for crash in self.crashes:
            if crash.down_for <= 0:
                raise SimulationError(f"crash of {crash.node!r} needs down_for > 0")
        for outage in self.outages:
            if outage.end <= outage.start:
                raise SimulationError("outage window must have end > start")

    # -- predicates ----------------------------------------------------------

    @property
    def is_noop(self) -> bool:
        return self == FaultPlan()

    def targets(self, interface: str) -> bool:
        return not self.interfaces or interface in self.interfaces

    # -- serialization -------------------------------------------------------

    def to_spec(self) -> str:
        """Compact one-line spec, the ``--plan`` argument of a repro line."""
        parts: list[str] = []
        defaults = FaultPlan()
        for key, name in (("drop_p", "drop"), ("dup_p", "dup"),
                          ("delay_p", "delay"), ("reorder_p", "reorder"),
                          ("exec_fail_p", "execfail"),
                          ("exec_stall_p", "execstall")):
            value = getattr(self, key)
            if value != getattr(defaults, key):
                parts.append(f"{name}={_num(value)}")
        if self.delay_factor != defaults.delay_factor:
            parts.append(f"delayfactor={_num(self.delay_factor)}")
        if self.reorder_window != defaults.reorder_window:
            parts.append(f"reorderwindow={_num(self.reorder_window)}")
        if self.exec_stall_s != defaults.exec_stall_s:
            parts.append(f"execstallfor={_num(self.exec_stall_s)}")
        if self.drop_limit is not None:
            parts.append(f"droplimit={self.drop_limit}")
        if self.interfaces:
            parts.append("iface=" + "/".join(self.interfaces))
        for crash in self.crashes:
            parts.append(f"crash={crash.node}@{_num(crash.at)}+{_num(crash.down_for)}")
        for stall in self.stalls:
            parts.append(f"stall={stall.node}@{_num(stall.at)}+{_num(stall.duration)}")
        for outage in self.outages:
            parts.append(
                f"outage={outage.a}~{outage.b}@{_num(outage.start)}"
                f"+{_num(outage.end - outage.start)}"
            )
        return ",".join(parts) or "none"

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a :meth:`to_spec` string back into an equal plan."""
        spec = spec.strip()
        if not spec or spec == "none":
            return cls()
        scalars: dict[str, Any] = {}
        crashes: list[Crash] = []
        stalls: list[Stall] = []
        outages: list[Outage] = []
        keymap = {"drop": "drop_p", "dup": "dup_p", "delay": "delay_p",
                  "reorder": "reorder_p", "delayfactor": "delay_factor",
                  "reorderwindow": "reorder_window",
                  "execfail": "exec_fail_p", "execstall": "exec_stall_p",
                  "execstallfor": "exec_stall_s"}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise SimulationError(f"bad fault-plan entry {part!r}")
            key, __, value = part.partition("=")
            key = key.strip().lower()
            if key in keymap:
                scalars[keymap[key]] = float(value)
            elif key == "droplimit":
                scalars["drop_limit"] = int(value)
            elif key == "iface":
                scalars["interfaces"] = tuple(
                    i for i in value.split("/") if i
                )
            elif key in ("crash", "stall"):
                match = _CRASH_RE.match(value.strip())
                if match is None:
                    raise SimulationError(
                        f"bad {key} spec {value!r} (want node@at+duration)"
                    )
                node, at, duration = match.group(1), float(match.group(2)), float(
                    match.group(3)
                )
                if key == "crash":
                    crashes.append(Crash(node, at, duration))
                else:
                    stalls.append(Stall(node, at, duration))
            elif key == "outage":
                match = _OUTAGE_RE.match(value.strip())
                if match is None:
                    raise SimulationError(
                        f"bad outage spec {value!r} (want a~b@start+duration)"
                    )
                start = float(match.group(3))
                outages.append(Outage(match.group(1), match.group(2), start,
                                      start + float(match.group(4))))
            else:
                raise SimulationError(f"unknown fault-plan key {key!r}")
        return cls(crashes=tuple(crashes), stalls=tuple(stalls),
                   outages=tuple(outages), **scalars)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form for chaos artifacts."""
        return {
            "spec": self.to_spec(),
            "drop_p": self.drop_p, "dup_p": self.dup_p,
            "delay_p": self.delay_p, "delay_factor": self.delay_factor,
            "reorder_p": self.reorder_p, "reorder_window": self.reorder_window,
            "drop_limit": self.drop_limit,
            "interfaces": list(self.interfaces),
            "crashes": [vars(c) for c in self.crashes],
            "stalls": [vars(s) for s in self.stalls],
            "outages": [vars(o) for o in self.outages],
            "exec_fail_p": self.exec_fail_p,
            "exec_stall_p": self.exec_stall_p,
            "exec_stall_s": self.exec_stall_s,
        }

    def without(self, dimension: str) -> "FaultPlan":
        """A copy with one fault dimension removed (plan minimization)."""
        if dimension in ("drop_p", "dup_p", "delay_p", "reorder_p",
                         "exec_fail_p", "exec_stall_p"):
            return replace(self, **{dimension: 0.0})
        if dimension in ("crashes", "stalls", "outages"):
            return replace(self, **{dimension: ()})
        if dimension.startswith(("crashes[", "stalls[", "outages[")):
            name, index = dimension[:-1].split("[")
            events = list(getattr(self, name))
            del events[int(index)]
            return replace(self, **{name: tuple(events)})
        raise SimulationError(f"unknown fault dimension {dimension!r}")

    def dimensions(self) -> list[str]:
        """Removable dimensions, most-impactful first (for minimization)."""
        dims: list[str] = []
        for name in ("crashes", "stalls", "outages"):
            dims.extend(f"{name}[{i}]" for i in range(len(getattr(self, name))))
        for name in ("drop_p", "dup_p", "delay_p", "reorder_p",
                     "exec_fail_p", "exec_stall_p"):
            if getattr(self, name):
                dims.append(name)
        return dims


@dataclass
class FaultStats:
    """Counters for every fault decision one injector made."""

    dropped: int = 0
    lost: int = 0
    retransmits: int = 0
    duplicated: int = 0
    suppressed: int = 0
    delayed: int = 0
    reordered: int = 0
    held: int = 0
    stalled: int = 0
    crashes: int = 0
    recoveries: int = 0
    dead_continuations: int = 0
    exec_failures: int = 0
    exec_stalls: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class FaultInjector:
    """Deterministic executor of one :class:`FaultPlan` over one network.

    ``install`` hooks the network (``network.faults = self``); ``arm``
    schedules the plan's crash/recovery events on the clock.  All
    probabilistic decisions come from private streams of the injector's
    own :class:`SimRandom`, so installing an injector never perturbs the
    draws of the system under test.
    """

    def __init__(self, plan: FaultPlan, rng: SimRandom, retry: Any = None):
        self.plan = plan
        self.retry = retry
        self._msg_rng = rng.stream("faults:messages")
        self._retry_rng = rng.stream("faults:retry")
        self._exec_rng = rng.stream("faults:executor")
        self.stats = FaultStats()
        self.network: "Network | None" = None
        self.lost: list["Message"] = []
        #: Optional hook ``fn(time, kind, **detail)`` — the owning control
        #: system points this at ``trace.record`` so fault decisions land in
        #: the causal trace next to the protocol events they perturb.
        self.on_fault = None
        self._delivered: set[int] = set()
        self._drops_used = 0

    # -- wiring --------------------------------------------------------------

    def install(self, network: "Network") -> "FaultInjector":
        if network.faults is not None:
            raise SimulationError("network already has a fault injector")
        network.faults = self
        self.network = network
        return self

    def arm(self, simulator: "EventQueue") -> None:
        """Schedule the plan's crash and recovery events."""
        for crash in self.plan.crashes:
            simulator.schedule_at(crash.at, self._crash_node, crash)
            simulator.schedule_at(
                crash.at + crash.down_for, self._recover_node, crash
            )

    def _crash_node(self, crash: Crash) -> None:
        node = self.network.node(crash.node)
        if not node.is_up:
            return  # overlapping schedules: already down
        self.stats.crashes += 1
        self._note("crash", target=crash.node, down_for=crash.down_for)
        node.crash()

    def _recover_node(self, crash: Crash) -> None:
        node = self.network.node(crash.node)
        if node.is_up:
            return
        self.stats.recoveries += 1
        self._note("recover", target=crash.node)
        node.recover()

    # -- the fault pipeline --------------------------------------------------

    def dispatch(self, message: "Message", delay: float, attempt: int = 1) -> None:
        """Route one send through the fault pipeline (Network.send hook)."""
        plan = self.plan
        simulator = self.network.simulator
        if not plan.targets(message.interface):
            self._schedule_arrival(message, delay)
            return
        now = simulator.now
        heal = self._outage_heal(message.src, message.dst, now)
        if heal is not None:
            # Held until the partition heals; same-delay messages then land
            # in send order (schedule insertion order breaks the tie).
            self.stats.held += 1
            self._note("outage.hold", msg=message.msg_id, src=message.src,
                       dst=message.dst, until=heal)
            self._schedule_arrival(message, (heal - now) + delay)
            return
        rng = self._msg_rng
        if plan.drop_p and self._may_drop() and rng.random() < plan.drop_p:
            self._drops_used += 1
            self.stats.dropped += 1
            backoff = (self.retry.backoff(attempt, self._retry_rng)
                       if self.retry is not None else None)
            if backoff is None:
                self.stats.lost += 1
                self.lost.append(message)
                self._note("lost", msg=message.msg_id, src=message.src,
                           dst=message.dst, interface=message.interface,
                           attempts=attempt)
                return
            self.stats.retransmits += 1
            self._note("drop", msg=message.msg_id, src=message.src,
                       dst=message.dst, interface=message.interface,
                       attempt=attempt, backoff=round(backoff, 4))
            simulator.schedule(backoff, self.dispatch, message, delay, attempt + 1)
            return
        if plan.dup_p and rng.random() < plan.dup_p:
            self.stats.duplicated += 1
            self._note("duplicate", msg=message.msg_id, dst=message.dst)
            self._schedule_arrival(message, delay)
        if plan.delay_p and rng.random() < plan.delay_p:
            self.stats.delayed += 1
            delay *= plan.delay_factor
        if plan.reorder_p and rng.random() < plan.reorder_p:
            self.stats.reordered += 1
            delay += rng.uniform(0.0, plan.reorder_window)
        self._schedule_arrival(message, delay)

    def _may_drop(self) -> bool:
        limit = self.plan.drop_limit
        return limit is None or self._drops_used < limit

    def _schedule_arrival(self, message: "Message", delay: float) -> None:
        simulator = self.network.simulator
        arrival = simulator.now + delay
        stalled_until = self._stall_end(message.dst, arrival)
        if stalled_until is not None:
            self.stats.stalled += 1
            delay = stalled_until - simulator.now
        simulator.schedule(delay, self.network._arrive, message)

    def _outage_heal(self, src: str, dst: str, now: float) -> float | None:
        heal: float | None = None
        for outage in self.plan.outages:
            if outage.start <= now < outage.end and outage.matches(src, dst):
                heal = outage.end if heal is None else max(heal, outage.end)
        return heal

    def _stall_end(self, dst: str, arrival: float) -> float | None:
        end: float | None = None
        for stall in self.plan.stalls:
            if stall.node == dst and stall.at <= arrival < stall.at + stall.duration:
                stop = stall.at + stall.duration
                end = stop if end is None else max(end, stop)
        return end

    # -- executor hooks ------------------------------------------------------

    def executor_stall(self, name: str) -> float:
        """Extra service time for one executor submission (0.0 = none)."""
        plan = self.plan
        if not plan.exec_stall_p or self._exec_rng.random() >= plan.exec_stall_p:
            return 0.0
        self.stats.exec_stalls += 1
        self._note("exec.stall", target=name, duration=plan.exec_stall_s)
        return plan.exec_stall_s

    def executor_should_fail(self, node: str, instance: str, step: str) -> bool:
        """Whether this program execution fails instead of running.

        Drawn per execution, so a step re-executed after its rollback can
        fail again; the engine's recovery decides what happens next.
        """
        plan = self.plan
        if not plan.exec_fail_p or self._exec_rng.random() >= plan.exec_fail_p:
            return False
        self.stats.exec_failures += 1
        self._note("exec.fail", target=node, instance=instance, step=step)
        return True

    # -- delivery-side hooks -------------------------------------------------

    def suppress(self, message: "Message") -> bool:
        """Duplicate-delivery guard: True when this copy must be dropped."""
        msg_id = message.msg_id
        if msg_id in self._delivered:
            self.stats.suppressed += 1
            self._note("dedup", msg=msg_id, dst=message.dst)
            return True
        self._delivered.add(msg_id)
        return False

    def on_dead_continuation(self, node_name: str) -> None:
        """A crashed node's deferred callback was discarded (volatile work)."""
        self.stats.dead_continuations += 1
        self._note("continuation.dead", target=node_name)

    def _note(self, kind: str, **detail: Any) -> None:
        if self.on_fault is not None:
            self.on_fault(self.network.simulator.now, kind, **detail)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultInjector plan={self.plan.to_spec()!r} {self.stats}>"


def random_plan(
    seed: int,
    crash_nodes: Iterable[str] = (),
    stall_nodes: Iterable[str] = (),
    horizon: float = 120.0,
    profile: Mapping[str, float] | None = None,
) -> FaultPlan:
    """A random-but-reproducible :class:`FaultPlan` for one chaos run.

    ``profile`` overrides the default fault intensities (keys: ``drop_p``,
    ``dup_p``, ``delay_p``, ``reorder_p``, ``crashes``, ``stalls``,
    ``outages``).  All draws come from the ``"plan"`` stream of a
    :class:`SimRandom` seeded with ``seed``, so the plan — and therefore
    the whole run — replays from the seed alone.
    """
    knobs = {"drop_p": 0.05, "dup_p": 0.03, "delay_p": 0.05,
             "reorder_p": 0.05, "crashes": 1, "stalls": 1, "outages": 0}
    if profile:
        knobs.update(profile)
    rng = SimRandom(seed).stream("plan")
    crash_pool = sorted(crash_nodes)
    stall_pool = sorted(stall_nodes)
    crashes = []
    if crash_pool:
        for __ in range(int(knobs["crashes"])):
            crashes.append(Crash(
                node=rng.choice(crash_pool),
                at=round(rng.uniform(0.15, 0.6) * horizon, 2),
                down_for=round(rng.uniform(0.05, 0.25) * horizon, 2),
            ))
    stalls = []
    if stall_pool:
        for __ in range(int(knobs["stalls"])):
            stalls.append(Stall(
                node=rng.choice(stall_pool),
                at=round(rng.uniform(0.1, 0.7) * horizon, 2),
                duration=round(rng.uniform(0.02, 0.1) * horizon, 2),
            ))
    outages = []
    pool = stall_pool or crash_pool
    if pool:
        for __ in range(int(knobs["outages"])):
            start = round(rng.uniform(0.1, 0.6) * horizon, 2)
            outages.append(Outage(
                a=rng.choice(pool), b="*", start=start,
                end=start + round(rng.uniform(0.05, 0.2) * horizon, 2),
            ))
    return FaultPlan(
        drop_p=knobs["drop_p"], dup_p=knobs["dup_p"], delay_p=knobs["delay_p"],
        reorder_p=knobs["reorder_p"], crashes=tuple(crashes),
        stalls=tuple(stalls), outages=tuple(outages),
    )
