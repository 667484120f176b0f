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

The plan's one-line spec (the ``--plan`` argument of a repro line) is
declared once: ``_FIELDS`` lists each scalar key with its plan field and
bound, ``_EVENTS`` each scheduled event, both in spec order.  The plan's
checks, spec, parser and minimizer dimensions all read the two tables.

:meth:`repro.runtime.executor.ClockRuntime.install_faults` is the one
installer: it puts the injector under the
:class:`~repro.runtime.transport.Network` through its ``faults`` hook,
into the :class:`~repro.runtime.executor.TaskExecutor` for the executor
stall, and schedules the plan's crashes and recoveries on the clock (the
retransmission backoff uses the clock too).  The control system that
installs it also asks it before each program execution (``execfail``).
Under the discrete-event kernel that makes runs bit-replayable; under the
wall-clock asyncio runtime the same plan replays the *decision sequence*
deterministically (outcome-level reproducibility modulo scheduling).

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

import math
import re
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable, NamedTuple

from repro.errors import SimulationError
from repro.runtime.rng import SimRandom

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
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
        return any(self.a in ("*", x) and self.b in ("*", y)
                   for x, y in ((src, dst), (dst, src)))


def _outage(link: str, start: float, duration: float) -> Outage:
    a, __, b = link.partition("~")
    if not a or not b:
        raise SimulationError(f"bad outage link {link!r} (want a~b)")
    return Outage(a, b, start, start + duration)


def _num(value: float) -> str:
    """Shortest exact decimal for the spec string (no exponent forms)."""
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


class _Kind(NamedTuple):
    """How one scalar of the spec reads, prints and is bounded."""

    read: Callable[[str], Any]
    show: Callable[[Any], str]
    ok: Callable[[Any], bool]
    bound: str


def _at_least(floor: float) -> _Kind:
    return _Kind(float, _num, lambda v: floor <= v < math.inf,
                 f"finite and >= {_num(floor)}")


_PROBABILITY = _Kind(float, _num, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_COUNT = _Kind(int, str, lambda v: v is None or (isinstance(v, int) and v >= 0),
               "an integer >= 0")
_NAMES = _Kind(lambda text: tuple(i for i in text.split("/") if i), "/".join,
               lambda v: isinstance(v, tuple), "a tuple of interface names")

#: The spec's scalar keys, in spec order: ``(key, FaultPlan field, kind)``.
#: A new scalar key is one row here and its field on :class:`FaultPlan`.
_FIELDS = (
    ("drop", "drop_p", _PROBABILITY),
    ("dup", "dup_p", _PROBABILITY),
    ("delay", "delay_p", _PROBABILITY),
    ("reorder", "reorder_p", _PROBABILITY),
    ("execfail", "exec_fail_p", _PROBABILITY),
    ("execstall", "exec_stall_p", _PROBABILITY),
    ("delayfactor", "delay_factor", _at_least(1.0)),
    ("reorderwindow", "reorder_window", _at_least(0.0)),
    ("execstallfor", "exec_stall_s", _at_least(0.0)),
    ("droplimit", "drop_limit", _COUNT),
    ("iface", "interfaces", _NAMES),
)

#: What the chaos minimizer may zero, in spec order.
_PROBABILITIES = tuple(name for __, name, kind in _FIELDS if kind is _PROBABILITY)

#: The spec's scheduled events, in spec order: ``(key, FaultPlan field,
#: event from (target, start, duration), and back)``.
_EVENTS = (
    ("crash", "crashes", Crash, lambda e: (e.node, e.at, e.down_for)),
    ("stall", "stalls", Stall, lambda e: (e.node, e.at, e.duration)),
    ("outage", "outages", _outage,
     lambda e: (f"{e.a}~{e.b}", e.start, e.end - e.start)),
)

_EVENT_FIELDS = tuple(name for __, name, *___ in _EVENTS)
_WINDOW_RE = re.compile(r"^([^@]+)@([0-9.]+)\+([0-9.]+)$")


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
        for __, name, kind in _FIELDS:
            value = getattr(self, name)
            if not kind.ok(value):
                raise SimulationError(f"{name}={value!r} must be {kind.bound}")
        for key, name, __, window in _EVENTS:
            for event in getattr(self, name):
                __, start, duration = window(event)
                if not (0.0 <= start < math.inf and 0.0 < duration < math.inf):
                    raise SimulationError(f"{key} {event} needs a finite start "
                                          f">= 0 and a finite duration > 0")

    def targets(self, interface: str) -> bool:
        return not self.interfaces or interface in self.interfaces

    # -- serialization -------------------------------------------------------

    def to_spec(self) -> str:
        """Compact one-line spec, the ``--plan`` argument of a repro line."""
        parts = [f"{key}={kind.show(value)}" for key, name, kind in _FIELDS
                 if (value := getattr(self, name)) != getattr(_NO_FAULTS, name)]
        for key, name, __, window in _EVENTS:
            for event in getattr(self, name):
                target, start, duration = window(event)
                parts.append(f"{key}={target}@{_num(start)}+{_num(duration)}")
        return ",".join(parts) or "none"

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a :meth:`to_spec` string back into an equal plan; every
        malformed entry is a :class:`SimulationError`."""
        spec = spec.strip()
        if spec == "none":
            return cls()
        scalars = {key: (name, kind.read) for key, name, kind in _FIELDS}
        events = {key: (name, make) for key, name, make, __ in _EVENTS}
        values: dict[str, Any] = {name: () for name, __ in events.values()}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, eq, text = part.partition("=")
            key = key.strip().lower()
            if not eq:
                raise SimulationError(f"bad fault-plan entry {part!r}")
            try:
                if key in scalars:
                    name, read = scalars[key]
                    values[name] = read(text)
                elif key in events:
                    match = _WINDOW_RE.match(text.strip())
                    if match is None:
                        raise SimulationError(f"bad {key} spec {text!r} "
                                              f"(want target@start+duration)")
                    name, make = events[key]
                    values[name] += (make(match.group(1), float(match.group(2)),
                                          float(match.group(3))),)
                else:
                    raise SimulationError(f"unknown fault-plan key {key!r}")
            except ValueError:
                raise SimulationError(f"bad {key} value {text!r}") from None
        return cls(**values)

    # -- minimization --------------------------------------------------------

    def without(self, dimension: str) -> "FaultPlan":
        """A copy with one fault dimension removed (plan minimization): a
        probability, an event list, or one ``events[i]`` of a list."""
        name, bracket, index = dimension.partition("[")
        if name in _EVENT_FIELDS:
            events = list(getattr(self, name)) if bracket else []
            if bracket:
                del events[int(index[:-1])]
            return replace(self, **{name: tuple(events)})
        if name in _PROBABILITIES and not bracket:
            return replace(self, **{name: 0.0})
        raise SimulationError(f"unknown fault dimension {dimension!r}")

    def dimensions(self) -> list[str]:
        """Removable dimensions, most-impactful first (for minimization):
        every scheduled event, then every probability that is set."""
        dims = [f"{name}[{i}]" for name in _EVENT_FIELDS
                for i in range(len(getattr(self, name)))]
        return dims + [name for name in _PROBABILITIES if getattr(self, name)]


_NO_FAULTS = FaultPlan()


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

    :meth:`repro.runtime.executor.ClockRuntime.install_faults` sets
    :attr:`network`, hooks it and schedules :meth:`crash_node` and
    :meth:`recover_node` for each planned crash.  All probabilistic
    decisions come from private streams of the injector's own
    :class:`SimRandom`, so installing an injector never perturbs the
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

    # -- scheduled crashes ---------------------------------------------------

    def crash_node(self, crash: Crash) -> None:
        node = self.network.node(crash.node)
        if not node.is_up:
            return  # overlapping schedules: already down
        self.stats.crashes += 1
        self._note("crash", target=crash.node, down_for=crash.down_for)
        node.crash()

    def recover_node(self, crash: Crash) -> None:
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
        limit = plan.drop_limit
        if (plan.drop_p and (limit is None or self.stats.dropped < limit)
                and rng.random() < plan.drop_p):
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

    def _schedule_arrival(self, message: "Message", delay: float) -> None:
        simulator = self.network.simulator
        arrival = simulator.now + delay
        stalled_until = self._stall_end(message.dst, arrival)
        if stalled_until is not None:
            self.stats.stalled += 1
            delay = stalled_until - simulator.now
        simulator.schedule(delay, self.network._arrive, message)

    def _outage_heal(self, src: str, dst: str, now: float) -> float | None:
        return max((outage.end for outage in self.plan.outages
                    if outage.start <= now < outage.end
                    and outage.matches(src, dst)), default=None)

    def _stall_end(self, dst: str, arrival: float) -> float | None:
        return max((stall.at + stall.duration for stall in self.plan.stalls
                    if stall.node == dst
                    and stall.at <= arrival < stall.at + stall.duration),
                   default=None)

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


#: Simulated seconds that a random plan's crash and stall times scale to.
_HORIZON = 120.0


def random_plan(
    seed: int,
    crash_nodes: Iterable[str] = (),
    stall_nodes: Iterable[str] = (),
) -> FaultPlan:
    """A random-but-reproducible :class:`FaultPlan` for one chaos run.

    Light message faults, plus one crash of a ``crash_nodes`` member and
    one stall of a ``stall_nodes`` member (none from an empty pool).  All
    draws come from the ``"plan"`` stream of a :class:`SimRandom` seeded
    with ``seed``, so the plan — and therefore the whole run — replays
    from the seed alone.
    """
    rng = SimRandom(seed).stream("plan")
    crash_pool = sorted(crash_nodes)
    stall_pool = sorted(stall_nodes)
    crashes = stalls = ()
    if crash_pool:
        crashes = (Crash(
            node=rng.choice(crash_pool),
            at=round(rng.uniform(0.15, 0.6) * _HORIZON, 2),
            down_for=round(rng.uniform(0.05, 0.25) * _HORIZON, 2),
        ),)
    if stall_pool:
        stalls = (Stall(
            node=rng.choice(stall_pool),
            at=round(rng.uniform(0.1, 0.7) * _HORIZON, 2),
            duration=round(rng.uniform(0.02, 0.1) * _HORIZON, 2),
        ),)
    return FaultPlan(drop_p=0.05, dup_p=0.03, delay_p=0.05, reorder_p=0.05,
                     crashes=crashes, stalls=stalls)
