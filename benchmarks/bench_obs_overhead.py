"""Observability overhead guards: the tracing-disabled path must stay
cheap, and the enabled path must cost what it records.

The transport is designed so that with no observer (a bare network) the
per-message cost of observability is the Lamport bookkeeping plus one
``is None`` check at each end of the message (see
:mod:`repro.runtime.node`).  This benchmark pins that promise down: a
two-node ping-pong message loop runs once on the current transport stack
with *no* observer (the tracing-disabled no-op path) and once on a
seed-equivalent stack whose ``send``/``receive`` bodies predate the
instrumentation entirely.  The no-op path must add **less than 5%**
wall-clock overhead to the message loop.

The second case runs the same loop on the network of a traced
``ControlSystem``, which observes it, with the ``Profiler`` sampler
started over the run, against the disabled path.  Per physical message
that is the observer's two calls — two flight-recorder notes, two
message spans and a receive count; the sampler puts nothing on the
message path and costs one ``SIGPROF`` handler run per tick of process
CPU time.  The enabled/disabled ratio must stay under
``ENABLED_RATIO_BOUND``.  The system's queue-depth ``event_hook`` is left
off: it samples the clock on every event, not the message path.

Timing uses the min-of-N estimator with interleaved variants, which is
robust against one-sided scheduler noise; the pytest-benchmark fixture
times the instrumented loop so the result lands in the ``--benchmark-json``
output stamped with the same provenance as the other bench files.
"""

import time
from contextlib import nullcontext

import pytest

from repro.engines.base import ControlSystem
from repro.obs import Profiler
from repro.runtime.latency import FixedLatency
from repro.runtime.messages import Message
from repro.runtime.metrics import Mechanism
from repro.runtime.node import Node
from repro.runtime.transport import Network
from repro.sim.kernel import Simulator

MESSAGES = 4000          # physical messages per loop run
REPEATS = 7              # min-of-N samples per variant
PAYLOAD = {"instance_id": "Bench-1", "seq": 0}
#: Enabled/disabled wall-time ratio the plane may cost on this loop: the
#: largest of five runs (x1.82-1.92, best of 7 each, on a 2-core x86-64
#: Linux box) plus 15 %.  The plane before span rows read x4.19-4.34 on
#: the same loop (EXPERIMENTS.md, "Build it when it is read").
ENABLED_RATIO_BOUND = 2.21


class PingPong(Node):
    """Minimal message-loop node: echoes until its reply budget runs out."""

    def __init__(self, name, simulator, network, peer, budget):
        super().__init__(name, simulator, network)
        self.peer = peer
        self.budget = budget

    def handle_message(self, message):
        if self.budget > 0:
            self.budget -= 1
            self.send(self.peer, "Ping", PAYLOAD, Mechanism.NORMAL)


class SeedNetwork(Network):
    """``Network.send`` as it was before causal instrumentation landed:
    no Lamport tick, no sender lookup, no causal hook."""

    def send(self, src, dst, interface, payload, mechanism):
        if dst not in self._nodes:
            raise KeyError(dst)
        message = Message(
            msg_id=next(self._msg_ids),
            src=src,
            dst=dst,
            interface=interface,
            mechanism=mechanism,
            payload=dict(payload),
            sent_at=self.simulator.now,
        )
        self.metrics.record_message(mechanism, interface)
        self.simulator.schedule(self.latency.delay(src, dst),
                                self._arrive, message)
        return message


class SeedPingPong(PingPong):
    """``Node.send``/``receive`` seed-equivalent bodies: no Lamport merge,
    no observer check."""

    messages_received = 0  # the seed's per-node receive count

    def send(self, dst, interface, payload, mechanism):
        self.network.send(self.name, dst, interface, payload, mechanism)

    def receive(self, message):
        if not self.is_up:
            raise RuntimeError(f"message delivered to down node {self.name!r}")
        self.messages_received += 1
        self.handle_message(message)


def run_loop(network_cls, node_cls, observed=False):
    """Drive one ping-pong exchange of ``MESSAGES`` physical messages."""
    sampler = nullcontext()
    if observed:  # the plane a traced control system installs, and the sampler
        system = ControlSystem()
        simulator, network = system.simulator, system.network
        simulator.event_hook = None
        sampler = Profiler().install(system)
    else:
        simulator = Simulator()
        network = network_cls(simulator, latency=FixedLatency(1.0))
    a = node_cls("a", simulator, network, peer="b", budget=MESSAGES // 2 - 1)
    node_cls("b", simulator, network, peer="a", budget=MESSAGES // 2)
    simulator.schedule(0.0, a.send, "b", "Ping", PAYLOAD, Mechanism.NORMAL)
    with sampler:
        simulator.run()
    return network.delivered


def sample(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@pytest.mark.benchmark(group="obs-overhead")
def test_tracing_disabled_path_overhead_under_five_percent(benchmark):
    instrumented = lambda: run_loop(Network, PingPong)          # noqa: E731
    baseline = lambda: run_loop(SeedNetwork, SeedPingPong)      # noqa: E731

    # Both stacks must move the same number of physical messages.
    assert instrumented() == baseline() == MESSAGES

    inst_times, base_times = [], []
    for __ in range(REPEATS):                       # interleave the variants
        base_times.append(sample(baseline))
        inst_times.append(sample(instrumented))
    overhead = min(inst_times) / min(base_times) - 1.0

    benchmark.pedantic(instrumented, rounds=3, iterations=1)
    benchmark.extra_info["obs_overhead"] = {
        "messages": MESSAGES,
        "repeats": REPEATS,
        "baseline_best_s": min(base_times),
        "instrumented_best_s": min(inst_times),
        "overhead_fraction": overhead,
    }
    print(f"\ntracing-disabled message-loop overhead: {overhead * 100:+.2f}% "
          f"({MESSAGES} messages, best of {REPEATS})")
    assert overhead < 0.05, (
        f"tracing-disabled no-op path adds {overhead * 100:.2f}% "
        f">= 5% message-loop overhead vs the seed transport path"
    )


@pytest.mark.benchmark(group="obs-overhead")
def test_tracing_enabled_path_costs_what_it_records(benchmark):
    enabled = lambda: run_loop(Network, PingPong, observed=True)    # noqa: E731
    disabled = lambda: run_loop(Network, PingPong)                  # noqa: E731

    assert enabled() == disabled() == MESSAGES

    on_times, off_times = [], []
    for __ in range(REPEATS):                       # interleave the variants
        off_times.append(sample(disabled))
        on_times.append(sample(enabled))
    ratio = min(on_times) / min(off_times)

    benchmark.pedantic(enabled, rounds=3, iterations=1)
    benchmark.extra_info["obs_enabled"] = {
        "messages": MESSAGES,
        "repeats": REPEATS,
        "disabled_best_s": min(off_times),
        "enabled_best_s": min(on_times),
        "enabled_over_disabled": ratio,
        "bound": ENABLED_RATIO_BOUND,
    }
    print(f"\ntracing-enabled message loop: x{ratio:.2f} the disabled path "
          f"({MESSAGES} messages, best of {REPEATS})")
    assert ratio < ENABLED_RATIO_BOUND, (
        f"the enabled observability path costs x{ratio:.2f} the disabled "
        f"path on the message loop (bound x{ENABLED_RATIO_BOUND})"
    )
