"""Observability overhead guards: the tracing-disabled path must stay
cheap, and the enabled path must cost what it records.

The causal-tracing layer is designed so that with tracing off the
per-message cost is "one integer increment and two ``is None`` checks"
(see :mod:`repro.runtime.node`).  This benchmark pins that promise down: a
two-node ping-pong message loop runs once on the current transport stack
with *no* observability hooks injected (the tracing-disabled no-op path)
and once on a seed-equivalent stack whose ``send``/``receive`` bodies
predate the instrumentation entirely.  The no-op path must add **less
than 5%** wall-clock overhead to the message loop.

The second case runs the same loop with the plane **on** the way a
control system turns it on — metrics registry, ``MessageTracer`` over a
``Tracer``, ``Profiler`` on the kernel and the transport — against the
disabled path.  Per physical message that is two message spans, two
counter increments and two profiler frames (``transport.send`` and the
kernel event); the enabled/disabled ratio must stay under
``ENABLED_RATIO_BOUND``.

Timing uses the min-of-N estimator with interleaved variants, which is
robust against one-sided scheduler noise; the pytest-benchmark fixture
times the instrumented loop so the result lands in the ``--benchmark-json``
output stamped with the same provenance as the other bench files.
"""

import time

import pytest

from repro.obs import MessageTracer, MetricsRegistry, Profiler, Tracer
from repro.runtime.latency import FixedLatency
from repro.runtime.messages import Message
from repro.runtime.metrics import Mechanism
from repro.runtime.node import Node
from repro.runtime.transport import Network
from repro.sim.kernel import Simulator

MESSAGES = 4000          # physical messages per loop run
REPEATS = 7              # min-of-N samples per variant
PAYLOAD = {"instance_id": "Bench-1", "seq": 0}
#: Enabled/disabled wall-time ratio the plane may cost on this loop.
#: Measured when PR 22 rebuilt the enabled path: x1.85-1.90 (best of 7,
#: three runs); the plane it replaced read x4.19-4.34 on the same loop.
ENABLED_RATIO_BOUND = 2.3


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
    no flight-recorder or causal-tracer checks."""

    def send(self, dst, interface, payload, mechanism):
        self.network.send(self.name, dst, interface, payload, mechanism)

    def receive(self, message):
        if not self.is_up:
            raise RuntimeError(f"message delivered to down node {self.name!r}")
        self.messages_received += 1
        if self._msg_counter is not None:
            self._msg_counter.inc()
        self.handle_message(message)


def run_loop(network_cls, node_cls, observed=False):
    """Drive one ping-pong exchange of ``MESSAGES`` physical messages."""
    simulator = Simulator()
    network = network_cls(simulator, latency=FixedLatency(1.0))
    if observed:  # what ControlSystem and Profiler.install inject
        network.registry = MetricsRegistry()
        network.causal = MessageTracer(Tracer())
        simulator.profile = network.profile = Profiler()
    a = node_cls("a", simulator, network, peer="b", budget=MESSAGES // 2 - 1)
    node_cls("b", simulator, network, peer="a", budget=MESSAGES // 2)
    simulator.schedule(0.0, a.send, "b", "Ping", PAYLOAD, Mechanism.NORMAL)
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
