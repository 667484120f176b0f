"""Metrics registry: counters, gauges and fixed-bucket histograms.

Prometheus-shaped but dependency-free.  A metric family is identified by
name; each distinct label set gets its own child instrument, created on
first use::

    registry.counter("crew_messages_total", node="agent-001").inc()
    registry.histogram("crew_step_latency", schema="Figure3").observe(2.4)

Histograms use fixed upper-bound buckets and estimate percentiles by
linear interpolation inside the winning bucket — the standard
``histogram_quantile`` approximation, good enough for p50/p95/p99 tables
and cheap enough (one bisect per observation) for simulation hot paths.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Iterable, Iterator, Mapping

__all__ = [
    "DEFAULT_BUCKETS",
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
    "MetricsRegistry",
]

#: Default latency-style buckets in simulated time units.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
    2500.0, 5000.0,
)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class CounterMetric:
    """A monotonically increasing value."""

    __slots__ = ("labels", "value")

    kind = "counter"

    def __init__(self, labels: LabelKey):
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class GaugeMetric:
    """A value that can go up and down."""

    __slots__ = ("labels", "value")

    kind = "gauge"

    def __init__(self, labels: LabelKey):
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class HistogramMetric:
    """Fixed-bucket histogram with percentile estimation.

    ``bounds`` are inclusive upper bounds; an implicit ``+Inf`` bucket
    catches the overflow.  ``counts[i]`` is the number of observations in
    bucket ``i`` (*not* cumulative; cumulation happens at export time).
    """

    __slots__ = ("bounds", "counts", "labels", "sum", "count", "min", "max")

    kind = "histogram"

    def __init__(self, labels: LabelKey, bounds: tuple[float, ...]):
        self.labels = labels
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated ``q``-quantile (``q`` in [0, 1]).

        Linearly interpolates within the bucket containing the target
        rank; the overflow bucket reports the largest observed value.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                if i >= len(self.bounds):  # overflow bucket
                    return self.max
                lower = self.bounds[i - 1] if i > 0 else min(0.0, self.min)
                upper = self.bounds[i]
                fraction = (rank - cumulative) / bucket_count
                return lower + (upper - lower) * fraction
            cumulative += bucket_count
        return self.max  # pragma: no cover - defensive

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)


class MetricsRegistry:
    """Get-or-create registry of metric families and their children."""

    def __init__(self) -> None:
        #: family name -> (kind, help text, bucket bounds or None)
        self._families: dict[str, tuple[str, str, tuple[float, ...] | None]] = {}
        #: (family name, label key) -> instrument
        self._children: dict[tuple[str, LabelKey], Any] = {}
        #: (kind, name, help, buckets, *labels as passed) -> instrument: a
        #: repeated look-up is answered here, ahead of validation and
        #: label normalisation.
        self._memo: dict[tuple, Any] = {}

    # -- instrument accessors ------------------------------------------------

    def counter(self, name: str, help: str = "", **labels: Any) -> CounterMetric:
        return self._instrument("counter", name, help, None, labels)

    def gauge(self, name: str, help: str = "", **labels: Any) -> GaugeMetric:
        return self._instrument("gauge", name, help, None, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] | None = None,
        **labels: Any,
    ) -> HistogramMetric:
        return self._instrument("histogram", name, help, buckets, labels)

    def _instrument(
        self,
        kind: str,
        name: str,
        help: str,
        buckets: Iterable[float] | None,
        labels: dict[str, Any],
    ) -> Any:
        try:
            key: tuple | None = (kind, name, help, buckets, *labels.items())
            child = self._memo.get(key)
        except TypeError:  # unhashable buckets or label value
            key = child = None
        if child is not None:
            return child
        bounds = None
        if kind == "histogram":
            bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
            if any(later <= earlier for later, earlier in zip(bounds[1:], bounds)):
                raise ValueError(
                    f"histogram buckets must be strictly increasing: {bounds}")
        child = self._child(name, kind, help, bounds, labels)
        # Only labels already in exposition form are memoised: 1, 1.0 and
        # True are one dict key but three label values.
        if key is not None and all(type(v) is str for v in labels.values()):
            self._memo[key] = child
        return child

    def _child(
        self,
        name: str,
        kind: str,
        help: str,
        bounds: tuple[float, ...] | None,
        labels: Mapping[str, Any],
    ) -> Any:
        family = self._families.get(name)
        if family is None:
            self._families[name] = (kind, help, bounds)
        elif family[0] != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family[0]}, not {kind}"
            )
        elif help and not family[1]:
            self._families[name] = (kind, help, family[2])
        key = (name, _label_key(labels))
        child = self._children.get(key)
        if child is None:
            registered_bounds = self._families[name][2]
            if kind == "histogram":
                child = HistogramMetric(key[1], registered_bounds or DEFAULT_BUCKETS)
            elif kind == "counter":
                child = CounterMetric(key[1])
            else:
                child = GaugeMetric(key[1])
            self._children[key] = child
        return child

    # -- introspection -------------------------------------------------------

    def families(self) -> list[str]:
        return sorted(self._families)

    def kind_of(self, name: str) -> str:
        return self._families[name][0]

    def help_of(self, name: str) -> str:
        return self._families[name][1]

    def children(self, name: str) -> list[Any]:
        """All children of a family, in sorted label order."""
        out = [child for (fam, __), child in self._children.items() if fam == name]
        out.sort(key=lambda c: c.labels)
        return out

    def get(self, name: str, **labels: Any) -> Any | None:
        """Existing child or None (never creates)."""
        return self._children.get((name, _label_key(labels)))

    def __iter__(self) -> Iterator[tuple[str, list[Any]]]:
        for name in self.families():
            yield name, self.children(name)

    def __len__(self) -> int:
        return len(self._children)

    # -- combination ---------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry's observations into this one (in place).

        Counters and histogram contents add; gauges take the other
        registry's latest value.  Used to combine per-node registries into
        one fleet-wide report.
        """
        for name, (kind, help, bounds) in other._families.items():
            for child in other.children(name):
                labels = dict(child.labels)
                if kind == "counter":
                    self.counter(name, help, **labels).inc(child.value)
                elif kind == "gauge":
                    self.gauge(name, help, **labels).set(child.value)
                else:
                    mine = self.histogram(name, help, buckets=child.bounds, **labels)
                    if mine.bounds != child.bounds:
                        raise ValueError(
                            f"cannot merge histogram {name!r}: bucket mismatch"
                        )
                    for i, c in enumerate(child.counts):
                        mine.counts[i] += c
                    mine.sum += child.sum
                    mine.count += child.count
                    mine.min = min(mine.min, child.min)
                    mine.max = max(mine.max, child.max)
        return self
