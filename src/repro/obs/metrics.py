"""Metric primitives: counters, histograms, counter groups, registry.

The observability layer keeps two kinds of numeric state:

* **Counters / counter groups** — monotonically increasing integers.
  :class:`CounterGroup` is the fixed-field variant the engines use on
  their hot paths: fields are plain ``__slots__`` integers, so
  ``stats.iterations += 1`` stays a single slot store with zero
  indirection, while ``merge`` / ``reset`` / ``as_dict`` come from the
  shared implementation. :class:`~repro.core.engine.QueryStats` is a
  :class:`CounterGroup` subclass — a thin named view over this module's
  counter machinery.
* **Histograms** — fixed-bucket distributions (refinement depth,
  frontier size, tile latency). Buckets are chosen at construction, so
  ``observe`` is one bisect; merging requires identical buckets.

A :class:`MetricsRegistry` names and owns counters and histograms,
creates them on demand, merges registries (the per-worker aggregation
pattern used by the tiled renderer) and snapshots everything to plain
dictionaries for reports.

Everything here is safe under the CPython GIL for the library's
threading pattern (each worker owns its metrics and the owner merges
afterwards); no locks are taken on hot paths.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Tuple, TypeVar

if TYPE_CHECKING:
    from typing import ClassVar

__all__ = [
    "Counter",
    "CounterGroup",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_COUNT_BOUNDS",
    "DEFAULT_SECONDS_BOUNDS",
]

TGroup = TypeVar("TGroup", bound="CounterGroup")

#: Default buckets for count-valued histograms (refinement depth,
#: frontier size): powers of two up to 2^16.
DEFAULT_COUNT_BOUNDS: Tuple[float, ...] = tuple(float(2**k) for k in range(17))

#: Default buckets for duration-valued histograms (tile latency):
#: 100 microseconds to ~100 seconds, geometric.
DEFAULT_SECONDS_BOUNDS: Tuple[float, ...] = tuple(
    1e-4 * (10.0 ** (k / 3.0)) for k in range(19)
)


class Counter:
    """A named monotone integer counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = int(value)

    def add(self, amount: int = 1) -> None:
        """Increase the counter by ``amount``."""
        self.value += amount

    def merge(self, other: Counter) -> Counter:
        """Add another counter's value into this one; returns ``self``."""
        self.value += other.value
        return self

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class CounterGroup:
    """A fixed block of integer counters stored in ``__slots__``.

    Subclasses declare ``_fields`` (the counter names, in display order)
    and a matching ``__slots__``; every field is then a plain integer
    attribute, so hot loops pay only a slot store per increment while
    :meth:`reset`, :meth:`merge` and :meth:`as_dict` are shared. This is
    the concurrency-safe aggregation building block: each worker
    accumulates into a private group and the owner merges afterwards.
    """

    __slots__ = ()

    #: Counter names, in declaration order. Subclasses override.
    _fields: ClassVar[Tuple[str, ...]] = ()

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        for field in self._fields:
            setattr(self, field, 0)

    def merge(self: TGroup, other: CounterGroup) -> TGroup:
        """Add another group's counters into this one; returns ``self``.

        The other group must carry the same fields (subclass identity is
        not required, field agreement is).
        """
        if other._fields != self._fields:
            raise ValueError(
                f"cannot merge counter groups with different fields: "
                f"{self._fields!r} vs {other._fields!r}"
            )
        for field in self._fields:
            setattr(self, field, getattr(self, field) + getattr(other, field))
        return self

    def as_dict(self) -> Dict[str, int]:
        """Counters as a plain dictionary, in field order."""
        return {field: int(getattr(self, field)) for field in self._fields}

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"{type(self).__name__}({parts})"


class Histogram:
    """A fixed-bucket histogram with exact count/sum/min/max.

    ``bounds`` are ascending bucket upper edges; an observation lands in
    the first bucket whose edge is ``>= value``, with one implicit
    overflow bucket past the last edge. Percentiles are answered from
    the buckets (the returned value is the containing bucket's upper
    edge, clamped to the observed min/max), which is exact enough for
    depth/latency reporting and keeps ``observe`` O(log buckets).
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Iterable[float] = DEFAULT_COUNT_BOUNDS) -> None:
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        if not self.bounds or any(
            b2 <= b1 for b1, b2 in zip(self.bounds, self.bounds[1:])
        ):
            raise ValueError(f"histogram bounds must be ascending, got {self.bounds!r}")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def observe_array(self, values: Any) -> None:
        """Record a numpy array of observations in one vectorised pass."""
        import numpy as np

        array = np.asarray(values, dtype=np.float64).reshape(-1)
        if array.size == 0:
            return
        slots = np.searchsorted(np.asarray(self.bounds, dtype=np.float64), array)
        for slot, bucket_count in zip(*np.unique(slots, return_counts=True)):
            self.counts[int(slot)] += int(bucket_count)
        self.count += int(array.size)
        self.total += float(array.sum())
        low = float(array.min())
        high = float(array.max())
        if low < self.min:
            self.min = low
        if high > self.max:
            self.max = high

    def merge(self, other: Histogram) -> Histogram:
        """Fold another histogram (same bounds) into this one."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.name!r} vs {other.name!r}"
            )
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    def percentile(self, q: float) -> float:
        """Bucket-resolution percentile ``q`` in ``[0, 1]``."""
        if self.count == 0:
            return float("nan")
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= target and bucket_count:
                edge = self.bounds[index] if index < len(self.bounds) else self.max
                return min(max(edge, self.min), self.max)
        return self.max

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (NaN when empty)."""
        return self.total / self.count if self.count else float("nan")

    def summary(self) -> Dict[str, float]:
        """Count/sum/mean/min/max plus p50/p95/p99."""
        if self.count == 0:
            return {"count": 0.0}
        return {
            "count": float(self.count),
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count})"


class MetricsRegistry:
    """Named counters and histograms, created on demand.

    The registry is the aggregation point behind
    :class:`~repro.obs.trace.Tracer`: engines and the renderer update
    metrics through their tracer, workers keep private registries, and
    :meth:`merge` folds them together exactly like
    :meth:`~repro.core.engine.QueryStats.merge` folds counter groups.
    """

    __slots__ = ("counters", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created at zero if missing."""
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def histogram(
        self, name: str, bounds: Iterable[float] = DEFAULT_COUNT_BOUNDS
    ) -> Histogram:
        """The histogram called ``name``, created if missing."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name, bounds)
        return histogram

    def merge(self, other: MetricsRegistry) -> MetricsRegistry:
        """Fold another registry into this one; returns ``self``."""
        for name, counter in other.counters.items():
            self.counter(name).merge(counter)
        for name, histogram in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = Histogram(name, histogram.bounds)
            mine.merge(histogram)
        return self

    def as_dict(self) -> Dict[str, Any]:
        """Snapshot: counter values and histogram summaries."""
        return {
            "counters": {name: c.value for name, c in sorted(self.counters.items())},
            "histograms": {
                name: h.summary() for name, h in sorted(self.histograms.items())
            },
        }

    def reset(self) -> None:
        """Drop every metric (names are forgotten, not zeroed)."""
        self.counters.clear()
        self.histograms.clear()

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self.counters)}, "
            f"histograms={len(self.histograms)})"
        )
