"""The :class:`Tracer`: event emission plus metric aggregation.

A tracer is the single object the instrumented code talks to. Engines,
the renderer and the progressive framework call its recording methods;
each call emits a structured event into the tracer's sink (see
:mod:`repro.obs.sinks`) and updates the tracer's
:class:`~repro.obs.metrics.MetricsRegistry` (refinement-depth and
frontier-size histograms, stop-rule counters, tile latency, worker
utilisation).

Tracers are shared across the tiled renderer's worker threads, so every
recording method serialises on one internal lock — tracing is not a hot
path once enabled, and when disabled no tracer exists at all (see
:mod:`repro.obs.runtime` for the zero-overhead-off contract).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence

from repro.obs.events import (
    EVENT_BATCH_QUERY,
    EVENT_BATCH_STEP,
    EVENT_QUERY,
    EVENT_RECOVERY,
    EVENT_RENDER,
    EVENT_SNAPSHOT,
    EVENT_STEP,
    EVENT_TILE,
    make_event,
)
from repro.obs.metrics import (
    DEFAULT_SECONDS_BOUNDS,
    MetricsRegistry,
)
from repro.obs.sinks import RingBufferSink, TraceSink

if TYPE_CHECKING:
    from repro._types import FloatArray

__all__ = ["Tracer"]


class Tracer:
    """Collects structured trace events and aggregate metrics.

    Parameters
    ----------
    sink:
        Where events go; defaults to a bounded in-memory
        :class:`~repro.obs.sinks.RingBufferSink`.
    steps:
        When true, per-refinement-step events (``step`` /
        ``batch_step``) are emitted too — far more voluminous, for
        deep-dive debugging (``REPRO_TRACE=steps``).
    registry:
        Metric aggregation target; defaults to a private
        :class:`~repro.obs.metrics.MetricsRegistry`.
    """

    def __init__(
        self,
        sink: Optional[TraceSink] = None,
        *,
        steps: bool = False,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.sink: TraceSink = sink if sink is not None else RingBufferSink()
        self.steps = bool(steps)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.method: Optional[str] = None
        self._start = time.perf_counter()
        self._lock = threading.Lock()
        self._depth_hist = self.registry.histogram("engine.refinement_depth")
        self._frontier_hist = self.registry.histogram("engine.frontier_size")
        self._tile_hist = self.registry.histogram(
            "render.tile_seconds", bounds=DEFAULT_SECONDS_BOUNDS
        )

    # -- plumbing ----------------------------------------------------------

    def elapsed(self) -> float:
        """Seconds since the tracer was created (monotonic)."""
        return time.perf_counter() - self._start

    def emit(self, kind: str, **fields: Any) -> None:
        """Emit one event of ``kind`` with the current method context."""
        event = make_event(kind, self.elapsed(), method=self.method, **fields)
        with self._lock:
            self.sink.emit(event)

    @contextmanager
    def method_scope(self, name: str) -> Iterator[None]:
        """Attach a method name to every event emitted inside the scope."""
        previous = self.method
        self.method = name
        try:
            yield
        finally:
            self.method = previous

    def events(self) -> List[Dict[str, Any]]:
        """Buffered events when the sink is a ring buffer, else ``[]``."""
        if isinstance(self.sink, RingBufferSink):
            return self.sink.events()
        return []

    def summary(self) -> Dict[str, Any]:
        """Snapshot of the aggregated metrics."""
        with self._lock:
            return self.registry.as_dict()

    # -- engine hooks ------------------------------------------------------

    def query(
        self,
        *,
        engine: str,
        op: str,
        bound: str,
        rule: str,
        iterations: int,
        node_evaluations: int,
        leaf_evaluations: int,
        point_evaluations: int,
        root_gap: float,
        lb: float,
        ub: float,
    ) -> None:
        """Record one scalar-engine query (one pixel)."""
        with self._lock:
            self._depth_hist.observe(iterations)
            self.registry.counter(f"rules.{rule}").add(1)
            self.registry.counter("engine.scalar_queries").add(1)
            self.sink.emit(
                make_event(
                    EVENT_QUERY,
                    self.elapsed(),
                    method=self.method,
                    engine=engine,
                    op=op,
                    bound=bound,
                    rule=rule,
                    iterations=iterations,
                    node_evaluations=node_evaluations,
                    leaf_evaluations=leaf_evaluations,
                    point_evaluations=point_evaluations,
                    root_gap=root_gap,
                    lb=lb,
                    ub=ub,
                )
            )

    def batch_query(
        self,
        *,
        engine: str,
        op: str,
        bound: str,
        rows: int,
        pops: int,
        depths: FloatArray,
        rules: Dict[str, int],
        root_gap_mean: float,
        final_gap_mean: float,
    ) -> None:
        """Record one batched-engine batch (one tile / query block)."""
        import numpy as np

        depth_array = np.asarray(depths, dtype=np.float64)
        with self._lock:
            self._depth_hist.observe_array(depth_array)
            for rule, count in rules.items():
                if count:
                    self.registry.counter(f"rules.{rule}").add(int(count))
            self.registry.counter("engine.batch_queries").add(rows)
            self.registry.counter("engine.batch_pops").add(pops)
            self.sink.emit(
                make_event(
                    EVENT_BATCH_QUERY,
                    self.elapsed(),
                    method=self.method,
                    engine=engine,
                    op=op,
                    bound=bound,
                    rows=rows,
                    pops=pops,
                    depth_mean=float(depth_array.mean()) if rows else 0.0,
                    depth_p50=float(np.percentile(depth_array, 50)) if rows else 0.0,
                    depth_p95=float(np.percentile(depth_array, 95)) if rows else 0.0,
                    depth_max=float(depth_array.max()) if rows else 0.0,
                    rules={k: int(v) for k, v in rules.items() if v},
                    root_gap_mean=root_gap_mean,
                    final_gap_mean=final_gap_mean,
                )
            )

    def frontier(self, n_active: int) -> None:
        """Record the active-row count of one batched frontier pop."""
        with self._lock:
            self._frontier_hist.observe(n_active)

    def step(
        self, *, node: int, leaf: bool, gap: float, lb: float, ub: float
    ) -> None:
        """Record one scalar refinement step (``steps`` level only)."""
        self.emit(EVENT_STEP, node=node, leaf=leaf, gap=gap, lb=lb, ub=ub)

    def batch_step(
        self, *, node: int, leaf: bool, n_active: int, gap_sum: float
    ) -> None:
        """Record one batched frontier pop (``steps`` level only)."""
        self.emit(
            EVENT_BATCH_STEP, node=node, leaf=leaf, n_active=n_active, gap_sum=gap_sum
        )

    # -- renderer hooks ----------------------------------------------------

    def tile(
        self, *, index: int, rows: int, seconds: float, worker: int, op: str
    ) -> None:
        """Record one rendered tile."""
        with self._lock:
            self._tile_hist.observe(seconds)
            self.registry.counter("render.tiles").add(1)
            self.sink.emit(
                make_event(
                    EVENT_TILE,
                    self.elapsed(),
                    method=self.method,
                    index=index,
                    rows=rows,
                    seconds=round(seconds, 6),
                    worker=worker,
                    op=op,
                )
            )

    def render(
        self,
        *,
        op: str,
        pixels: int,
        tiles: int,
        workers: int,
        seconds: float,
        worker_busy: Optional[Sequence[float]] = None,
    ) -> None:
        """Record one completed render, with worker utilisation if tiled."""
        utilisation = None
        if worker_busy is not None and workers > 0 and seconds > 0:
            utilisation = round(sum(worker_busy) / (workers * seconds), 4)
        with self._lock:
            self.registry.counter("render.renders").add(1)
            if utilisation is not None:
                self.registry.histogram(
                    "render.worker_utilisation",
                    bounds=tuple(k / 10.0 for k in range(1, 11)),
                ).observe(utilisation)
            self.sink.emit(
                make_event(
                    EVENT_RENDER,
                    self.elapsed(),
                    method=self.method,
                    op=op,
                    pixels=pixels,
                    tiles=tiles,
                    workers=workers,
                    seconds=round(seconds, 6),
                    worker_busy=(
                        [round(b, 6) for b in worker_busy]
                        if worker_busy is not None
                        else None
                    ),
                    utilisation=utilisation,
                )
            )

    def snapshot(self, *, pixels: int, elapsed: float, label: float) -> None:
        """Record one progressive-rendering snapshot capture."""
        self.emit(EVENT_SNAPSHOT, pixels=pixels, seconds=round(elapsed, 6), label=label)

    # -- resilience hooks --------------------------------------------------

    def recovery(self, *, action: str, reason: Optional[str] = None) -> None:
        """Record one recovery action of the resilient tile driver."""
        with self._lock:
            self.registry.counter(f"recovery.{action}").add(1)
            self.sink.emit(
                make_event(
                    EVENT_RECOVERY,
                    self.elapsed(),
                    method=self.method,
                    action=action,
                    reason=reason,
                )
            )

    def __repr__(self) -> str:
        return f"Tracer(sink={type(self.sink).__name__}, steps={self.steps})"
