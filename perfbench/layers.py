"""Per-layer metrics of a traced round, from its spans and the server's counters.

Inputs: the span dump of :mod:`perfbench.tracing` (spans, aggregated
backend calls, ``QueryStats``, the set-up boundary), the client's
records of the measured phase, the ``/stats`` counter deltas of the
measured phase and the ``QueryStats`` delta over it. Spans belong to the
measured phase by request id (``m…``), to set-up by starting before the
server reported ready.

A layer metric with nothing to measure in a workload (the engine while
``warm_revisit`` serves L1 hits, sharding on one shard) is reported as
0 and named by :func:`per_layer` as unmeasured, with the reason.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["PER_LAYER", "per_layer"]

#: name -> (unit, layer it measures).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "http.residual_ms_p50": ("ms", "repro.serve.http"),
    "service.plan_ms_p50": ("ms", "repro.serve.service"),
    "service.queue_wait_ms_p50": ("ms", "repro.serve.service"),
    "service.serve_s": ("s", "repro.serve.service"),
    "cache.png_hit_ratio": ("ratio", "repro.cache.tiles"),
    "cache.density_hit_ratio": ("ratio", "repro.cache.tiles"),
    "cache.bounds_hit_ratio": ("ratio", "repro.cache.tiles"),
    "service.bounds_shortcircuit": ("count", "repro.cache.tiles"),
    "service.flight_shared": ("count", "repro.utils.cache"),
    "registry.register_s": ("s", "repro.serve.registry"),
    "coreset.build_s": ("s", "repro.sampling.coreset"),
    "registry.vmax_s": ("s", "repro.serve.registry"),
    "sharding.renders_per_miss": ("count", "repro.serve.sharding"),
    "sharding.tau_exact_pixels": ("count", "repro.serve.sharding"),
    "kdv.render_s": ("s", "repro.visual.kdv"),
    "kdv.self_s": ("s", "repro.visual.kdv"),
    "engine.root_envelope_s": ("s", "repro.core.batch_engine"),
    "engine.eps_query_s": ("s", "repro.core.batch_engine"),
    "engine.tau_query_s": ("s", "repro.core.batch_engine"),
    "engine.self_s": ("s", "repro.core.batch_engine"),
    "engine.node_evals_per_pixel": ("count", "repro.core.batch_engine"),
    "engine.leaf_evals_per_pixel": ("count", "repro.core.batch_engine"),
    "engine.point_evals_per_pixel": ("count", "repro.core.batch_engine"),
    "engine.iterations": ("count", "repro.core.batch_engine"),
    "backend.node_bounds_s": ("s", "repro.core.backends"),
    "backend.node_bounds_calls": ("count", "repro.core.backends"),
    "backend.leaf_scan_s": ("s", "repro.core.backends"),
    "backend.leaf_scan_calls": ("count", "repro.core.backends"),
    "exact.s": ("s", "repro.core.exact"),
    "encode.ms_p50": ("ms", "repro.visual.colormap+image"),
    "trace.overhead_frac": ("ratio", "trace"),
    "trace.unattributed_frac": ("ratio", "trace"),
}

#: Service-side spans of one request, rooted on the event loop or the pool.
_SERVICE_ROOTS = ("service.plan_tile", "service.cached_png", "service.try_acquire_slot", "service.serve_tile")
_ENCODE = ("encode.colormap_apply", "encode.two_color_map", "encode.png_bytes")
_ENGINE = ("engine.root_envelope", "engine.query_eps_bounds", "engine.query_tau_bounds")
#: Which wrapped span each metric needs; a missing one makes it unmeasured.
_NEEDS: Dict[str, Tuple[str, ...]] = {
    "http.residual_ms_p50": _SERVICE_ROOTS,
    "service.plan_ms_p50": ("service.plan_tile",),
    "service.queue_wait_ms_p50": ("service.try_acquire_slot", "service.serve_tile"),
    "service.serve_s": ("service.serve_tile",),
    "registry.register_s": ("registry.register",),
    "coreset.build_s": ("coreset.coreset_for_delta",),
    "registry.vmax_s": ("registry.coarse_density",),
    "sharding.renders_per_miss": ("kdv.render",),
    "kdv.render_s": ("kdv.render",),
    "kdv.self_s": ("kdv.render", "kdv.run_tiles"),
    "engine.root_envelope_s": ("engine.root_envelope",),
    "engine.eps_query_s": ("engine.query_eps_bounds",),
    "engine.tau_query_s": ("engine.query_tau_bounds",),
    "engine.self_s": _ENGINE,
    "backend.node_bounds_s": ("backend.node_bounds_batch",),
    "backend.node_bounds_calls": ("backend.node_bounds_batch",),
    "backend.leaf_scan_s": ("backend.leaf_exact_batch",),
    "backend.leaf_scan_calls": ("backend.leaf_exact_batch",),
    "exact.s": ("exact.exact_density",),
    "encode.ms_p50": _ENCODE,
    "trace.unattributed_frac": ("http.tile",) + _SERVICE_ROOTS,
}


class _Span:
    __slots__ = ("id", "name", "thread", "start", "end", "parent", "rid", "child")

    def __init__(self, row: Sequence[Any]) -> None:
        (self.id, self.name, self.thread, self.start, self.end,
         self.parent, self.rid, self.child) = row

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return max(self.end - self.start - self.child, 0.0)


def _median(values: Iterable[float]) -> Optional[float]:
    data = list(values)
    return float(np.median(data)) if data else None


def _outermost(spans: Sequence[_Span], by_id: Dict[int, _Span], name: str) -> List[_Span]:
    """Spans called ``name`` with no ancestor of the same name."""
    found = []
    for span in spans:
        if span.name != name:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.name != name:
            parent = by_id.get(parent.parent)
        if parent is None:
            found.append(span)
    return found


def _ratio(deltas: Dict[str, int], level: str) -> Optional[float]:
    hits = deltas.get(f"tile_cache.{level}.hits", 0)
    misses = deltas.get(f"tile_cache.{level}.misses", 0)
    return hits / (hits + misses) if hits + misses else None


def per_layer(
    dump: Dict[str, Any],
    records: Sequence[Dict[str, Any]],
    counter_deltas: Dict[str, int],
    query_deltas: Dict[str, int],
    tiles_per_s_untraced: float,
    tiles_per_s_traced: float,
) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Every per-layer metric of one traced round; also why any is unmeasured."""
    spans = [_Span(row) for row in dump["spans"]]
    by_id = {span.id: span for span in spans}
    ready_at = float(dump["ready_at"])
    measured = [s for s in spans if isinstance(s.rid, str) and s.rid.startswith("m")]
    setup = [s for s in spans if s.start < ready_at]
    leaf = [row for row in dump["leaf"] if isinstance(row[2], str) and row[2].startswith("m")]
    unmeasured: Dict[str, str] = {}
    for name, reason in dump.get("unmeasured", {}).items():
        for metric, needs in _NEEDS.items():
            if name in needs:
                unmeasured[metric] = f"{name} not instrumented: {reason}"

    by_rid: Dict[str, Dict[str, List[_Span]]] = {}
    for span in measured:
        by_rid.setdefault(span.rid, {}).setdefault(span.name, []).append(span)

    def total(name: str, pool: Sequence[_Span] = measured) -> float:
        return float(sum(span.duration for span in _outermost(pool, by_id, name)))

    queue_wait: Dict[str, float] = {}
    for rid, named in by_rid.items():
        acquired = named.get("service.try_acquire_slot")
        served = named.get("service.serve_tile")
        if acquired and served:
            queue_wait[rid] = max(served[0].start - acquired[0].end, 0.0)

    def service_time(rid: str) -> float:
        named = by_rid.get(rid, {})
        root = sum(span.duration for name in _SERVICE_ROOTS for span in named.get(name, ()))
        return root + queue_wait.get(rid, 0.0)

    residuals = []
    misses = 0
    for record in records:
        rid = record["rid"]
        if record["cache"] == "miss":
            misses += 1
        if rid in by_rid and record["latency_ms"] > 0:
            residuals.append(record["latency_ms"] - 1000.0 * service_time(rid))

    envelope = [span for span in measured if span.name == "http.tile"]
    envelope_s = sum(span.duration for span in envelope)
    covered_s = sum(min(service_time(span.rid), span.duration) for span in envelope)

    encode = []
    for named in by_rid.values():
        parts = [span.duration for name in _ENCODE for span in named.get(name, ())]
        if parts:
            encode.append(1000.0 * sum(parts))

    kdv_spans = [s for s in measured if s.name in ("kdv.render", "kdv.run_tiles")]
    engine_spans = [s for s in measured if s.name in _ENGINE]
    node_rows = [row for row in leaf if row[0] == "backend.node_bounds_batch"]
    leaf_rows = [row for row in leaf if row[0] == "backend.leaf_exact_batch"]
    queries = query_deltas.get("queries", 0)

    def per_pixel(field: str) -> Optional[float]:
        return query_deltas.get(field, 0) / queries if queries else None

    values: Dict[str, Optional[float]] = {
        "http.residual_ms_p50": _median(residuals),
        "service.plan_ms_p50": _median(
            1000.0 * s.duration for s in measured if s.name == "service.plan_tile"
        ),
        "service.queue_wait_ms_p50": _median(1000.0 * w for w in queue_wait.values()),
        "service.serve_s": total("service.serve_tile"),
        "cache.png_hit_ratio": _ratio(counter_deltas, "png"),
        "cache.density_hit_ratio": _ratio(counter_deltas, "density"),
        "cache.bounds_hit_ratio": _ratio(counter_deltas, "bounds"),
        "service.bounds_shortcircuit": float(counter_deltas.get("tiles.bounds_shortcircuit", 0)),
        "service.flight_shared": float(counter_deltas.get("tiles.shared", 0)),
        "registry.register_s": total("registry.register", setup),
        "coreset.build_s": total("coreset.coreset_for_delta", setup),
        "registry.vmax_s": total("registry.coarse_density"),
        "sharding.renders_per_miss": (
            len(_outermost(measured, by_id, "kdv.render")) / misses if misses else None
        ),
        "sharding.tau_exact_pixels": float(counter_deltas.get("tiles.shard_tau_exact_pixels", 0)),
        "kdv.render_s": total("kdv.render"),
        "kdv.self_s": float(sum(s.self_time for s in kdv_spans)),
        "engine.root_envelope_s": float(
            sum(s.duration for s in measured if s.name == "engine.root_envelope")
        ),
        "engine.eps_query_s": float(
            sum(s.duration for s in measured if s.name == "engine.query_eps_bounds")
        ),
        "engine.tau_query_s": float(
            sum(s.duration for s in measured if s.name == "engine.query_tau_bounds")
        ),
        "engine.self_s": float(sum(s.self_time for s in engine_spans)),
        "engine.node_evals_per_pixel": per_pixel("node_evaluations"),
        "engine.leaf_evals_per_pixel": per_pixel("leaf_evaluations"),
        "engine.point_evals_per_pixel": per_pixel("point_evaluations"),
        "engine.iterations": float(query_deltas.get("iterations", 0)),
        "backend.node_bounds_s": float(sum(row[4] for row in node_rows)),
        "backend.node_bounds_calls": float(sum(row[3] for row in node_rows)),
        "backend.leaf_scan_s": float(sum(row[4] for row in leaf_rows)),
        "backend.leaf_scan_calls": float(sum(row[3] for row in leaf_rows)),
        "exact.s": total("exact.exact_density"),
        "encode.ms_p50": _median(encode),
        "trace.overhead_frac": (
            1.0 - tiles_per_s_traced / tiles_per_s_untraced if tiles_per_s_untraced > 0 else None
        ),
        "trace.unattributed_frac": (envelope_s - covered_s) / envelope_s if envelope_s else None,
    }
    result: Dict[str, float] = {}
    for name, value in values.items():
        if value is None or name in unmeasured:
            unmeasured.setdefault(name, "no events in the measured phase")
            result[name] = 0.0
            continue
        result[name] = float(value)
        if value == 0 and PER_LAYER[name][0] != "ratio":
            unmeasured.setdefault(name, "the workload does not exercise it")
    return result, unmeasured
