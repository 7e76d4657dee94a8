#!/usr/bin/env python
"""Standing engine benchmark: scalar versus batched refinement.

Runs the canonical εKDV/τKDV rendering workload (Gaussian kernel on a
synthetic dataset analogue) through both refinement schedules of the
same method — the per-pixel scalar loop of
:class:`repro.core.engine.RefinementEngine` and the batched frontier of
:class:`repro.core.batch_engine.BatchRefinementEngine` — and writes the
results to ``BENCH_engine.json`` at the repository root.

Besides timing, the report validates the contracts that make the
comparison meaningful:

* every εKDV density (both schedules) lies within ``(1 ± eps)`` of the
  brute-force exact density (up to the renderer's default ``atol``);
* the τKDV masks of both schedules are identical, pixel for pixel;
* every kd-tree node's rectangle and aggregates match its members
  (``index_build``, which also times the build);
* the leaf scan (``leaf_scan``) returns the same floats as its
  expression form and allocates about one kernel block per call;
* τ renders from a cached ε envelope (``tau_steps``) give the same
  masks with wide refinement steps as with one node per step, for at
  most 1.15 times the work per open pixel.

The script exits non-zero if any validation fails, so CI can run it as
a smoke job (``--smoke`` shrinks the workload to seconds).

Usage::

    PYTHONPATH=src python tools/bench_report.py            # full workload
    PYTHONPATH=src python tools/bench_report.py --smoke    # CI-sized
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Callable

REPO_ROOT = Path(__file__).resolve().parent.parent

try:  # pragma: no cover - import shim for running without PYTHONPATH
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(REPO_ROOT / "src"))

__all__ = ["run_benchmark", "main"]

#: The acceptance workload: Gaussian εKDV at 320 x 240 (paper Figure 16's
#: smallest resolution) over a synthetic dataset analogue.
FULL_WORKLOAD = {"n": 8000, "resolution": (320, 240)}
#: CI-sized workload: same shape, seconds instead of minutes.
SMOKE_WORKLOAD = {"n": 1500, "resolution": (80, 60)}

#: Worker counts swept by the parallel-scaling section: 1 renders
#: in-process, 2 or more on the method's process pool.
SCALING_WORKERS = (1, 2, 4, 8)

#: Query batch sizes of the leaf_scan section. The tile driver scans
#: leaves with up to 64 x 64 = 4,096 rows, fewer as pixels retire.
LEAF_SCAN_ROWS = (256, 1024, 4096)

#: ``(kernel, rows)`` cases of the leaf_scan section: the expanded
#: (squared-distance) form at every batch size, and the direct form of the
#: unsquared-distance kernels at the largest, where its 128 KiB scratch is
#: a sixteenth of the block (a smaller scan's scratch may be its whole
#: block, in memory the allocator reuses).
LEAF_SCAN_CASES = tuple(("gaussian", rows) for rows in LEAF_SCAN_ROWS) + (
    ("exponential", max(LEAF_SCAN_ROWS)),
)

#: The tau_steps section's map (points at the serving leaf size, grid):
#: param_sweep's 20k points on one 256-px tile, and on a CI-sized grid.
#: Far smaller trees are a poor model: a 4k-point tree has 63 leaves, and
#: 32-node steps drain most of it in a few steps.
TAU_STEPS_FULL = {"n": 20_000, "resolution": (256, 256)}
TAU_STEPS_SMOKE = {"n": 20_000, "resolution": (128, 128)}

#: Exact-density quantiles of the tau_steps section's thresholds.
TAU_STEPS_QUANTILES = (0.5, 0.75, 0.9, 0.97)

#: The most node or point evaluations per open pixel the wide τ steps may
#: spend, as a multiple of one node per step (the tau_steps gate).
TAU_STEPS_WORK_BOUND = 1.15

#: The most one leaf scan may allocate, in ``(rows, leaf points)``
#: float64 blocks: the kernel block itself plus the row sums. The bound
#: adds one ufunc buffer (``np.getbufsize()`` float64s), which numpy's
#: broadcasting in-place additions allocate whatever the batch size.
LEAF_SCAN_PEAK_BLOCKS = 1.25


def _timed_best(fn: Callable[[], Any], repeats: int) -> tuple[Any, float]:
    """Run ``fn`` ``repeats`` times; return (last result, best seconds)."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _parallel_scaling(
    renderer: Any,
    *,
    eps: float,
    atol: float,
    exact: Any,
    tau: float,
    scalar_mask: Any,
    tile_size: int,
    repeats: int,
) -> dict[str, Any]:
    """Sweep the worker count over the εKDV render.

    ``workers=1`` runs the in-process executor; 2, 4 and 8 run the
    process's render pool of that size, each closed before the next
    starts, so no two sizes' workers run at once. Per-tile refinement is bit-identical across
    executors and worker counts by construction (the tile partition
    fixes each batch), so besides timing the sweep doubles as a
    cross-executor equality check against the in-process tiled image,
    and a τ-mask identity check of a 4-worker pool render against the
    scalar schedule. Numbers are recorded as measured: pool legs pay
    fork, shared-memory and serialisation overhead and cannot beat
    ``os.cpu_count()`` workers, so sub-1x speedups on small runners are
    expected and are not a failure.
    """
    import numpy as np

    from repro.visual.executors import close_render_pools
    from repro.visual.request import RenderOptions, RenderRequest

    def render_eps(options: "RenderOptions") -> Any:
        return renderer.render(RenderRequest.for_eps(eps, "quad", options=options))

    close_render_pools()
    single = RenderOptions(tile_size=tile_size, workers=1)
    reference, base_seconds = _timed_best(lambda: render_eps(single), repeats)
    rows = []
    ok = True
    for workers in SCALING_WORKERS:
        options = RenderOptions(tile_size=tile_size, workers=workers)
        image, seconds = _timed_best(lambda: render_eps(options), repeats)
        close_render_pools()
        error = np.abs(image - exact)
        within = bool(np.all(error <= eps * exact + atol))
        identical = bool(np.array_equal(image, reference))
        ok = ok and within and identical
        speedup = base_seconds / seconds if seconds > 0 else 0.0
        executor = "pool" if workers >= 2 else "in-process"
        rows.append({
            "executor": executor,
            "workers": workers,
            "seconds": round(seconds, 6),
            "speedup_vs_single_thread": round(speedup, 3),
            "parallel_efficiency": round(speedup / workers, 3),
            "identical_to_single_thread": identical,
            "within_envelope": within,
        })
        print(
            f"  scaling {executor:<10s} workers={workers} "
            f"{seconds:8.3f}s  ({speedup:5.2f}x)"
        )
    options = RenderOptions(tile_size=tile_size, workers=4)
    mask = renderer.render(RenderRequest.for_tau(tau, "quad", options=options))
    tau_identical = bool(np.array_equal(mask, scalar_mask))
    section: dict[str, Any] = {
        "workers_swept": list(SCALING_WORKERS),
        "cpu_count": os.cpu_count(),
        "single_thread_seconds": round(base_seconds, 6),
        "eps": rows,
        "tau_masks_identical": tau_identical,
        "all_identical_and_within_envelope": ok and tau_identical,
    }

    # Release the pool (and its shared-memory tree segments) the τ
    # check spun up.
    close_render_pools()
    return section


def _coreset_parity(renderer: Any, *, delta_cap: float, seed: int) -> dict[str, Any]:
    """Spot-check the coreset error bound against brute-force exact KDE.

    Builds one weighted coreset over the benchmark points and verifies
    ``|KDE_coreset - KDE_exact| <= delta_abs`` at random queries spread
    over the data's bounding box — the inequality every serve-layer
    ``eps`` fold relies on. Runs in both smoke and full mode.
    """
    import numpy as np

    from repro.core.exact import exact_density
    from repro.sampling import coreset_for_delta

    points = renderer.points
    span = float(np.max(points.max(axis=0) - points.min(axis=0)))
    coreset = coreset_for_delta(
        points,
        renderer.kernel,
        renderer.gamma,
        renderer.weight,
        cell_size=max(span / 8.0, 1e-300),
        delta_cap=delta_cap,
    )
    rng = np.random.default_rng(seed)
    low, high = points.min(axis=0), points.max(axis=0)
    queries = rng.uniform(low, high, size=(128, points.shape[1]))
    exact = exact_density(points, queries, renderer.kernel, renderer.gamma, renderer.weight)
    approx = exact_density(
        coreset.points,
        queries,
        renderer.kernel,
        renderer.gamma,
        renderer.weight,
        point_weights=coreset.weights,
    )
    max_abs_error = float(np.max(np.abs(approx - exact)))
    # delta_abs is exact arithmetic on realised displacements; allow a
    # few ulps of accumulated rounding in the two density sums.
    within = bool(max_abs_error <= coreset.delta_abs * (1.0 + 1e-9) + 1e-15)
    print(
        f"  coreset parity  m={coreset.m} delta_abs={coreset.delta_abs:.3e} "
        f"max|err|={max_abs_error:.3e} within={within}"
    )
    return {
        "delta_cap": delta_cap,
        "n_source": coreset.n_source,
        "m": coreset.m,
        "compression": round(coreset.n_source / max(coreset.m, 1), 2),
        "delta_abs": coreset.delta_abs,
        "delta_z": coreset.delta_z,
        "queries": int(queries.shape[0]),
        "max_abs_error": max_abs_error,
        "within_delta": within,
    }


def _coreset_pyramid(
    n: int,
    *,
    dataset: str,
    seed: int,
    tile_px: int,
    eps: float,
    zoom_threshold: int,
    delta_cap: float,
    leaf_size: int,
    baseline_seconds: float | None,
) -> dict[str, Any]:
    """Cold low-zoom serving latency: coreset tier vs exact QUAD at scale.

    Registers the same ``n``-point synthetic dataset twice — once with a
    coreset pyramid below ``zoom_threshold``, once plain — and times the
    cold ``(0, 0, 0)`` tile through each. Registration (tree build +
    pyramid materialisation) happens outside the timed window, mirroring
    the offline stage of the main workload; the timed window is the
    user-visible first-tile latency.
    """
    from repro.data.synthetic import load_dataset
    from repro.serve.service import RenderConfig, ServiceConfig, TileService
    from repro.visual.executors import close_render_pools

    points = load_dataset(dataset, n=n, seed=seed)
    config = ServiceConfig(
        render=RenderConfig(tile_px=tile_px, eps=eps, deadline_ms=None, workers=1)
    )

    def timed_register(service: TileService, **kwargs: Any) -> float:
        start = time.perf_counter()
        entry = service.registry.register("pyramid", points, leaf_size=leaf_size, **kwargs)
        entry.warm()
        return time.perf_counter() - start

    def timed_cold_tile(service: TileService) -> tuple[float, dict[str, Any]]:
        start = time.perf_counter()
        _, info = service.get_tile("pyramid", 0, 0, 0)
        return time.perf_counter() - start, info

    coreset_svc = TileService(config=config)
    exact_svc = TileService(config=config)
    try:
        coreset_build_s = timed_register(
            coreset_svc, coreset_zoom=zoom_threshold, coreset_delta_cap=delta_cap
        )
        exact_build_s = timed_register(exact_svc)
        coreset_cold_s, coreset_info = timed_cold_tile(coreset_svc)
        print(f"  pyramid n={n} cold z0 coreset {coreset_cold_s:8.3f}s")
        # The services share the process's render pool: close it, so the
        # exact tile pays a pool start too.
        close_render_pools()
        exact_cold_s, exact_info = timed_cold_tile(exact_svc)
        print(f"  pyramid n={n} cold z0 exact   {exact_cold_s:8.3f}s")
        warm_start = time.perf_counter()
        _, warm_info = coreset_svc.get_tile("pyramid", 0, 0, 0)
        warm_s = time.perf_counter() - warm_start
        tiers = coreset_svc.registry.get("pyramid").as_dict()["coreset"]["tiers"]
    finally:
        coreset_svc.close()
        exact_svc.close()

    speedup = exact_cold_s / coreset_cold_s if coreset_cold_s > 0 else 0.0
    return {
        "n": n,
        "dataset": dataset,
        "tile_px": tile_px,
        "eps": eps,
        "zoom_threshold": zoom_threshold,
        "delta_cap": delta_cap,
        "leaf_size": leaf_size,
        "register_seconds": {
            "coreset": round(coreset_build_s, 6),
            "exact": round(exact_build_s, 6),
        },
        "cold_tile_z0": {
            "coreset_seconds": round(coreset_cold_s, 6),
            "exact_seconds": round(exact_cold_s, 6),
            "speedup": round(speedup, 3),
            "coreset_tier": coreset_info.get("tier"),
            "exact_tier": exact_info.get("tier"),
        },
        "warm_tile_z0": {
            "seconds": round(warm_s, 6),
            "cache": warm_info.get("cache"),
        },
        "tiers": tiers,
        "baseline_8k_scalar_seconds": baseline_seconds,
    }


def _index_build(
    cases: list[tuple[str, int, int]], *, dataset: str, seed: int, repeats: int = 3
) -> dict[str, Any]:
    """Best-of-``repeats`` kd-tree build time per ``(label, n, leaf_size)``.

    Also checks every node of each tree against its members (the dataset
    rows of its run of leaf slots): the rectangle must equal their
    min/max exactly, and the aggregates must match
    ``NodeAggregates.from_points`` on them to float64 rounding. Both sum
    the same terms in different orders, so a degree-k moment may be off
    by ``4 m eps`` times the sum of its terms' magnitudes, plus what
    moving the centre by ``shift = 4 m eps max|p|`` can change.
    ``index_aggregates_ok`` is the conjunction over all nodes.
    """
    import numpy as np

    from repro.core.aggregates import NodeAggregates
    from repro.data.synthetic import load_dataset
    from repro.index.kdtree import KDTree

    unit = 4.0 * float(np.finfo(np.float64).eps)
    results = []
    all_ok = True
    for label, n, leaf_size in cases:
        points = load_dataset(dataset, n=n, seed=seed)
        tree, seconds = _timed_best(lambda: KDTree(points, leaf_size=leaf_size), repeats)
        arrays = tree.arrays
        first_slot = [0] * tree.num_nodes
        for node in reversed(list(tree.nodes())):
            first_slot[node.node_id] = (
                int(arrays["leaf_start"][node.node_id])
                if node.is_leaf
                else first_slot[node.left.node_id]
            )
        rects_exact = True
        worst = 0.0  # largest error / tolerance over every aggregate field
        for node in tree.nodes():
            start = first_slot[node.node_id]
            members = points[arrays["leaf_indices"][start : start + node.size]]
            rects_exact &= bool(
                np.array_equal(node.rect.low, members.min(axis=0))
                and np.array_equal(node.rect.high, members.max(axis=0))
            )
            ref = NodeAggregates.from_points(members)
            m = members.shape[0]
            norms = np.sqrt(((members - np.asarray(ref.center)) ** 2).sum(axis=1))
            shift = unit * m * float(np.abs(members).max())
            for field, degree in (("center", 0), ("a", 1), ("b", 2), ("c", 2),
                                  ("v", 3), ("h", 4)):
                error = float(np.abs(np.subtract(getattr(node.agg, field),
                                                 getattr(ref, field))).max())
                tol = shift if degree == 0 else (
                    unit * m * float((norms**degree).sum())
                    + float(((norms + shift) ** degree - norms**degree).sum())
                )
                if error > 0.0:
                    worst = max(worst, error / tol if tol > 0.0 else float("inf"))
        ok = rects_exact and worst <= 1.0
        all_ok &= ok
        print(f"  index build {label:<14s} {seconds:8.3f}s  ({tree.num_nodes} nodes)")
        results.append({
            "label": label,
            "dataset": dataset,
            "n": n,
            "leaf_size": leaf_size,
            "seconds": round(seconds, 6),
            "nodes": tree.num_nodes,
            "us_per_node": round(seconds / tree.num_nodes * 1e6, 2),
            "rectangles_exact": rects_exact,
            "max_aggregate_error_over_tolerance": round(worst, 6),
        })
    return {"repeats": repeats, "trees": results, "index_aggregates_ok": all_ok}


def _expression_form_leaf_sums(provider: Any, node: Any, queries: Any, queries_sq: Any) -> Any:
    """A leaf scan written one expression per step: the reference.

    A fresh array per operation, as the scan was written before it ran
    in place: the Gaussian's expanded distances, or the direct form's
    per-dimension sum for an unsquared-distance kernel. ``leaf_scan``
    checks that the two agree float for float.
    """
    import numpy as np

    if provider.kernel.name == "gaussian":
        sq = queries_sq[:, None] - 2.0 * (queries @ node.points.T) + node.sq_norms
        np.maximum(sq, 0.0, out=sq)
        x = provider.gamma * np.minimum(sq, 708.0 * (1.0 + 1e-9) / provider.gamma)
        return provider.weight * np.exp(-np.minimum(x, 708.0)).sum(axis=1)
    diff = queries[:, None, 0] - node.points[None, :, 0]
    sq = diff * diff
    for j in range(1, queries.shape[1]):
        diff = queries[:, None, j] - node.points[None, :, j]
        sq = sq + diff * diff
    values = provider.kernel.evaluate(sq, provider.gamma)
    return provider.weight * values.sum(axis=1)


def _leaf_scan(renderer: Any, *, repeats: int = 3) -> dict[str, Any]:
    """Time and trace ``ComputeBackend.leaf_exact_batch`` on one full leaf.

    The leaf is the fullest of a kd-tree over the workload's points at
    the serving leaf size; the queries are the workload grid's pixel
    centres, repeated to each case's rows. Per case of
    :data:`LEAF_SCAN_CASES`: the best-of-``repeats``
    microseconds per call, the ``tracemalloc`` peak of one call against
    the :data:`LEAF_SCAN_PEAK_BLOCKS` bound, and whether the values
    equal :func:`_expression_form_leaf_sums` bit for bit.
    """
    import tracemalloc

    import numpy as np

    from repro.core.backends import ComputeBackend
    from repro.core.bounds import make_bound_provider
    from repro.index.kdtree import DEFAULT_LEAF_SIZE, KDTree

    tree = KDTree(renderer.points, leaf_size=DEFAULT_LEAF_SIZE)
    leaf = max(tree.leaves(), key=lambda node: node.size)
    backend = ComputeBackend()
    centers = renderer.grid.centers()
    rows_report = []
    ok = True
    for kernel, rows in LEAF_SCAN_CASES:
        provider = make_bound_provider("quad", kernel, renderer.gamma, renderer.weight)
        queries = np.ascontiguousarray(np.resize(centers, (rows, centers.shape[1])))
        queries_sq = np.einsum("ij,ij->i", queries, queries)

        def scan() -> Any:
            return backend.leaf_exact_batch(provider, leaf, queries, queries_sq)

        identical = bool(
            np.array_equal(
                scan(), _expression_form_leaf_sums(provider, leaf, queries, queries_sq)
            )
        )
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            scan()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        calls = 20 * max(LEAF_SCAN_ROWS) // rows

        def run() -> None:
            for __ in range(calls):
                scan()

        __, seconds = _timed_best(run, repeats)
        bound = int((LEAF_SCAN_PEAK_BLOCKS * rows * leaf.size + np.getbufsize()) * 8)
        ok &= identical and peak <= bound
        us_per_call = seconds / calls * 1e6
        print(
            f"  leaf scan {kernel:<11s} rows={rows:<5d} {us_per_call:9.1f} us/call  "
            f"peak {peak} B"
        )
        rows_report.append({
            "kernel": kernel,
            "rows": rows,
            "us_per_call": round(us_per_call, 2),
            "ns_per_pair": round(us_per_call * 1e3 / (rows * leaf.size), 3),
            "peak_bytes": int(peak),
            "peak_bytes_bound": bound,
            "bit_identical": identical,
        })
    return {
        "leaf_points": int(leaf.size),
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "batches": rows_report,
        "leaf_scan_ok": ok,
    }


def _tau_steps(
    n: int,
    resolution: tuple[int, int],
    *,
    dataset: str,
    seed: int,
    eps: float,
    repeats: int,
) -> dict[str, Any]:
    """τ renders from a cached ε envelope: one node per step against wide steps.

    The tile service starts a τ tile from the envelope its ε render
    left, so only the open pixels (those the envelope does not settle)
    refine. On an ``n``-point map at the serving leaf size and tile
    partition (``RENDER_TILE_SIZE``, whatever ``--tile-size`` says), per
    threshold (the :data:`TAU_STEPS_QUANTILES` of the exact density),
    the in-process render runs with one frontier node per step
    (``tau_step_width`` off, the ε schedule) and with the width rule of
    :func:`repro.core.batch_engine.tau_step_width`. Records the best-of-
    ``repeats`` milliseconds, node and point evaluations per open pixel,
    and whether the masks are identical. ``tau_steps_ok`` holds when
    every mask is and the wide steps spend at most
    :data:`TAU_STEPS_WORK_BOUND` times the evaluations per open pixel.
    """
    from contextlib import nullcontext
    from unittest import mock

    import numpy as np

    from repro.core import batch_engine, stopping
    from repro.data.synthetic import load_dataset
    from repro.serve.service import RENDER_TILE_SIZE as tile_size
    from repro.visual.kdv import KDVRenderer
    from repro.visual.request import RenderOptions, RenderRequest

    renderer = KDVRenderer(load_dataset(dataset, n=n, seed=seed), resolution=resolution)
    method = renderer.get_method("quad")
    envelope = renderer.render(
        RenderRequest.for_eps(
            eps, "quad", options=RenderOptions(tile_size=tile_size, anytime=True)
        )
    )
    lower = envelope.lower.reshape(-1)
    upper = envelope.upper.reshape(-1)
    exact = renderer.render_exact().reshape(-1)
    options = RenderOptions(tile_size=tile_size, envelope=(lower, upper))
    thresholds = []
    totals = {"one": [0.0, 0, 0], "wide": [0.0, 0, 0]}
    all_identical = True
    for quantile in TAU_STEPS_QUANTILES:
        tau = float(np.quantile(exact, quantile))
        open_pixels = int((~stopping.tau_settled_mask(lower, upper, tau)).sum())
        request = RenderRequest.for_tau(tau, "quad", options=options)
        row: dict[str, Any] = {"quantile": quantile, "tau": tau, "open_pixels": open_pixels}
        masks = {}
        for label in ("one", "wide"):
            patch = (
                mock.patch.object(batch_engine, "tau_step_width", None)
                if label == "one"
                else nullcontext()
            )
            with patch:
                method.stats.reset()
                masks[label], seconds = _timed_best(lambda: renderer.render(request), repeats)
                stats = method.stats.as_dict()
            runs = max(repeats, 1)
            nodes = stats["node_evaluations"] / runs
            points = stats["point_evaluations"] / runs
            per_pixel = max(open_pixels, 1)
            row[label] = {
                "ms": round(seconds * 1e3, 3),
                "node_evals_per_open_px": round(nodes / per_pixel, 2),
                "point_evals_per_open_px": round(points / per_pixel, 2),
            }
            total = totals[label]
            total[0] += seconds
            total[1] += nodes
            total[2] += points
        identical = bool(np.array_equal(masks["one"], masks["wide"]))
        all_identical &= identical
        row["masks_identical"] = identical
        thresholds.append(row)
        print(
            f"  tau steps q={quantile:<5} open={open_pixels:<6d} "
            f"one {row['one']['ms']:8.1f} ms  wide {row['wide']['ms']:8.1f} ms  "
            f"identical={identical}"
        )
    node_ratio = totals["wide"][1] / max(totals["one"][1], 1)
    point_ratio = totals["wide"][2] / max(totals["one"][2], 1)
    return {
        "n": n,
        "resolution": list(resolution),
        "eps": eps,
        "tile_size": tile_size,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "step_nodes": batch_engine.TAU_STEP_NODES,
        "step_rows": batch_engine.TAU_STEP_ROWS,
        "thresholds": thresholds,
        "one_ms": round(totals["one"][0] * 1e3, 3),
        "wide_ms": round(totals["wide"][0] * 1e3, 3),
        "node_evals_ratio": round(node_ratio, 4),
        "point_evals_ratio": round(point_ratio, 4),
        "work_bound": TAU_STEPS_WORK_BOUND,
        "masks_identical": all_identical,
        "tau_steps_ok": bool(
            all_identical
            and node_ratio <= TAU_STEPS_WORK_BOUND
            and point_ratio <= TAU_STEPS_WORK_BOUND
        ),
    }


def run_benchmark(
    n: int,
    resolution: tuple[int, int],
    eps: float = 0.01,
    dataset: str = "crime",
    seed: int = 0,
    leaf_size: int = 256,
    tile_size: int = 64,
    workers: int = 4,
    repeats: int = 1,
    trace: bool = True,
    scaling: bool = True,
    pyramid_n: int | None = None,
    pyramid_zoom: int = 3,
    coreset_delta_cap: float = 0.01,
    tau_steps_n: int = TAU_STEPS_FULL["n"],
    tau_steps_resolution: tuple[int, int] = TAU_STEPS_FULL["resolution"],
) -> dict[str, Any]:
    """Run the scalar/batched comparison; return the report dictionary."""
    import numpy as np

    from repro.data.synthetic import load_dataset
    from repro.visual.executors import pool_supervision_totals
    from repro.visual.kdv import KDVRenderer
    from repro.visual.request import RenderOptions, RenderRequest

    points = load_dataset(dataset, n=n, seed=seed)
    renderer = KDVRenderer(
        points, resolution=resolution, kernel="gaussian", leaf_size=leaf_size
    )
    method = renderer.get_method("quad")  # offline stage, outside timing
    atol = 1e-9 * renderer.weight
    tiled = RenderOptions(tile_size=tile_size)
    tiled_workers = RenderOptions(tile_size=tile_size, workers=workers)

    def measure(label: str, fn: Callable[[], Any]) -> tuple[Any, dict[str, Any]]:
        method.stats.reset()
        result, seconds = _timed_best(fn, repeats)
        report = {"seconds": round(seconds, 6), "stats": method.stats.as_dict()}
        print(f"  {label:<16s} {seconds:8.3f}s")
        return result, report

    print(f"workload: {dataset} n={n} {resolution[0]}x{resolution[1]} eps={eps}")
    scalar_img, scalar_rep = measure(
        "eps scalar", lambda: renderer.render(RenderRequest.for_eps(eps, "quad"))
    )
    batch_img, batch_rep = measure(
        "eps batched",
        lambda: renderer.render(RenderRequest.for_eps(eps, "quad", options=tiled)),
    )
    workers_img, workers_rep = measure(
        f"eps workers={workers}",
        lambda: renderer.render(
            RenderRequest.for_eps(eps, "quad", options=tiled_workers)
        ),
    )
    batch_rep["speedup_vs_scalar"] = round(
        scalar_rep["seconds"] / batch_rep["seconds"], 3
    )
    workers_rep["speedup_vs_scalar"] = round(
        scalar_rep["seconds"] / workers_rep["seconds"], 3
    )

    exact = renderer.render_exact()
    envelope = {}
    for label, image in (("scalar", scalar_img), ("batch", batch_img),
                         ("workers", workers_img)):
        error = np.abs(image - exact)
        allowed = eps * exact + atol
        envelope[label] = {
            "within_envelope": bool(np.all(error <= allowed)),
            "max_rel_error": float(
                np.max(error / np.maximum(exact, np.finfo(np.float64).tiny))
            ),
        }

    tau = max(float(np.median(exact)), float(np.finfo(np.float64).tiny))
    scalar_mask, tau_scalar_rep = measure(
        "tau scalar", lambda: renderer.render(RenderRequest.for_tau(tau, "quad"))
    )
    batch_mask, tau_batch_rep = measure(
        "tau batched",
        lambda: renderer.render(RenderRequest.for_tau(tau, "quad", options=tiled)),
    )
    tau_batch_rep["speedup_vs_scalar"] = round(
        tau_scalar_rep["seconds"] / tau_batch_rep["seconds"], 3
    )
    masks_identical = bool(np.array_equal(scalar_mask, batch_mask))

    parity_section = _coreset_parity(renderer, delta_cap=coreset_delta_cap, seed=seed)

    # The acceptance workload's tree and a cold_explore-sized map
    # (perfbench's 40k points at the default leaf size).
    index_section = _index_build(
        [("acceptance", n, leaf_size), ("40k-leaf64", 40_000, 64)],
        dataset=dataset, seed=seed,
    )

    leaf_scan_section = _leaf_scan(renderer)
    tau_steps_section = _tau_steps(
        tau_steps_n, tau_steps_resolution, dataset=dataset, seed=seed, eps=0.05,
        repeats=max(repeats, 3),
    )

    pyramid_section: dict[str, Any] | None = None
    if pyramid_n is not None:
        pyramid_section = _coreset_pyramid(
            pyramid_n,
            dataset=dataset,
            seed=seed,
            tile_px=256,
            eps=0.05,
            zoom_threshold=pyramid_zoom,
            delta_cap=coreset_delta_cap,
            leaf_size=512,
            baseline_seconds=scalar_rep["seconds"],
        )

    scaling_section: dict[str, Any] | None = None
    if scaling:
        scaling_section = _parallel_scaling(
            renderer,
            eps=eps, atol=atol, exact=exact, tau=tau, scalar_mask=scalar_mask,
            tile_size=tile_size, repeats=repeats,
        )

    # Untimed traced pass: the timing runs above stay tracing-free (the
    # zero-overhead-when-off contract is part of what this report
    # documents), then one batched render of each op is re-run under a
    # scoped tracer so the report carries the refinement-depth and
    # bound-tightness summary of the exact workload it timed.
    trace_summary: dict[str, Any] | None = None
    if trace:
        from repro.obs.report import summarize_events
        from repro.obs.runtime import trace_to

        with trace_to() as tracer:
            renderer.render(RenderRequest.for_eps(eps, "quad", options=tiled))
            renderer.render(RenderRequest.for_tau(tau, "quad", options=tiled))
        trace_summary = summarize_events(tracer.events())

    return {
        "benchmark": "engine_batching",
        "generated_by": "tools/bench_report.py",
        "workload": {
            "dataset": dataset,
            "kernel": "gaussian",
            "n": n,
            "resolution": list(resolution),
            "eps": eps,
            "atol": atol,
            "leaf_size": leaf_size,
            "tile_size": tile_size,
            "workers": workers,
            "repeats": repeats,
            "seed": seed,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "eps_render": {
            "scalar": scalar_rep,
            "batch": batch_rep,
            "batch_workers": workers_rep,
        },
        "tau_render": {
            "tau": tau,
            "scalar": tau_scalar_rep,
            "batch": tau_batch_rep,
            "masks_identical": masks_identical,
        },
        "parallel_scaling": scaling_section,
        # Pool breaks and rebuilds over the whole run: a REPRO_FAULTS
        # chaos run that killed no worker reads zero rebuilds here.
        "pool_supervision": pool_supervision_totals(),
        "coreset_parity": parity_section,
        "coreset_pyramid": pyramid_section,
        "index_build": index_section,
        "leaf_scan": leaf_scan_section,
        "tau_steps": tau_steps_section,
        "validation": {
            "eps_envelope": envelope,
            "tau_masks_identical": masks_identical,
            "coreset_parity_ok": parity_section["within_delta"],
            "index_aggregates_ok": index_section["index_aggregates_ok"],
            "leaf_scan_ok": leaf_scan_section["leaf_scan_ok"],
            "tau_steps_ok": tau_steps_section["tau_steps_ok"],
            "parallel_scaling_ok": (
                None if scaling_section is None
                else scaling_section["all_identical_and_within_envelope"]
            ),
        },
        "trace": trace_summary,
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized workload (seconds); skips writing BENCH_engine.json "
        "unless --output is given",
    )
    parser.add_argument("--dataset", default="crime")
    parser.add_argument("--eps", type=float, default=0.01)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--tile-size", type=int, default=64)
    parser.add_argument(
        "--workers", type=int, default=4,
        help="worker count of the workers measurement; 2 or more renders "
        "on the process pool",
    )
    parser.add_argument(
        "--pyramid-n", type=int, default=1_000_000,
        help="point count for the coreset_pyramid cold-latency section "
        "(full mode only; smoke always skips it)",
    )
    parser.add_argument(
        "--no-pyramid", action="store_true",
        help="skip the coreset_pyramid section even in full mode",
    )
    parser.add_argument(
        "--no-scaling", action="store_true",
        help="skip the parallel-scaling sweep over worker counts",
    )
    parser.add_argument(
        "--no-trace", action="store_true",
        help="skip the untimed traced pass (report carries no trace summary)",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="report path (default: BENCH_engine.json at the repo root; "
        "omitted entirely for --smoke)",
    )
    args = parser.parse_args(argv)

    workload = SMOKE_WORKLOAD if args.smoke else FULL_WORKLOAD
    tau_steps = TAU_STEPS_SMOKE if args.smoke else TAU_STEPS_FULL
    report = run_benchmark(
        n=workload["n"],
        resolution=workload["resolution"],
        eps=args.eps,
        dataset=args.dataset,
        tile_size=args.tile_size,
        workers=args.workers,
        repeats=args.repeats,
        trace=not args.no_trace,
        scaling=not args.no_scaling,
        pyramid_n=(
            None if args.smoke or args.no_pyramid else args.pyramid_n
        ),
        tau_steps_n=tau_steps["n"],
        tau_steps_resolution=tau_steps["resolution"],
    )
    report["smoke"] = args.smoke

    output = args.output
    if output is None and not args.smoke:
        output = REPO_ROOT / "BENCH_engine.json"
    if output is not None:
        # allow_nan=False: a NaN/Inf anywhere in the report is a bug in
        # the summarisation (it would silently produce invalid JSON).
        output.write_text(json.dumps(report, indent=2, allow_nan=False) + "\n")
        print(f"wrote {output}")

    failures = []
    for label, entry in report["validation"]["eps_envelope"].items():
        if not entry["within_envelope"]:
            failures.append(f"eps envelope violated by the {label} schedule")
    if not report["validation"]["tau_masks_identical"]:
        failures.append("tau masks differ between scalar and batched schedules")
    if not report["validation"]["coreset_parity_ok"]:
        failures.append(
            "coreset density drifted beyond its delta_abs bound "
            "(see the coreset_parity section)"
        )
    if not report["validation"]["index_aggregates_ok"]:
        failures.append(
            "a kd-tree node's rectangle or aggregates do not match its "
            "members (see the index_build section)"
        )
    if not report["validation"]["leaf_scan_ok"]:
        failures.append(
            "the leaf scan changed a value or allocated more than "
            f"{LEAF_SCAN_PEAK_BLOCKS} blocks (see the leaf_scan section)"
        )
    if not report["validation"]["tau_steps_ok"]:
        failures.append(
            "wide tau steps changed a mask or spent more than "
            f"{TAU_STEPS_WORK_BOUND}x the evaluations per open pixel of one "
            "node per step (see the tau_steps section)"
        )
    if report["validation"]["parallel_scaling_ok"] is False:
        failures.append(
            "parallel-scaling sweep broke cross-executor identity or the "
            "eps envelope (see the parallel_scaling section)"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    speedup = report["eps_render"]["batch"]["speedup_vs_scalar"]
    print(f"batched eps speedup vs scalar: {speedup}x")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
