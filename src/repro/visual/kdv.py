"""KDV colour-map rendering — the library's visualization front door.

:class:`KDVRenderer` evaluates a kernel density over every pixel of a
:class:`~repro.visual.grid.PixelGrid` using any registered method and
returns the density image (εKDV) or hotspot mask (τKDV). Fitted methods
are cached per renderer, so sweeping ε or τ (as the experiments do)
pays the index build once — matching how the paper separates offline and
online stages.

:meth:`KDVRenderer.render` is the single entrypoint: it consumes a
frozen :class:`~repro.visual.request.RenderRequest` (what to render)
carrying :class:`~repro.visual.request.RenderOptions` (how to run it).
Every tiled render, strict or anytime, runs through one tile driver
with two executors: in-process, or the method's process pool when
``workers >= 2``. The bare ``render_eps(eps, method, atol=)`` and
``render_tau(tau, method)`` forms are shorthands for a request with
default options (see ``docs/api.md``).
"""

from __future__ import annotations

import hashlib
import time
import warnings
from contextlib import nullcontext
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.contracts.runtime import invariants_enabled
from repro.core import stopping
from repro.core.engine import QueryStats
from repro.core.exact import exact_density
from repro.core.kernels import get_kernel
from repro.data.bandwidth import scott_gamma
from repro.errors import InvalidParameterError, UnsupportedOperationError
from repro.methods.base import IndexedMethod, Method
from repro.methods.registry import create_method
from repro.obs.runtime import current_tracer, trace_to
from repro.resilience.budget import (
    STOP_INTERRUPT,
    STOP_TILE_FAILURES,
    CancellationToken,
)
from repro.resilience.checkpoint import TileLedger
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.result import DegradedResult, RenderOutcome
from repro.resilience.retry import RetryPolicy, TransientTileError
from repro.resilience.runner import TileRunReport, run_tiles
from repro.utils.validation import check_points, check_positive
from repro.visual.colormap import get_colormap, two_color_map
from repro.visual.grid import PixelGrid
from repro.visual.image import write_png
from repro.visual.request import OP_EPS, OP_TAU, RenderOptions, RenderRequest

if TYPE_CHECKING:
    import os
    from pathlib import Path
    from typing import Callable, Mapping

    from repro._types import BoolArray, FloatArray, IntArray, KernelLike, PointLike
    from repro.core.batch_engine import BatchRefinementEngine
    from repro.obs.sinks import TraceSink
    from repro.visual.colormap import Colormap
    from repro.visual.executors import ProcessTileExecutor

    #: Anything ``repro.obs.sinks.resolve_sink`` accepts as a trace target.
    TraceTarget = TraceSink | Callable[[Mapping[str, Any]], object] | str | Path | None

    #: Anything the render methods accept as a fault specification.
    FaultsLike = FaultInjector | FaultPlan | str | None

__all__ = ["KDVRenderer"]

#: The paper's τKDV threshold offsets: tau = mu + k * sigma (Section 7.2).
DEFAULT_TAU_OFFSETS = (-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3)

#: Default tile edge (pixels) for tiled/batched rendering: 64x64 tiles
#: give ~4k-pixel batches — wide enough to amortise per-node Python
#: overhead, small enough that retired pixels stop costing quickly.
DEFAULT_TILE_SIZE = 64

class KDVRenderer:
    """Render kernel density colour maps over a pixel grid.

    Parameters
    ----------
    points:
        2-D data points.
    resolution:
        ``(width, height)`` of the pixel grid (ignored when ``grid`` is
        given).
    kernel:
        Kernel name or instance.
    gamma:
        Bandwidth parameter; defaults to Scott's rule (as in the paper).
    weight:
        Per-point weight; defaults to ``1 / n``.
    grid:
        Optional explicit :class:`~repro.visual.grid.PixelGrid`.
    point_weights:
        Optional non-negative per-point multipliers ``w_i`` of shape
        ``(n,)`` — the density becomes ``weight * sum_i w_i K(q, p_i)``.
        Used by the coreset tier, where each representative stands for
        ``w_i`` original points.
    method_options:
        Default keyword arguments for method construction (e.g.
        ``leaf_size``).
    """

    def __init__(
        self,
        points: PointLike,
        resolution: tuple[int, int] = (320, 240),
        kernel: KernelLike = "gaussian",
        gamma: float | None = None,
        weight: float | None = None,
        grid: PixelGrid | None = None,
        point_weights: PointLike | None = None,
        **method_options: Any,
    ) -> None:
        self.points = check_points(points)
        if self.points.shape[1] != 2:
            raise InvalidParameterError(
                f"KDV renders 2-D data, got {self.points.shape[1]} dims; "
                "reduce dimensionality first (see repro.data.pca_project)"
            )
        self.kernel = get_kernel(kernel)
        if gamma is None:
            gamma = scott_gamma(self.points, self.kernel)
        self.gamma = check_positive(gamma, "gamma")
        if weight is None:
            weight = 1.0 / self.points.shape[0]
        self.weight = check_positive(weight, "weight")
        if point_weights is not None:
            point_weights = np.ascontiguousarray(point_weights, dtype=np.float64)
            if point_weights.shape != (self.points.shape[0],):
                raise InvalidParameterError(
                    f"point_weights must have shape ({self.points.shape[0]},), "
                    f"got {point_weights.shape}"
                )
        self.point_weights = point_weights
        if grid is None:
            width, height = resolution
            grid = PixelGrid.fit(self.points, width, height)
        self.grid = grid
        self.method_options = method_options
        self._methods: dict[str, Method] = {}
        self._exact_image: FloatArray | None = None

    # -- method management -------------------------------------------------

    def get_method(self, method: str | Method) -> Method:
        """Return a fitted method instance (cached per name)."""
        if isinstance(method, Method):
            if method.points is None:
                method.fit(
                    self.points, self.kernel, self.gamma, self.weight,
                    point_weights=self.point_weights,
                )
            return method
        key = str(method).lower()
        fitted = self._methods.get(key)
        if fitted is None:
            fitted = create_method(key, **self.method_options)
            fitted.fit(
                self.points, self.kernel, self.gamma, self.weight,
                point_weights=self.point_weights,
            )
            self._methods[key] = fitted
        return fitted

    # -- rendering ----------------------------------------------------------

    def render_exact(self) -> FloatArray:
        """The exact density image, shape ``(height, width)`` (cached)."""
        if self._exact_image is None:
            values = exact_density(
                self.points, self.grid.centers(), self.kernel, self.gamma,
                self.weight, point_weights=self.point_weights,
            )
            self._exact_image = self.grid.to_image(values)
        return self._exact_image

    def _tiled_method(self, method: str | Method, operation: str) -> IndexedMethod:
        """Resolve ``method`` for tiled rendering (index-based only)."""
        fitted = self.get_method(method)
        if not isinstance(fitted, IndexedMethod):
            raise UnsupportedOperationError(
                f"tiled rendering needs an index-based method, got {fitted.name!r}"
            )
        fitted._require(operation)
        return fitted

    # -- unified entrypoint --------------------------------------------------

    def render(
        self, request: RenderRequest
    ) -> FloatArray | BoolArray | RenderOutcome:
        """Render one :class:`~repro.visual.request.RenderRequest`.

        The single entrypoint every public render path funnels through.
        The request is :meth:`~repro.visual.request.RenderRequest.resolve`-d
        against this renderer first (filling kernel/bandwidth/grid
        defaults, rejecting mismatches), then dispatched:

        * ``op="eps"`` returns the density image (``float64``,
          ``(height, width)``);
        * ``op="tau"`` returns the hotspot mask (``bool``);
        * ``options.anytime=True`` returns the full
          :class:`~repro.resilience.result.RenderOutcome` instead.

        A request with all-default options renders every pixel in one
        batch through the method's own ``batch_eps``/``batch_tau``. Any
        of ``tile_size``, ``workers``, ``backend``, ``anytime`` or a
        resilience option sends it through the tile driver
        (:meth:`_render_anytime_impl`): in-process, or over the method's
        process pool when ``workers >= 2``. A strict render (not
        ``anytime``) is the same run followed by a raise when tiles were
        lost; with no resilience option and no ``REPRO_FAULTS`` plan it
        fails fast — the first tile exception propagates with its own
        type and ``fitted.stats`` is left unchanged.

        A request targeting a different ``grid`` renders through a
        shared-index clone (:meth:`with_grid`), so viewport/tile
        requests pay no extra index build.
        """
        resolved = request.resolve(self)
        options = resolved.options
        if options.trace is not None:
            with trace_to(options.trace):
                return self._render_resolved(
                    resolved.replace(options=options.replace(trace=None))
                )
        return self._render_resolved(resolved)

    def _render_resolved(
        self, request: RenderRequest
    ) -> FloatArray | BoolArray | RenderOutcome:
        if request.grid is not self.grid:
            return self.with_grid(request.grid)._render_resolved(request)
        options = request.options
        op = request.op
        if op == OP_EPS:
            assert request.eps is not None and request.atol is not None
            params = {"eps": float(request.eps), "atol": float(request.atol)}
        else:
            assert request.tau is not None
            params = {"tau": float(request.tau)}
        if options.envelope is not None and (
            op != OP_TAU
            or options.checkpoint is not None
            or options.resume_from is not None
        ):
            raise InvalidParameterError(
                "envelope= starts a τ render only, without checkpoint or "
                "resume: a narrowed start would change ε answers, and the "
                "batches it leaves open do not index a checkpoint ledger"
            )
        fail_fast = not (options.anytime or options.resilience_engaged)
        if fail_fast:
            if (
                options.tile_size is None
                and options.workers is None
                and options.backend is None
            ):
                return self._render_plain(request.method, op, params)
            # The CI chaos hook: a REPRO_FAULTS plan makes every tiled
            # render resilient.
            plan = FaultPlan.from_env()
            fail_fast = plan is None or plan.empty
        fitted = self._tiled_method(request.method, op)
        tracer = current_tracer()
        with nullcontext() if tracer is None else tracer.method_scope(fitted.name):
            outcome = self._render_anytime_impl(
                fitted, op, params, options, fail_fast=fail_fast, tracer=tracer
            )
        if options.anytime:
            return outcome
        degraded = outcome.degraded
        if degraded is not None and degraded.reason == STOP_TILE_FAILURES:
            raise TransientTileError(
                f"{op} render lost {len(degraded.tiles_failed)} tile(s) "
                "after retries; render with anytime=True for the partial "
                "envelopes"
            )
        if op == OP_EPS:
            return outcome.image
        mask: BoolArray = outcome.image.astype(bool)
        return mask

    def _render_plain(
        self, method: str | Method, op: str, params: dict[str, float]
    ) -> FloatArray | BoolArray:
        """Every pixel in one batch through the method's own batch query."""
        fitted = self.get_method(method)
        tracer = current_tracer()
        start = time.perf_counter()
        centers = self.grid.centers()
        if op == OP_EPS:
            values = fitted.batch_eps(centers, params["eps"], atol=params["atol"])
        else:
            values = fitted.batch_tau(centers, params["tau"])
        if tracer is not None:
            with tracer.method_scope(fitted.name):
                tracer.render(
                    op=op,
                    pixels=self.grid.num_pixels,
                    tiles=0,
                    workers=1,
                    seconds=time.perf_counter() - start,
                )
        return self.grid.to_image(values)

    # -- bare ε/τ wrappers ----------------------------------------------------

    def render_eps(
        self,
        eps: float = 0.01,
        method: str | Method = "quad",
        *,
        atol: float | None = None,
    ) -> FloatArray:
        """εKDV colour-map values, shape ``(height, width)``.

        Shorthand for ``render(RenderRequest.for_eps(eps, method,
        atol=atol))``; execution options (tiling, workers, budgets, ...)
        go on :class:`~repro.visual.request.RenderOptions`.

        ``atol`` defaults to a vanishing fraction of a single point's
        weight (``1e-9 * w``), which caps the work spent on pixels whose
        exact density underflows — and absorbs the ~``1e-16 * F_max``
        floating-point floor inherent to incremental refinement — while
        leaving the ``(1 ± eps)`` contract intact everywhere a pixel is
        visibly coloured.
        """
        image: FloatArray = self.render(  # type: ignore[assignment]
            RenderRequest.for_eps(eps, method, atol=atol)
        )
        return image

    def render_tau(self, tau: float, method: str | Method = "quad") -> BoolArray:
        """τKDV hotspot mask, boolean, shape ``(height, width)``.

        Shorthand for ``render(RenderRequest.for_tau(tau, method))``.
        """
        mask: BoolArray = self.render(  # type: ignore[assignment]
            RenderRequest.for_tau(tau, method)
        )
        return mask

    # -- the tile driver -----------------------------------------------------

    def _render_signature(
        self,
        fitted: IndexedMethod,
        op: str,
        params: dict[str, float],
        tile_shape: tuple[int, int],
    ) -> dict[str, Any]:
        """Checkpoint signature: everything that shapes per-tile values.

        Two renders with equal signatures produce bit-identical tile
        values (dataset, kernel, bandwidth, grid geometry, method and
        its options, operation parameters, and the tile partitioning
        that defines tile indices), so resuming across them is safe.
        It hashes the whole point array, so only renders that write or
        resume a checkpoint build it.
        """
        return {
            "format": "repro-render-v1",
            "points_sha1": hashlib.sha1(self.points.tobytes()).hexdigest(),
            "point_weights_sha1": (
                None
                if self.point_weights is None
                else hashlib.sha1(self.point_weights.tobytes()).hexdigest()
            ),
            "n": int(self.points.shape[0]),
            "kernel": self.kernel.name,
            "gamma": float(self.gamma),
            "weight": float(self.weight),
            "grid": [
                int(self.grid.width),
                int(self.grid.height),
                [float(v) for v in self.grid.low],
                [float(v) for v in self.grid.high],
            ],
            "method": fitted.name,
            "method_options": {
                key: repr(value)
                for key, value in sorted(self.method_options.items())
            },
            "op": op,
            "params": params,
            "tile": [int(tile_shape[0]), int(tile_shape[1])],
        }

    def _run_tiles_process(
        self,
        pool: ProcessTileExecutor,
        tree: Any,
        tile_list: list[IntArray],
        centers: FloatArray,
        op: str,
        params: dict[str, float],
        *,
        skip: set[int] | None,
        token: CancellationToken,
        tracer: Any,
        store: Callable[[int, IntArray, FloatArray, FloatArray], None],
        tile_complete: Callable[[FloatArray, FloatArray], bool],
        stats: QueryStats,
        faults: FaultPlan | None,
        fail_fast: bool,
    ) -> tuple[TileRunReport, list[float]]:
        """The pool executor: drain the tiles over the process pool.

        ``tree`` is the fitted method's tree, which names the published
        tree the workers refine (a dataset's pool holds several).

        The pool counterpart of :func:`repro.resilience.runner.run_tiles`
        (without retries): tiles drain from the pool's shared queue,
        envelopes stream back through ``store`` as they complete, and
        the parent token's latch (deadline, kernel budget, Ctrl-C)
        propagates to the workers through the shared cancellation slot —
        cut-short tiles land as *partial* with valid best-so-far
        ``(LB, UB)``, never as failures. ``faults`` (the process-level
        half of a fault plan) executes inside the workers; a worker a
        fault kills triggers the executor's supervised pool
        rebuild-and-replay. With ``fail_fast`` the lowest-indexed tile's
        exception (or a Ctrl-C) is re-raised before any stats merge.

        Returns the :class:`~repro.resilience.runner.TileRunReport` the
        in-process runner produces, plus each pool worker's busy
        seconds (``0.0`` for a worker that ran no tile).
        """
        from repro.visual.executors import TileJob

        run_start = time.perf_counter()
        jobs = [
            TileJob(index, pixels, centers[pixels])
            for index, pixels in enumerate(tile_list)
            if skip is None or index not in skip
        ]

        def on_result(index: int, payload: tuple[FloatArray, FloatArray]) -> None:
            lo, up = payload
            store(index, tile_list[index], lo, up)

        outcome = pool.run(
            jobs, op=op, params=params, token=token, tracer=tracer,
            on_result=on_result, faults=faults, tree=tree,
        )
        if fail_fast:
            if outcome.keyboard_interrupt:
                raise KeyboardInterrupt
            if outcome.errors:
                raise outcome.errors[min(outcome.errors)]
        stats.merge(outcome.stats)
        if outcome.keyboard_interrupt and tracer is not None:
            tracer.recovery(action="cancel", reason=STOP_INTERRUPT)
        report = TileRunReport()
        for job in jobs:
            index = job.index
            if index in outcome.errors:
                report.failed[index] = str(outcome.errors[index])
            elif index in outcome.payloads:
                lo, up = outcome.payloads[index]
                if tile_complete(lo, up):
                    report.completed.append(index)
                else:
                    report.partial.append(index)
            else:
                report.unprocessed.append(index)
        report.elapsed_s = time.perf_counter() - run_start
        seconds = outcome.worker_seconds
        busy = [
            seconds.get(worker, 0.0)
            for worker in range(max(pool.workers, len(seconds)))
        ]
        return report, busy

    def _render_anytime_impl(
        self,
        fitted: IndexedMethod,
        op: str,
        params: dict[str, float],
        options: RenderOptions,
        *,
        fail_fast: bool,
        tracer: Any,
    ) -> RenderOutcome:
        """The one tile driver behind every tiled render, strict or anytime.

        Every pixel starts at the root node's ``(LB, UB)`` envelope (or,
        for a τ render, at ``options.envelope``: the pixels it settles
        keep it, the rest refine in full-size batches of open pixels),
        then the tiles refine through one of two executors: in-process
        (:func:`~repro.resilience.runner.run_tiles`, sequential) or, with
        ``workers >= 2``, the
        :class:`~repro.visual.executors.ProcessTileExecutor` that
        ``fitted.process_executor`` returns (the method's own, or its
        dataset's shared pool; ``None`` renders in-process). Both write
        disjoint slices of the same envelope arrays, so the answers are
        bit-identical across executors, and a complete render equals the
        strict one.

        ``fail_fast`` (a strict render with no resilience option) runs
        without retries: the first tile exception propagates with its
        own type, no further in-process tile starts, and the render's
        work is not merged into ``fitted.stats``. Otherwise transient
        tile errors retry under ``options.retry`` (default
        :class:`~repro.resilience.retry.RetryPolicy`), and the work that
        ran is merged even when the render stops early. ``retry=`` and
        the in-process fault kinds are features of the in-process
        runner, so a ``workers >= 2`` render that carries them runs
        in-process, with a warning.
        """
        start = time.perf_counter()
        centers = self.grid.centers()
        n_pixels = self.grid.num_pixels
        tile_size = (
            DEFAULT_TILE_SIZE if options.tile_size is None else options.tile_size
        )
        tile_shape = (
            (int(tile_size), int(tile_size))
            if np.isscalar(tile_size)
            else (int(tile_size[0]), int(tile_size[1]))  # type: ignore[index]
        )
        backend = options.backend
        budget = options.budget

        token = options.cancel
        if token is None:
            token = budget.token() if budget is not None else CancellationToken()
        token.start()

        faults = options.faults
        injector: FaultInjector | None
        if isinstance(faults, FaultInjector):
            injector = faults
        else:
            if isinstance(faults, FaultPlan):
                plan: FaultPlan | None = faults
            elif isinstance(faults, str):
                plan = FaultPlan.parse(faults)
            else:
                plan = FaultPlan.from_env()
            injector = (
                FaultInjector(plan, tracer)
                if plan is not None and not plan.empty
                else None
            )

        pool: ProcessTileExecutor | None = None
        process_faults: FaultPlan | None = None
        workers = 1 if options.workers is None else int(options.workers)
        if workers >= 2:
            if injector is not None and options.retry is None:
                # Process-level fault kinds (worker_kill / pool_break /
                # slow_response) execute *inside* worker processes, so a
                # plan made only of those stays on the pool — that is
                # what lets CI chaos-test the supervised pool for real.
                proc_plan, in_process_plan = injector.plan.partition_process()
                if in_process_plan.empty:
                    process_faults = None if proc_plan.empty else proc_plan
                    injector = None
            if injector is not None or options.retry is not None:
                warnings.warn(
                    "retry= and the in-process fault kinds (worker_crash, "
                    "slow_tile, nan_bounds, oom) are features of the "
                    f"in-process tile runner; this workers={workers} render "
                    "runs in-process instead of on the process pool "
                    "(process-level fault kinds alone — worker_kill, "
                    "pool_break, slow_response — keep the pool)",
                    RuntimeWarning,
                    stacklevel=4,
                )
            else:
                pool = fitted.process_executor(workers, backend)

        stats = QueryStats()
        engine = fitted.make_batch_engine(stats, backend=backend)
        if options.envelope is None:
            tile_list = list(self.grid.tiles(tile_size))
            lower, upper = engine.root_envelope(centers)
        else:
            lower = np.array(options.envelope[0], dtype=np.float64).reshape(-1)
            upper = np.array(options.envelope[1], dtype=np.float64).reshape(-1)
            if lower.shape != (n_pixels,) or upper.shape != (n_pixels,):
                raise InvalidParameterError(
                    f"envelope must hold {n_pixels} lower and upper bounds, got "
                    f"{lower.size} and {upper.size}"
                )
            open_pixels = np.flatnonzero(
                ~stopping.tau_settled_mask(lower, upper, params["tau"])
            )
            batch = tile_shape[0] * tile_shape[1]
            tile_list = [
                open_pixels[first : first + batch]
                for first in range(0, open_pixels.size, batch)
            ]
        n_tiles = len(tile_list)
        completed_flags = np.zeros(n_tiles, dtype=bool)

        if op == OP_EPS:
            eps, atol = params["eps"], params["atol"]
            one_plus_eps = 1.0 + eps

            def evaluate(
                engine: BatchRefinementEngine, pixels: IntArray
            ) -> tuple[FloatArray, FloatArray]:
                return engine.query_eps_bounds(
                    centers[pixels], eps, atol=atol, cancel=token
                )

            def resolved_rows(lo: FloatArray, up: FloatArray) -> BoolArray:
                return stopping.eps_stop_mask(lo, up, one_plus_eps, 0.0, atol)

        else:
            tau = params["tau"]

            def evaluate(
                engine: BatchRefinementEngine, pixels: IntArray
            ) -> tuple[FloatArray, FloatArray]:
                return engine.query_tau_bounds(centers[pixels], tau, cancel=token)

            def resolved_rows(lo: FloatArray, up: FloatArray) -> BoolArray:
                return stopping.tau_stop_mask(lo, up, tau)

        signature: dict[str, Any] | None = None
        if options.checkpoint is not None or options.resume_from is not None:
            signature = self._render_signature(fitted, op, params, tile_shape)
        skip: set[int] | None = None
        if options.resume_from is not None:
            assert signature is not None
            ledger = TileLedger.load(options.resume_from)
            ledger.require_signature(signature)
            skip = ledger.completed_tiles()
            for index in skip:
                pixels = tile_list[index]
                lower[pixels] = ledger.lower[pixels]
                upper[pixels] = ledger.upper[pixels]
                completed_flags[index] = True

        def store(
            index: int, pixels: IntArray, lo: FloatArray, up: FloatArray
        ) -> None:
            lower[pixels] = lo
            upper[pixels] = up
            if bool(resolved_rows(lo, up).all()):
                completed_flags[index] = True

        def tile_complete(lo: FloatArray, up: FloatArray) -> bool:
            return bool(resolved_rows(lo, up).all())

        busy: list[float] | None = None
        merge_stats = not fail_fast
        try:
            if pool is not None:
                report, busy = self._run_tiles_process(
                    pool, fitted.tree, tile_list, centers, op, params, skip=skip,
                    token=token, tracer=tracer, store=store,
                    tile_complete=tile_complete, stats=stats,
                    faults=process_faults, fail_fast=fail_fast,
                )
            else:
                retry = options.retry
                if retry is None and not fail_fast:
                    retry = RetryPolicy()
                report = run_tiles(
                    tile_list, evaluate, store, tile_complete, engine,
                    token=token, retry=retry, faults=injector, tracer=tracer,
                    skip=skip, op=op,
                )
            merge_stats = True
        finally:
            # A resilient render merges the work that ran even when a
            # fatal error propagates (partial work is its deliverable);
            # a fail-fast one merges only on success. The checkpoint is
            # written either way, so completed tiles survive a crash.
            if merge_stats:
                fitted.stats.merge(stats)
            if options.checkpoint is not None:
                assert signature is not None
                TileLedger(signature, lower, upper, completed_flags).save(
                    options.checkpoint
                )

        if op == OP_EPS:
            values: np.ndarray = 0.5 * (lower + upper)
        else:
            values = stopping.tau_hot_mask(lower, params["tau"])
        resolved_mask = resolved_rows(lower, upper)
        resolved = int(resolved_mask.sum())
        if resolved == n_pixels:
            worst_gap = 0.0
        else:
            worst_gap = float(np.max((upper - lower)[~resolved_mask]))

        if token.triggered:
            reason: str | None = token.reason
        elif not report.all_completed:
            reason = STOP_TILE_FAILURES
        else:
            reason = None

        elapsed = time.perf_counter() - start
        degraded: DegradedResult | None = None
        if reason is not None:
            budget_dict = None
            if budget is not None:
                budget_dict = budget.as_dict()
            elif token.budget is not None:
                budget_dict = token.budget.as_dict()
            degraded = DegradedResult(
                reason=reason,
                pixels_total=n_pixels,
                pixels_resolved=resolved,
                worst_gap=worst_gap,
                tiles_total=n_tiles,
                tiles_completed=int(completed_flags.sum()),
                tiles_failed=[
                    {"tile": index, "error": message}
                    for index, message in sorted(report.failed.items())
                ],
                retries=report.retries,
                faults_injected=report.faults_injected,
                elapsed_s=elapsed,
                budget=budget_dict,
            )
        elif (
            op == OP_EPS
            and invariants_enabled()
            and fitted.deterministic_guarantee
        ):
            # A complete render honours the eps-agreement contract check.
            fitted._check_eps_agreement(
                centers, values, params["eps"], params["atol"]
            )

        if tracer is not None:
            tracer.render(
                op=op,
                pixels=n_pixels,
                tiles=n_tiles,
                workers=1 if pool is None else pool.workers,
                seconds=elapsed,
                worker_busy=busy,
            )

        return RenderOutcome(
            image=self.grid.to_image(values),
            lower=self.grid.to_image(lower),
            upper=self.grid.to_image(upper),
            resolved=self.grid.to_image(resolved_mask),
            degraded=degraded,
            stats=None,
            checkpoint_path=(
                None if options.checkpoint is None else str(options.checkpoint)
            ),
        )

    # -- interactive viewport operations ------------------------------------

    def with_grid(self, grid: PixelGrid) -> KDVRenderer:
        """A renderer over a different viewport/resolution, sharing state.

        The fitted methods (kd-trees, samples) are viewport-independent,
        so pan/zoom re-renders reuse them at zero extra offline cost —
        the interactive-exploration pattern of the paper's Section 6
        motivation. Only the exact-image cache is dropped.
        """
        clone = KDVRenderer.__new__(KDVRenderer)
        clone.points = self.points
        clone.kernel = self.kernel
        clone.gamma = self.gamma
        clone.weight = self.weight
        clone.point_weights = self.point_weights
        clone.grid = grid
        clone.method_options = self.method_options
        clone._methods = self._methods  # shared: indexes are reusable
        clone._exact_image = None
        return clone

    def zoom(
        self,
        center: PointLike,
        factor: float,
        resolution: tuple[int, int] | None = None,
    ) -> KDVRenderer:
        """A renderer zoomed on ``center`` by ``factor`` (> 1 zooms in).

        Parameters
        ----------
        center:
            Data-space ``(x, y)`` to centre the new viewport on (clamped
            so the viewport stays inside the current one for factors
            > 1).
        factor:
            Viewport shrink factor; 2.0 shows a quarter of the area.
        resolution:
            Optional ``(width, height)`` override (defaults to the
            current resolution).
        """
        factor = check_positive(factor, "factor")
        center = np.asarray(center, dtype=np.float64).reshape(-1)
        if center.shape != (2,):
            raise InvalidParameterError("center must be a 2-D point")
        extent = (self.grid.high - self.grid.low) / factor
        low = center - extent / 2.0
        high = center + extent / 2.0
        if resolution is None:
            resolution = self.grid.resolution
        grid = PixelGrid(resolution[0], resolution[1], low, high)
        return self.with_grid(grid)

    def pan(self, delta: PointLike) -> KDVRenderer:
        """A renderer with the viewport shifted by ``delta`` (data units)."""
        delta = np.asarray(delta, dtype=np.float64).reshape(-1)
        if delta.shape != (2,):
            raise InvalidParameterError("delta must be a 2-D offset")
        grid = PixelGrid(
            self.grid.width,
            self.grid.height,
            self.grid.low + delta,
            self.grid.high + delta,
        )
        return self.with_grid(grid)

    # -- thresholds -----------------------------------------------------------

    def density_stats(self) -> tuple[float, float]:
        """``(mu, sigma)`` of the exact per-pixel densities.

        The paper's τKDV experiments express thresholds as
        ``mu + k * sigma`` over all pixels (Section 7.2).
        """
        image = self.render_exact()
        return float(image.mean()), float(image.std())

    def thresholds(self, offsets: Sequence[float] = DEFAULT_TAU_OFFSETS) -> list[float]:
        """The paper's seven thresholds ``mu + k sigma`` (clamped > 0)."""
        mu, sigma = self.density_stats()
        floor = np.finfo(np.float64).tiny
        return [max(mu + k * sigma, floor) for k in offsets]

    # -- saving -----------------------------------------------------------------

    def save_density_png(
        self,
        image: PointLike,
        path: str | os.PathLike[str],
        colormap: str | Colormap = "density",
        *,
        log_scale: bool = True,
    ) -> Path:
        """Save a density image as a coloured PNG."""
        rgb = get_colormap(colormap).apply(np.asarray(image), log_scale=log_scale)
        return write_png(path, rgb)

    def save_mask_png(self, mask: PointLike, path: str | os.PathLike[str]) -> Path:
        """Save a τKDV mask as a two-colour PNG (Figure 2c style)."""
        return write_png(path, two_color_map(mask))

    def __repr__(self) -> str:
        return (
            f"KDVRenderer(n={self.points.shape[0]}, kernel={self.kernel.name!r}, "
            f"grid={self.grid.width}x{self.grid.height})"
        )
