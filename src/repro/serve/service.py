"""The tile service: request planning, caching, rendering, backpressure.

:class:`TileService` is the synchronous heart of ``repro serve`` — the
asyncio HTTP layer (:mod:`repro.serve.http`) is a thin adapter over it,
and tests drive it directly. One tile request flows through:

1. **Plan** — :meth:`TileService.plan_tile` resolves the dataset entry,
   derives the tile's :class:`~repro.visual.grid.PixelGrid`, builds the
   canonical :class:`~repro.visual.request.RenderRequest` and computes
   the three cache keys (PNG / density / root-bounds levels).
2. **L1 lookup** — :meth:`TileService.lookup_png` counts the request
   and runs the dictionary-cheap :meth:`TileService.cached_png` check,
   which the HTTP layer does on the event loop itself, so warm tiles
   never wait behind cold renders in the worker pool.
3. **Render** — :meth:`TileService.render_tile` runs on the worker
   pool, deduplicated per PNG key by a
   :class:`~repro.utils.cache.SingleFlight` (a thundering herd of
   identical tile requests does one render), consults the density
   level, and renders through the one ``KDVRenderer.render(request)``
   entrypoint — one tile-driver run on one renderer at every shard
   count — under a per-request
   :class:`~repro.resilience.budget.Budget` deadline. A τ tile starts
   from the bounds level, the tightest envelope earlier complete
   renders of its grid left, and refines only the pixels that
   envelope leaves open; every complete render narrows that entry.
   A degraded result is never cached: a tripped deadline raises
   :class:`~repro.errors.DeadlineExceededError` (HTTP 504).
4. **Backpressure** — admission control is a counting semaphore over
   render slots (:meth:`try_acquire_slot`); when the bounded queue is
   full the HTTP layer answers 503 instead of stacking work.
5. **Degrade-don't-fail** — :meth:`TileService.serve_tile` wraps the
   strict render in the overload policy: a per-dataset
   :class:`~repro.resilience.supervisor.CircuitBreaker` rejects
   requests against a dataset that keeps failing *before* they burn a
   worker slot; a tripped deadline serves the anytime render's partial
   envelope (when one exists); a failed render falls back to the last
   known-good bytes from the **stale cache** (a small LRU the fresh
   path refreshes on every successful render, keyed *without* the
   dataset version so it survives invalidation — that is its entire
   point). Degraded bytes are never written into the fresh cache and
   every degraded response is explicitly marked, so clients can always
   tell a stop-gap tile from a real one.

Every cache event and request/render latency is mirrored into a
:class:`~repro.obs.metrics.MetricsRegistry` exposed at ``/stats``.
:meth:`TileService.get_tile` and the HTTP layer share the request
bookkeeping (:meth:`lookup_png`, :meth:`overload_png`,
:meth:`finish_request`), so their counters cannot drift apart.

Renders always run the anytime tiled path with a fixed internal batch
partition (`RENDER_TILE_SIZE`), so the bytes a request produces are
independent of who rendered it, with what deadline, and whether any
cache level helped — the property the byte-identity tests pin down.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

import numpy as np

from repro.cache.tiles import TileCache, TileKey, partial_fingerprint
from repro.core import stopping
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    InvalidParameterError,
    ServiceOverloadedError,
    UnknownNameError,
    UnsupportedKernelError,
    UnsupportedOperationError,
)
from repro.methods.base import IndexedMethod
from repro.obs.metrics import DEFAULT_SECONDS_BOUNDS, MetricsRegistry
from repro.resilience.budget import STOP_TILE_FAILURES, Budget
from repro.resilience.retry import TransientTileError
from repro.resilience.supervisor import CircuitBreaker
from repro.serve.config import (
    CacheConfig,
    RenderConfig,
    ResilienceConfig,
    ServiceConfig,
    ShardingConfig,
)
from repro.serve.registry import DatasetEntry, DatasetRegistry
from repro.serve.sharding import (
    ShardedDatasetRegistry,
    rendezvous_shard,
    tile_extent_key,
)
from repro.serve.tiles import tile_grid, validate_tile
from repro.utils.cache import LRUCache, SingleFlight
from repro.visual.colormap import get_colormap, two_color_map
from repro.visual.image import png_bytes
from repro.visual.request import OP_EPS, OP_TAU, RenderOptions, RenderRequest

if TYPE_CHECKING:
    from repro._types import FloatArray
    from repro.visual.kdv import KDVRenderer

__all__ = [
    "RENDER_TILE_SIZE",
    "CacheConfig",
    "RenderConfig",
    "ResilienceConfig",
    "ServiceConfig",
    "ShardingConfig",
    "TilePlan",
    "TileService",
]

#: Fixed internal batch partition for every service render. Part of the
#: request fingerprint (batch composition shapes per-pixel ε answers),
#: so it must be one service-wide constant for cached bytes to be
#: reusable across requests.
RENDER_TILE_SIZE = 64

#: Resolution of the coarse density probe that fixes each dataset's
#: colour normalisation range (see ``TileService._entry_vmax``).
_VMAX_GRID_WIDTH = 64


@dataclass
class TilePlan:
    """A fully planned tile request: resolved render request + cache keys.

    ``renderer`` is the renderer the plan executes against — the
    entry's exact renderer, or a per-zoom coreset tier's renderer when
    the tile's zoom routes below the entry's ``coreset_zoom`` threshold
    (in which case ``resolved.tier`` carries the tier tag and
    ``tier_delta_z`` the folded error bound).

    ``shards`` is the entry's shard count and ``home_shard`` the tile's
    rendezvous-hashed bucket, whose circuit breaker (``breaker_id``)
    owns this tile's renders. Neither enters a cache key: every shard
    count renders the same bytes.
    """

    entry: DatasetEntry
    versioned_id: str
    tile: Tuple[int, int, int]
    resolved: RenderRequest
    colormap: str
    deadline_ms: Optional[float]
    indexed: bool
    renderer: "KDVRenderer"
    tier_delta_z: Optional[float] = None
    shards: int = 1
    home_shard: int = 0
    png_key: TileKey = field(init=False)
    density_key: TileKey = field(init=False)
    bounds_key: TileKey = field(init=False)
    stale_key: TileKey = field(init=False)

    def __post_init__(self) -> None:
        dataset_id = self.entry.dataset_id
        z, x, y = self.tile
        base_extra: Dict[str, Any] = {
            "dataset": self.versioned_id,
            "tile": [z, x, y],
        }
        self.png_key = (
            dataset_id,
            "png",
            self.resolved.fingerprint(extra={**base_extra, "colormap": self.colormap}),
        )
        # Deliberately keyed on the *unversioned* dataset id: the stale
        # cache exists to answer "what did this tile look like the last
        # time a render succeeded", and that answer must survive the
        # version bump that invalidates every fresh cache level.
        self.stale_key = (
            dataset_id,
            "stale",
            self.resolved.fingerprint(
                extra={"dataset": dataset_id, "tile": [z, x, y], "colormap": self.colormap}
            ),
        )
        self.density_key = (
            dataset_id,
            "density",
            partial_fingerprint(self.resolved, extra=base_extra),
        )
        self.bounds_key = (
            dataset_id,
            "bounds",
            partial_fingerprint(
                self.resolved,
                drop=("op", "eps", "tau", "atol", "tile_size"),
                extra=base_extra,
            ),
        )

    @property
    def op(self) -> str:
        """The render operation (``"eps"`` or ``"tau"``)."""
        return self.resolved.op

    @property
    def breaker_id(self) -> str:
        """The circuit breaker owning this tile's renders.

        The dataset id itself for unsharded entries; the tile's
        rendezvous home shard (``"<dataset>#s<i>"``) for sharded ones,
        so a poisoned spatial region trips one shard's breaker instead
        of blacking out the whole dataset.
        """
        return self.entry.shard_ids[self.home_shard]


class TileService:
    """Serve slippy-map KDV tiles from a shared registry + cache.

    Parameters
    ----------
    registry:
        An existing :class:`~repro.serve.registry.DatasetRegistry`, or
        ``None`` to create one wired to this service's cache
        invalidation. When passing your own registry, construct it with
        ``on_invalidate=service.invalidate_dataset`` yourself (or
        append through :meth:`append_points`) so appends invalidate the
        cache.
    config:
        A :class:`ServiceConfig`.
    """

    def __init__(
        self,
        registry: Optional[DatasetRegistry] = None,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.metrics = MetricsRegistry()
        self.cache = TileCache(
            png_bytes=self.config.cache.png_bytes,
            aux_bytes=self.config.cache.aux_bytes,
            ttl_s=self.config.cache.ttl_s,
            metrics=self.metrics,
        )
        self._owns_registry = registry is None
        self.registry = (
            registry
            if registry is not None
            else ShardedDatasetRegistry(
                on_invalidate=self.invalidate_dataset,
                default_shards=int(self.config.sharding.shards),
                min_points_per_shard=int(self.config.sharding.min_points_per_shard),
            )
        )
        self._flight: SingleFlight[TileKey, bytes] = SingleFlight()
        resilience = self.config.resilience
        self._slots = threading.BoundedSemaphore(int(resilience.queue_limit))
        self._active = 0
        self._active_lock = threading.Lock()
        self._vmax: Dict[str, float] = {}
        self._vmax_lock = threading.Lock()
        self._vmax_flight: SingleFlight[str, float] = SingleFlight()
        self._stale: LRUCache[TileKey, bytes] = LRUCache(
            max_bytes=int(resilience.stale_bytes),
            ttl_s=resilience.stale_ttl_s,
        )
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._breakers_lock = threading.Lock()
        self._closing = False
        self.pool = ThreadPoolExecutor(
            max_workers=int(self.config.render.workers), thread_name_prefix="repro-tile"
        )
        #: Render processes per dataset (``1``: renders run in-process).
        self.render_workers = self.config.render.resolved_render_workers
        self.started_at = time.time()

    # -- backpressure -------------------------------------------------------

    def try_acquire_slot(self) -> bool:
        """Claim a render slot; ``False`` means the queue is full (503).

        A draining service (:meth:`close` in progress) admits nothing
        new — in-flight requests finish, fresh ones are rejected so the
        shutdown converges.
        """
        if self._closing:
            self.metrics.counter("tiles.rejected").add(1)
            return False
        acquired = self._slots.acquire(blocking=False)
        if acquired:
            with self._active_lock:
                self._active += 1
        else:
            self.metrics.counter("tiles.rejected").add(1)
        return acquired

    def acquire_slot(self) -> None:
        """Claim a render slot or raise :class:`ServiceOverloadedError`."""
        if not self.try_acquire_slot():
            raise ServiceOverloadedError(
                f"render queue full ({self.config.resilience.queue_limit} slots); retry later"
            )

    def release_slot(self) -> None:
        """Return a slot claimed with :meth:`try_acquire_slot`."""
        with self._active_lock:
            self._active -= 1
        self._slots.release()

    @property
    def active_requests(self) -> int:
        """Render slots currently claimed."""
        with self._active_lock:
            return self._active

    @property
    def draining(self) -> bool:
        """Whether :meth:`close` has begun (``/readyz`` answers 503)."""
        return self._closing

    # -- planning -----------------------------------------------------------

    def plan_tile(
        self,
        dataset: str,
        z: int,
        x: int,
        y: int,
        *,
        eps: Optional[float] = None,
        tau: Optional[float] = None,
        method: Optional[str] = None,
        colormap: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> TilePlan:
        """Resolve one tile request into a :class:`TilePlan`.

        ``eps`` / ``tau`` select the operation (τ wins when both are
        given; with neither, the config defaults apply). ``method`` and
        ``colormap`` default from the dataset entry / config; the
        request is validated and resolved here, so a plan that comes
        back is renderable.
        """
        entry = self.registry.get(dataset)
        z, x, y = validate_tile(z, x, y, max_zoom=self.config.render.max_zoom)
        grid = tile_grid(entry.base_grid, z, x, y, self.config.render.tile_px)
        method_name = str(method if method is not None else entry.method).lower()
        colormap_name = str(
            colormap if colormap is not None else self.config.render.colormap
        ).lower()
        get_colormap(colormap_name)  # fail fast on unknown names (400, not 500)
        # Below the coreset threshold the zoom's tier renders the tile
        # and its error bound delta_z is folded into eps
        # (eps_effective = eps - delta_z, docs/bounds.md); zoom >=
        # coreset_zoom falls through to exact QUAD. tau renders route
        # unchanged — masks can flip only where |F - tau| <= delta_abs.
        tier = entry.coreset_tier(z)
        renderer = entry.renderer if tier is None else tier.renderer
        tier_tag = None if tier is None else f"coreset-z{tier.zoom}"
        tier_delta_z = None if tier is None else float(tier.delta_z)
        if tau is not None:
            request = RenderRequest.for_tau(
                float(tau), method_name, grid=grid, tier=tier_tag
            )
        elif eps is not None or self.config.render.tau is None:
            eps_requested = float(eps if eps is not None else self.config.render.eps)
            if tier_delta_z is not None:
                if eps_requested <= tier_delta_z:
                    raise InvalidParameterError(
                        f"eps={eps_requested} is not achievable at zoom {z}: the "
                        f"coreset tier's error bound delta_z={tier_delta_z:.6g} "
                        "consumes the whole budget; request a larger eps or "
                        "register with a smaller coreset_delta_cap"
                    )
                eps_requested -= tier_delta_z
            request = RenderRequest.for_eps(
                eps_requested, method_name, grid=grid, tier=tier_tag
            )
        else:
            request = RenderRequest.for_tau(
                float(self.config.render.tau), method_name, grid=grid, tier=tier_tag
            )
        fitted = renderer.get_method(method_name)
        indexed = isinstance(fitted, IndexedMethod)
        fitted._require(request.op)
        options = (
            RenderOptions(
                tile_size=RENDER_TILE_SIZE,
                anytime=True,
                # Only the serving method's kd-trees are on the
                # dataset's pool; other methods (?method=) and ball
                # trees render in-process.
                workers=self.render_workers if fitted.pool_owner is not None else 1,
                backend=self.config.render.backend,
            )
            if isinstance(fitted, IndexedMethod)
            else RenderOptions()
        )
        resolved = request.replace(options=options).resolve(renderer)
        shards = entry.shards
        home_shard = (
            rendezvous_shard(entry.dataset_id, shards, tile_extent_key(grid))
            if shards > 1
            else 0
        )
        return TilePlan(
            entry=entry,
            versioned_id=entry.versioned_id(),
            tile=(z, x, y),
            resolved=resolved,
            colormap=colormap_name,
            deadline_ms=(
                deadline_ms if deadline_ms is not None else self.config.render.deadline_ms
            ),
            indexed=indexed,
            renderer=renderer,
            tier_delta_z=tier_delta_z,
            shards=shards,
            home_shard=home_shard,
        )

    # -- serving ------------------------------------------------------------

    def cached_png(self, plan: TilePlan) -> Optional[bytes]:
        """L1 lookup only — cheap enough for the HTTP event loop."""
        return self.cache.get_png(plan.png_key)

    # -- request bookkeeping (shared by get_tile and the HTTP layer) --------

    def lookup_png(self, plan: TilePlan) -> Optional[bytes]:
        """Count one planned tile request; return its L1 bytes, if any.

        Every request that gets past planning starts here and ends in
        :meth:`finish_request`, whatever its outcome.
        """
        self.metrics.counter("tiles.requests").add(1)
        data = self.cached_png(plan)
        if data is not None:
            self.metrics.counter("tiles.l1_hits").add(1)
        return data

    def overload_png(self, plan: TilePlan) -> Optional[bytes]:
        """Stale bytes for a request the full render queue turned away.

        A dictionary read, safe on the event loop; a served stale tile
        is counted like every other degraded response.
        """
        stale = self.stale_png(plan)
        if stale is not None:
            self._degraded_info("stale", "overloaded")
        return stale

    def finish_request(self, start: float) -> float:
        """Record the latency of a request begun at ``start``; return it.

        ``start`` is a :func:`time.perf_counter` reading taken before
        planning, so ``tiles.request_s`` covers plan, lookup and render.
        """
        elapsed = time.perf_counter() - start
        self.metrics.histogram("tiles.request_s", DEFAULT_SECONDS_BOUNDS).observe(
            elapsed
        )
        return elapsed

    def render_tile(self, plan: TilePlan) -> bytes:
        """Render (or join the in-flight render of) one planned tile.

        The strict path: a failure raises (no degrade ladder) — callers
        wanting the overload policy go through :meth:`serve_tile`.
        """
        data, leader = self._flight.do(plan.png_key, lambda: self._render_uncached(plan))
        if not leader:
            self.metrics.counter("tiles.shared").add(1)
        return data

    def serve_tile(self, plan: TilePlan) -> Tuple[bytes, Dict[str, Any]]:
        """Render one tile under the degrade-don't-fail overload policy.

        Returns ``(png, degrade_info)`` where ``degrade_info`` is
        ``{"degraded": None}`` for a full-quality tile, or carries the
        degradation mode (``"partial"`` / ``"stale"``) and its reason.
        The ladder, in order:

        1. The dataset's circuit breaker gets a veto *before* any render
           work; while open, a stale tile is served when one exists,
           else :class:`~repro.errors.CircuitOpenError` (503).
        2. The strict render runs. Success refreshes the stale cache
           and returns fresh bytes.
        3. A tripped deadline serves the anytime render's best-so-far
           envelope (attached to the error as ``partial_values``) when
           one exists — encoded on the fly, **never** written to the
           fresh cache — else a stale tile, else the error propagates
           (504).
        4. Any other render failure tries the stale cache before
           propagating.

        With ``degraded_serving=False`` every rung collapses to the
        strict raise semantics (the breaker still counts and vetoes).
        """
        breaker = self._breaker(plan.breaker_id)
        if not breaker.allow():
            stale = self.stale_png(plan)
            if stale is not None:
                return stale, self._degraded_info("stale", "circuit_open")
            raise CircuitOpenError(
                f"dataset {plan.breaker_id!r} breaker is open after "
                f"repeated render failures; retry in "
                f"{breaker.retry_after_s():.1f}s"
            )
        try:
            data = self.render_tile(plan)
        except DeadlineExceededError as error:
            if self.config.resilience.degraded_serving and error.partial_values is not None:
                values = np.asarray(error.partial_values)
                partial = self._encode(plan, values)
                self.metrics.counter("tiles.partial_served").add(1)
                info = self._degraded_info("partial", "deadline")
                info["pixels_resolved"] = error.pixels_resolved
                info["pixels_total"] = error.pixels_total
                return partial, info
            stale = self.stale_png(plan)
            if stale is not None:
                return stale, self._degraded_info("stale", "deadline")
            raise
        except (InvalidParameterError, UnknownNameError, UnsupportedKernelError,
                UnsupportedOperationError):
            # Client errors: no degrade (the request itself is wrong).
            raise
        except Exception:
            stale = self.stale_png(plan)
            if stale is not None:
                return stale, self._degraded_info("stale", "render_failed")
            raise
        if self.config.resilience.degraded_serving:
            self._stale.put(plan.stale_key, data, size_bytes=len(data))
        return data, {"degraded": None}

    def stale_png(self, plan: TilePlan) -> Optional[bytes]:
        """The tile's last known-good bytes, or ``None``.

        Only consulted on the degrade ladder (and by the HTTP layer's
        queue-full fallback); returns nothing when ``degraded_serving``
        is off.
        """
        if not self.config.resilience.degraded_serving:
            return None
        return self._stale.get(plan.stale_key)

    def _degraded_info(self, mode: str, reason: str) -> Dict[str, Any]:
        self.metrics.counter("tiles.degraded_served").add(1)
        if mode == "stale":
            self.metrics.counter("tiles.stale_served").add(1)
        return {"degraded": mode, "degrade_reason": reason}

    def _breaker(self, dataset_id: str) -> CircuitBreaker:
        """The dataset's circuit breaker (created on first use)."""
        with self._breakers_lock:
            breaker = self._breakers.get(dataset_id)
            if breaker is None:
                breaker = CircuitBreaker(
                    failure_threshold=int(self.config.resilience.breaker_threshold),
                    reset_timeout_s=float(self.config.resilience.breaker_reset_s),
                    on_transition=self._on_breaker_transition,
                )
                self._breakers[dataset_id] = breaker
            return breaker

    def _on_breaker_transition(self, old: str, new: str) -> None:
        self.metrics.counter(
            f"breaker.to_{new.replace('-', '_')}"
        ).add(1)

    def get_tile(
        self, dataset: str, z: int, x: int, y: int, **params: Any
    ) -> Tuple[bytes, Dict[str, Any]]:
        """Plan + serve one tile; returns ``(png, info)``.

        The synchronous convenience the HTTP layer mirrors (it splits
        the same steps across the event loop and worker pool, with the
        same bookkeeping calls). ``info`` carries the cache disposition
        (``"hit"`` / ``"miss"``), the versioned dataset id, the request
        fingerprint, and — under the overload policy — the degradation
        marker (``info["degraded"]`` is ``None`` for full-quality tiles).
        """
        start = time.perf_counter()
        plan = self.plan_tile(dataset, z, x, y, **params)
        degrade_info: Dict[str, Any] = {"degraded": None}
        data = self.lookup_png(plan)
        try:
            if data is not None:
                disposition = "hit"
            else:
                disposition = "miss"
                data, degrade_info = self.serve_tile(plan)
        finally:
            elapsed = self.finish_request(start)
        info = {
            "cache": disposition,
            "dataset": plan.versioned_id,
            "tile": list(plan.tile),
            "op": plan.op,
            "tier": plan.resolved.tier,
            "fingerprint": plan.png_key[2],
            "elapsed_s": elapsed,
        }
        info.update(degrade_info)
        return data, info

    # -- rendering internals -------------------------------------------------

    def _render_uncached(self, plan: TilePlan) -> bytes:
        """Single-flight leader body: L2 levels, render, encode, fill L1.

        Also the circuit-breaker sampling point: exactly one
        success/failure is recorded per *actual* render, so a
        thundering herd that shares a failed flight does not multiply
        one failure into a tripped breaker. Client errors and tripped
        deadlines are excluded — the former say nothing about the
        dataset's health, the latter have their own degrade path.
        """
        # Re-check L1: a previous flight may have landed between the
        # caller's lookup and this leader starting.
        data = self.cache.get_png(plan.png_key)
        if data is not None:
            return data
        start = time.perf_counter()
        try:
            values = self.cache.get_density(plan.density_key)
            if values is None:
                values = self._compute_values(plan)
                self.cache.put_density(plan.density_key, values)
            data = self._encode(plan, values)
        except (DeadlineExceededError, InvalidParameterError, UnknownNameError,
                UnsupportedKernelError, UnsupportedOperationError):
            raise
        except Exception:
            self._breaker(plan.breaker_id).record_failure()
            raise
        self._breaker(plan.breaker_id).record_success()
        self.cache.put_png(plan.png_key, data)
        self.metrics.counter("tiles.renders").add(1)
        self.metrics.histogram("tiles.render_s", DEFAULT_SECONDS_BOUNDS).observe(
            time.perf_counter() - start
        )
        return data

    def _compute_values(self, plan: TilePlan) -> np.ndarray:
        """The tile's value array (density image or τ mask), full quality.

        ε tiles always render from root bounds: a start narrowed by an
        earlier render would change their bytes. A τ tile starts from
        the grid's L3 envelope — root bounds, or the tightest envelope
        earlier complete renders of the grid left there. When that
        envelope settles every pixel the mask is read straight off it;
        otherwise the tile driver refines only the pixels it leaves
        open. Both equal direct τ refinement bit for bit, because a τ
        decision settled beyond the tie guard does not depend on the
        refinement schedule (:func:`~repro.core.stopping.tau_settled_mask`).
        """
        resolved = plan.resolved
        if not plan.indexed or resolved.op == OP_EPS:
            return self._render_full(plan)
        grid = resolved.grid
        assert grid is not None and resolved.tau is not None
        tau = float(resolved.tau)
        envelope = self.cache.get_bounds(plan.bounds_key)
        if envelope is None:
            fitted = plan.renderer.get_method(resolved.method)
            assert isinstance(fitted, IndexedMethod) and fitted.batch_engine is not None
            envelope = fitted.batch_engine.root_envelope(grid.centers())
            self.cache.put_bounds(plan.bounds_key, envelope)
        lower, upper = envelope
        if bool(stopping.tau_settled_mask(lower, upper, tau).all()):
            self.metrics.counter("tiles.bounds_shortcircuit").add(1)
            return np.asarray(grid.to_image(stopping.tau_hot_mask(lower, tau)))
        return self._render_full(plan, envelope)

    def _render_full(
        self,
        plan: TilePlan,
        envelope: Optional[Tuple["FloatArray", "FloatArray"]] = None,
    ) -> np.ndarray:
        """Render through ``KDVRenderer.render`` under the deadline budget.

        ``envelope`` (τ only) is the L3 entry the tile driver starts
        from instead of root bounds. A complete indexed render then
        narrows the grid's L3 entry in place to its intersection with
        the render's final envelope — both enclose the density, so the
        intersection does too, up to rounding that
        :func:`~repro.core.stopping.tau_settled_mask` treats as open —
        or, when the grid has none, leaves its envelope there.
        """
        if not plan.indexed:
            # Non-indexed methods have no anytime path (and no
            # cooperative deadline); they render plain.
            return np.asarray(plan.renderer.render(plan.resolved))
        budget = (
            Budget.from_deadline_ms(plan.deadline_ms)
            if plan.deadline_ms is not None
            else None
        )
        options = plan.resolved.options.replace(budget=budget, envelope=envelope)
        outcome = plan.renderer.render(plan.resolved.replace(options=options))
        degraded = outcome.degraded  # type: ignore[union-attr]
        if degraded is not None:
            self.metrics.counter("tiles.degraded").add(1)
            if degraded.reason == STOP_TILE_FAILURES:
                raise TransientTileError(
                    f"tile {plan.tile} lost {len(degraded.tiles_failed)} "
                    "tile batch(es) after retries"
                )
            raise DeadlineExceededError(
                f"tile {plan.tile} exceeded its deadline "
                f"({plan.deadline_ms} ms): stopped on {degraded.reason!r} with "
                f"{degraded.pixels_resolved}/{degraded.pixels_total} pixels "
                "resolved; partial tiles are never cached as fresh",
                # The anytime render's best-so-far image (envelope
                # midpoints / conservative tau mask) rides on the error
                # so the degrade ladder can serve it without paying for
                # a second render.
                partial_values=np.asarray(outcome.image),  # type: ignore[union-attr]
                pixels_resolved=degraded.pixels_resolved,
                pixels_total=degraded.pixels_total,
            )
        lower = np.asarray(outcome.lower).reshape(-1)  # type: ignore[union-attr]
        upper = np.asarray(outcome.upper).reshape(-1)  # type: ignore[union-attr]
        held = envelope if envelope is not None else self.cache.get_bounds(plan.bounds_key)
        if held is None:
            self.cache.put_bounds(plan.bounds_key, (lower, upper))
        else:
            np.maximum(held[0], lower, out=held[0])
            np.minimum(held[1], upper, out=held[1])
        return np.asarray(outcome.image)  # type: ignore[union-attr]

    def _encode(self, plan: TilePlan, values: np.ndarray) -> bytes:
        """Colour-map + PNG-encode a value array (deterministic bytes)."""
        if plan.op == OP_TAU:
            rgb = two_color_map(values.astype(bool))
        else:
            vmax = self._entry_vmax(plan.entry)
            rgb = get_colormap(plan.colormap).apply(
                values, vmin=0.0, vmax=vmax, log_scale=True
            )
        return png_bytes(rgb)

    def _entry_vmax(self, entry: DatasetEntry) -> float:
        """Colour normalisation ceiling for one dataset version.

        The peak upper bound of a coarse density probe over the base
        viewport (:meth:`~repro.serve.registry.DatasetEntry.coarse_density`)
        — one shared range per dataset version, so adjacent tiles (and
        zoom levels) colour consistently instead of each tile
        normalising to its own maximum. Cached per versioned id;
        deterministic, so every server instance agrees on tile bytes.
        Concurrent first requests share one probe (single-flight per
        versioned id).
        """
        key = entry.versioned_id()
        vmax, __ = self._vmax_flight.do(key, lambda: self._probe_vmax(entry, key))
        return vmax

    def _probe_vmax(self, entry: DatasetEntry, key: str) -> float:
        """The cached range for ``key``, probing and caching it on a miss."""
        with self._vmax_lock:
            cached = self._vmax.get(key)
        if cached is not None:
            return cached
        base = entry.base_grid
        coarse = base.scaled(_VMAX_GRID_WIDTH / float(base.width))
        values = np.asarray(entry.coarse_density(coarse.centers()))
        vmax = float(values.max()) if values.size else 1.0
        if vmax <= 0.0:
            vmax = 1.0
        with self._vmax_lock:
            self._vmax[key] = vmax
        return vmax

    # -- dataset lifecycle ---------------------------------------------------

    def append_points(self, dataset: str, points: Any) -> int:
        """Append to a dataset through the registry (invalidates cache)."""
        count = self.registry.append(dataset, points)
        if not self._owns_registry:
            # An externally built registry may not be wired to this
            # service's cache; invalidate explicitly (idempotent).
            self.invalidate_dataset(dataset)
        return count

    def invalidate_dataset(self, dataset_id: str) -> int:
        """Drop every fresh cache level for one dataset id.

        The stale cache is deliberately left alone: its entries are the
        degrade ladder's last-known-good fallback, and surviving the
        version bump is their purpose (they are already marked degraded
        whenever served, and TTL-bounded).
        """
        dropped = self.cache.invalidate_dataset(dataset_id)
        self.metrics.counter("tiles.invalidations").add(1)
        with self._vmax_lock:
            stale = [
                key for key in self._vmax if key.rsplit("@v", 1)[0] == dataset_id
            ]
            for key in stale:
                del self._vmax[key]
        return dropped

    # -- introspection -------------------------------------------------------

    def readiness(self) -> Dict[str, Any]:
        """The ``/readyz`` payload: overall status + per-shard health.

        Per dataset: the shard count and each shard breaker's state, so
        an orchestrator can tell "ready, but shard 2 of `crime` is
        tripped" from "ready, everything closed". Draining is the HTTP
        layer's concern (it answers 503 before consulting this).
        """
        with self._breakers_lock:
            states = {name: breaker.state for name, breaker in self._breakers.items()}
        datasets: Dict[str, Any] = {}
        from repro.errors import DatasetNotFoundError

        for dataset_id in self.registry.ids():
            try:
                entry = self.registry.get(dataset_id)
            # lint: allow-silent-except -- a concurrent remove() pulled
            # the entry mid-walk; it has no readiness to report.
            except DatasetNotFoundError:
                continue
            datasets[dataset_id] = {
                "shards": entry.shards,
                "breakers": {
                    shard_id: states.get(shard_id, "closed")
                    for shard_id in entry.shard_ids
                },
            }
        return {"status": "ready", "datasets": datasets}

    def stats(self) -> Dict[str, Any]:
        """The ``/stats`` payload: datasets, cache levels, metrics, load."""
        with self._breakers_lock:
            breakers = {
                dataset_id: breaker.as_dict()
                for dataset_id, breaker in sorted(self._breakers.items())
            }
        pools: list[Dict[str, Any]] = []
        from repro.errors import DatasetNotFoundError
        from repro.visual.executors import pool_supervision_totals

        totals = pool_supervision_totals()
        render = self.config.render

        for dataset_id in self.registry.ids():
            try:
                pools.extend(self.registry.get(dataset_id).executor_health())
            # lint: allow-silent-except -- a concurrent remove() pulled
            # the entry mid-walk; its pools are being torn down anyway.
            except DatasetNotFoundError:
                pass
        return {
            "uptime_s": time.time() - self.started_at,
            "datasets": self.registry.as_dict(),
            "cache": self.cache.as_dict(),
            "metrics": self.metrics.as_dict(),
            "load": {
                "active_requests": self.active_requests,
                "queue_limit": int(self.config.resilience.queue_limit),
                "in_flight_renders": self._flight.in_flight(),
            },
            "resilience": {
                "draining": self._closing,
                "degraded_serving": bool(self.config.resilience.degraded_serving),
                "breakers": breakers,
                "pools": pools,
                # Live pools only count their own lifetime; the process
                # totals survive executor replacement after a rebuild
                # budget exhaustion.
                "pool_breaks": totals["breaks"],
                "pool_rebuilds": totals["rebuilds"],
                "stale_cache": {
                    "entries": len(self._stale),
                    "bytes": self._stale.current_bytes,
                },
            },
            "config": {
                "tile_px": int(render.tile_px),
                "eps": float(render.eps),
                "tau": None if render.tau is None else float(render.tau),
                "colormap": render.colormap,
                "deadline_ms": render.deadline_ms,
                "workers": int(render.workers),
                "render_workers": self.render_workers,
                "backend": render.backend,
                "max_zoom": int(render.max_zoom),
                "sharding": {
                    "shards": int(self.config.sharding.shards),
                    "min_points_per_shard": int(
                        self.config.sharding.min_points_per_shard
                    ),
                },
            },
        }

    def close(self) -> None:
        """Drain in-flight requests, then shut every pool down (idempotent).

        Graceful: the service first flips into *draining* (new slot
        acquisitions are rejected, ``/readyz`` answers 503), then waits
        up to ``config.drain_s`` for active requests and in-flight
        renders to finish before shutting down the worker pool and the
        datasets' render pools. A request racing :meth:`close` either
        completes normally or is rejected up-front — it is never cut
        mid-render by the shutdown.
        """
        self._closing = True
        deadline = time.monotonic() + max(0.0, float(self.config.resilience.drain_s))
        while time.monotonic() < deadline:
            if self.active_requests == 0 and self._flight.in_flight() == 0:
                break
            time.sleep(0.01)
        self.pool.shutdown(wait=True, cancel_futures=True)
        from repro.errors import DatasetNotFoundError

        for dataset_id in self.registry.ids():
            try:
                self.registry.get(dataset_id).close()
            # lint: allow-silent-except -- a concurrent remove() already
            # closed the entry; nothing left to release.
            except DatasetNotFoundError:
                pass

    def __repr__(self) -> str:
        return (
            f"TileService(datasets={self.registry.ids()!r}, "
            f"active={self.active_requests})"
        )

