"""Dataset registry: load and index each served dataset exactly once.

A production tile service is dominated by repeated queries against a
small set of datasets, so the expensive per-dataset state — validated
points, the kd-tree index with its per-node moment aggregates, the
fitted method objects — must be built once at registration and shared
across every request (the KARL observation: one indexing framework
amortised across queries). :class:`DatasetRegistry` owns that state:

* :meth:`DatasetRegistry.register` validates the points, fixes the base
  viewport (tile addressing must stay stable for the dataset's
  lifetime) and eagerly fits the serving method, so no two requests can
  race to build the same index;
* every tile request renders through a shared-index clone
  (:meth:`~repro.visual.kdv.KDVRenderer.with_grid`) of the one fitted
  renderer — zero per-request index cost;
* :meth:`DatasetRegistry.append` grows a dataset in place: the index is
  refit (once, under the entry lock), the entry's **version** is
  bumped, and the registry's invalidation callback fires so the tile
  cache can drop everything computed against the old points. Version
  numbers are embedded in cache keys, making stale reuse structurally
  impossible rather than merely unlikely.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

import numpy as np

from repro.core.engine import QueryStats
from repro.errors import DatasetNotFoundError, InvalidParameterError
from repro.methods.base import IndexedMethod
from repro.sampling.coreset import Coreset, coreset_for_delta
from repro.serve.tiles import zoom_cell_size
from repro.visual.kdv import KDVRenderer

if TYPE_CHECKING:
    from repro._types import FloatArray, PointLike
    from repro.visual.executors import ProcessTileExecutor
    from repro.visual.grid import PixelGrid

__all__ = ["CoresetTier", "DatasetEntry", "DatasetRegistry"]

#: Default normalised coreset error budget per zoom (``delta_z``);
#: must stay well below typical request ``eps`` (0.05 by default in
#: :class:`~repro.serve.service.ServiceConfig`) so the folded
#: ``eps_effective = eps - delta_z`` stays positive.
DEFAULT_CORESET_DELTA_CAP = 0.01

#: Default pixel-tile edge assumed by the pyramid's cell sizing; matches
#: :data:`repro.serve.tiles.DEFAULT_TILE_PX`. A larger value only makes
#: the coreset finer (more conservative), never less accurate.
DEFAULT_CORESET_TILE_PX = 256

#: ε of the colour-range probe (:meth:`DatasetEntry.coarse_density`):
#: its peak upper bound lies within ``1 + PROBE_EPS`` of the exact peak.
PROBE_EPS = 0.01

#: The indexed method the colour probe fits when the serving method
#: (``exact``, ``zorder``) has no tree to refine.
PROBE_METHOD = "akde"


class CoresetTier:
    """One zoom level's coreset and the renderer serving it.

    The renderer shares the entry's base viewport, kernel, bandwidth
    and global weight, but evaluates over the coreset's weighted
    representatives — every density it produces is within
    ``coreset.delta_abs`` of the exact tier's, for every pixel.
    """

    __slots__ = ("zoom", "coreset", "renderer")

    def __init__(self, zoom: int, coreset: Coreset, renderer: KDVRenderer) -> None:
        self.zoom = zoom
        self.coreset = coreset
        self.renderer = renderer

    @property
    def delta_z(self) -> float:
        """Normalised error bound folded into ``eps`` (see docs/bounds.md)."""
        return self.coreset.delta_z

    def as_dict(self) -> Dict[str, Any]:
        return {
            "zoom": self.zoom,
            "m": self.coreset.m,
            "n_source": self.coreset.n_source,
            "delta_abs": float(self.coreset.delta_abs),
            "delta_z": float(self.coreset.delta_z),
            "cell_size": float(self.coreset.cell_size),
        }


def _close_renderer_methods(renderer: KDVRenderer) -> None:
    """Shut down process pools cached on a renderer's fitted methods."""
    for fitted in renderer._methods.values():
        closer = getattr(fitted, "close_executors", None)
        if closer is not None:
            closer()


class DatasetEntry:
    """One served dataset: points, fitted renderer, version.

    Not constructed directly — use :meth:`DatasetRegistry.register`.
    The entry's ``renderer`` is fitted over the dataset's base viewport;
    tile requests derive per-tile grids from it via ``with_grid`` clones
    that share the fitted method objects.

    ``shards`` (set by :class:`~repro.serve.sharding.ShardedDatasetRegistry`)
    splits the tiles into that many rendezvous-hashed buckets, each with
    its own circuit breaker (:attr:`shard_ids`) and ``X-Shard`` header.
    It never changes what a tile renders: every shard count serves the
    same index, coreset pyramid, cache keys and bytes.

    The entry lends its serving methods one render pool
    (:meth:`process_executor`): the exact tree and every distinct
    coreset-tier tree render on the same worker processes.
    """

    def __init__(
        self,
        dataset_id: str,
        renderer: KDVRenderer,
        *,
        gamma_given: Optional[float],
        method: str,
        coreset_zoom: Optional[int] = None,
        coreset_delta_cap: float = DEFAULT_CORESET_DELTA_CAP,
        coreset_tile_px: int = DEFAULT_CORESET_TILE_PX,
        shards: int = 1,
    ) -> None:
        if coreset_zoom is not None and int(coreset_zoom) < 1:
            raise InvalidParameterError(
                f"coreset_zoom must be >= 1 (or None to disable), got {coreset_zoom!r}"
            )
        if int(shards) < 1:
            raise InvalidParameterError(f"shards must be >= 1, got {shards!r}")
        if not float(coreset_delta_cap) > 0.0:
            raise InvalidParameterError(
                f"coreset_delta_cap must be > 0, got {coreset_delta_cap!r}"
            )
        self.dataset_id = dataset_id
        self.renderer = renderer
        self.method = method
        self.version = 1
        self.created_at = time.time()
        self.coreset_zoom = None if coreset_zoom is None else int(coreset_zoom)
        self.coreset_delta_cap = float(coreset_delta_cap)
        self.coreset_tile_px = int(coreset_tile_px)
        self.shards = int(shards)
        self._gamma_given = gamma_given
        self._lock = threading.RLock()
        self._coreset_tiers: Dict[int, CoresetTier] = self._build_coreset_tiers()
        self._pool: Optional["ProcessTileExecutor"] = None

    def _build_coreset_tiers(self) -> Dict[int, CoresetTier]:
        """Materialise one coreset + renderer per zoom below the threshold.

        Called at registration and again after every :meth:`append`
        (the representatives and their error bounds depend on the
        points). Each tier renderer shares the base viewport and the
        exact renderer's kernel/bandwidth/weight so its densities are
        directly comparable — only the point set differs.
        """
        if self.coreset_zoom is None:
            return {}
        tiers: Dict[int, CoresetTier] = {}
        previous: Optional[CoresetTier] = None
        for zoom in range(self.coreset_zoom):
            start_cell = zoom_cell_size(
                self.renderer.grid, zoom, self.coreset_tile_px
            )
            if previous is not None and previous.coreset.cell_size <= start_cell:
                # Successive zooms halve the starting cell, so each
                # zoom's halving sequence is a suffix of the previous
                # one's. Once a coarser tier has refined (delta_cap
                # binding) to a cell at least as fine as this zoom's
                # starting cell, this zoom would converge to the
                # identical coreset — share it (and its fitted
                # renderer) instead of storing another copy.
                tiers[zoom] = CoresetTier(zoom, previous.coreset, previous.renderer)
                previous = tiers[zoom]
                continue
            coreset = coreset_for_delta(
                self.renderer.points,
                self.renderer.kernel,
                self.renderer.gamma,
                self.renderer.weight,
                cell_size=start_cell,
                delta_cap=self.coreset_delta_cap,
                point_weights=self.renderer.point_weights,
            )
            tier_renderer = KDVRenderer(
                coreset.points,
                kernel=self.renderer.kernel,
                gamma=self.renderer.gamma,
                weight=self.renderer.weight,
                grid=self.renderer.grid,
                point_weights=coreset.weights,
                **self.renderer.method_options,
            )
            tiers[zoom] = CoresetTier(zoom, coreset, tier_renderer)
            previous = tiers[zoom]
        return tiers

    def coreset_tier(self, zoom: int) -> Optional[CoresetTier]:
        """The coreset tier serving ``zoom``, or ``None`` for exact."""
        with self._lock:
            return self._coreset_tiers.get(int(zoom))

    @property
    def shard_ids(self) -> List[str]:
        """Circuit-breaker ids in shard order (the bare id when unsharded)."""
        if self.shards == 1:
            return [self.dataset_id]
        return [f"{self.dataset_id}#s{index}" for index in range(self.shards)]

    def _probe_method(self) -> IndexedMethod:
        """The fitted method whose exact tree the colour probe refines.

        The serving method, or :data:`PROBE_METHOD` when the serving
        method has no index. Fits it on first use: call under the
        entry lock (:meth:`warm` does, so requests find it fitted).
        """
        fitted = self.renderer.get_method(self.method)
        if not isinstance(fitted, IndexedMethod):
            fitted = self.renderer.get_method(PROBE_METHOD)
        assert isinstance(fitted, IndexedMethod)
        return fitted

    def coarse_density(self, centers: "FloatArray") -> "FloatArray":
        """Upper bounds of the exact density at ``centers`` — the colour probe.

        Refines the exact tree of :meth:`_probe_method` to ε =
        :data:`PROBE_EPS` in this process and returns each pixel's upper
        bound: never below the exact density and within
        ``1 + PROBE_EPS`` of it, so its peak is a colour ceiling no
        probed pixel exceeds. The probe's work is merged into the
        method's ``stats``.
        """
        with self._lock:
            weight = float(self.renderer.weight)
            fitted = self._probe_method()
        stats = QueryStats()
        # The atol every served ε tile resolves to (RenderRequest.resolve).
        __, upper = fitted.make_batch_engine(stats).query_eps_bounds(
            centers, PROBE_EPS, atol=1e-9 * weight
        )
        fitted.stats.merge(stats)
        return upper

    @property
    def points(self) -> "FloatArray":
        """The validated point array currently served."""
        return self.renderer.points

    @property
    def base_grid(self) -> "PixelGrid":
        """The fixed base viewport tiles subdivide."""
        return self.renderer.grid

    def versioned_id(self) -> str:
        """``"<id>@v<version>"`` — the cache-key dataset component."""
        with self._lock:
            return f"{self.dataset_id}@v{self.version}"

    def points_digest(self) -> str:
        """SHA-1 of the current point bytes (exposed in ``/stats``)."""
        return hashlib.sha1(self.points.tobytes()).hexdigest()

    def warm(self, method: Optional[str] = None) -> None:
        """Fit ``method`` (default: the serving method) now, not per-request.

        Also fits the colour probe's method (:meth:`_probe_method`).
        Eager fitting under the entry lock means concurrent first
        requests never race to build the same index.
        """
        with self._lock:
            name = method if method is not None else self.method
            self.renderer.get_method(name)
            for tier in self._coreset_tiers.values():
                tier.renderer.get_method(name)
            self._probe_method()
            for fitted in self._pooled_methods():
                fitted.pool_owner = self.process_executor

    def _pooled_methods(self) -> List[IndexedMethod]:
        """The trees the dataset's pool publishes, as their fitted methods.

        The serving method of the exact renderer and of every distinct
        coreset-tier renderer (tiers share a renderer when their
        coresets converge), where it refines a kd-tree.
        """
        renderers = [self.renderer] + [
            tier.renderer for tier in self._coreset_tiers.values()
        ]
        methods: Dict[int, IndexedMethod] = {}
        for renderer in renderers:
            fitted = renderer._methods.get(self.method)
            if isinstance(fitted, IndexedMethod) and fitted.index == "kd":
                methods.setdefault(id(fitted), fitted)
        return list(methods.values())

    def process_executor(
        self, method: IndexedMethod, workers: int, backend: Optional[str] = None
    ) -> Optional["ProcessTileExecutor"]:
        """The dataset's render pool for ``method``, or ``None``.

        Built on first use under the entry lock, with that caller's
        ``workers`` and ``backend`` (the tile service always asks with
        its config's): its workers attach the exact tree and every
        distinct coreset-tier tree once, so all zooms render on the
        same processes. ``None`` when ``method`` is not one the pool
        publishes (a renderer an :meth:`append` replaced); that render
        runs in-process.
        """
        from repro.visual.executors import ProcessTileExecutor

        with self._lock:
            methods = self._pooled_methods()
            if not any(fitted is method for fitted in methods):
                return None
            if self._pool is None or self._pool.closed:
                self._pool = ProcessTileExecutor(methods, workers=workers, backend=backend)
            return self._pool

    def _close_pool(self) -> None:
        """Shut the dataset's pool down and unlink its trees."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def append(self, points: "PointLike") -> int:
        """Grow the dataset; refit; bump the version. Returns new count.

        The base viewport is deliberately **kept** — tile ``(z, x, y)``
        must keep addressing the same region of space across appends —
        so appended points may fall outside it (they still contribute
        density to every in-view pixel; kernels have unbounded support).
        The default weight (``1/n``) and Scott-rule bandwidth are
        recomputed from the grown dataset unless an explicit ``gamma``
        was registered.
        """
        extra = np.asarray(points, dtype=np.float64)
        if extra.ndim != 2 or extra.shape[1] != self.points.shape[1]:
            raise InvalidParameterError(
                f"appended points must be (m, {self.points.shape[1]}), "
                f"got shape {extra.shape}"
            )
        with self._lock:
            merged = np.vstack([self.points, extra])
            stale = self.renderer
            stale_tiers = self._coreset_tiers
            self.renderer = KDVRenderer(
                merged,
                kernel=self.renderer.kernel,
                gamma=self._gamma_given,
                grid=self.base_grid,
                **self.renderer.method_options,
            )
            self.version += 1
            # Coreset representatives (and their delta bounds) are
            # functions of the points, so the whole pyramid is rebuilt
            # against the merged dataset before any tile can route to it.
            self._coreset_tiers = self._build_coreset_tiers()
            # The pool and the replaced renderers' own pools hold the
            # old trees in shared memory; release them now rather than
            # waiting on garbage collection.
            self._close_pool()
            self.warm()
            _close_renderer_methods(stale)
            for tier in stale_tiers.values():
                _close_renderer_methods(tier.renderer)
            return int(merged.shape[0])

    def close(self) -> None:
        """Release the process pools and their shared memory (idempotent)."""
        with self._lock:
            self._close_pool()
            _close_renderer_methods(self.renderer)
            for tier in self._coreset_tiers.values():
                _close_renderer_methods(tier.renderer)

    def executor_health(self) -> List[Dict[str, Any]]:
        """Health snapshots of every process pool (for ``/stats``).

        The dataset's own pool first, then the pools fitted methods
        built for themselves (methods the dataset's pool does not
        publish), walking the exact renderer and every coreset tier
        renderer (deduplicated — tiers share renderers when their
        coresets converge).
        """
        with self._lock:
            pools = [] if self._pool is None else [self._pool]
            renderers = [self.renderer] + [
                tier.renderer for tier in self._coreset_tiers.values()
            ]
        reports: List[Dict[str, Any]] = [pool.health() for pool in pools]
        seen: set[int] = set()
        for renderer in renderers:
            if id(renderer) in seen:
                continue
            seen.add(id(renderer))
            for fitted in renderer._methods.values():
                health = getattr(fitted, "executor_health", None)
                if health is not None:
                    reports.extend(health())
        return reports

    def as_dict(self) -> Dict[str, Any]:
        """Entry snapshot for ``/stats`` (plus ``sharding`` when sharded)."""
        with self._lock:
            snapshot = {
                "id": self.dataset_id,
                "version": self.version,
                "n": int(self.points.shape[0]),
                "kernel": self.renderer.kernel.name,
                "gamma": float(self.renderer.gamma),
                "method": self.method,
                "viewport": {
                    "low": [float(v) for v in self.base_grid.low],
                    "high": [float(v) for v in self.base_grid.high],
                },
                "points_sha1": self.points_digest(),
                "coreset": {
                    "zoom_threshold": self.coreset_zoom,
                    "delta_cap": self.coreset_delta_cap,
                    "tiers": [
                        self._coreset_tiers[z].as_dict()
                        for z in sorted(self._coreset_tiers)
                    ],
                },
            }
        if self.shards > 1:
            snapshot["sharding"] = {"shards": self.shards}
        return snapshot

    def __repr__(self) -> str:
        return (
            f"DatasetEntry({self.dataset_id!r}, n={self.points.shape[0]}, "
            f"v{self.version})"
        )


class DatasetRegistry:
    """Named datasets, each loaded and indexed once.

    Parameters
    ----------
    on_invalidate:
        Callback invoked with the dataset id after an append bumps its
        version — the tile service hooks its cache invalidation here.
    """

    def __init__(
        self, on_invalidate: Optional[Callable[[str], None]] = None
    ) -> None:
        self._entries: Dict[str, DatasetEntry] = {}
        self._lock = threading.Lock()
        self._on_invalidate = on_invalidate

    def register(
        self,
        dataset_id: str,
        points: "PointLike",
        *,
        kernel: Any = "gaussian",
        gamma: Optional[float] = None,
        method: str = "quad",
        grid: Optional["PixelGrid"] = None,
        coreset_zoom: Optional[int] = None,
        coreset_delta_cap: float = DEFAULT_CORESET_DELTA_CAP,
        coreset_tile_px: int = DEFAULT_CORESET_TILE_PX,
        **method_options: Any,
    ) -> DatasetEntry:
        """Validate, index and serve a dataset under ``dataset_id``.

        The renderer is built over ``grid`` (default: fitted to the
        points with a small margin) and the serving ``method`` is fitted
        eagerly. With ``coreset_zoom=k`` a per-zoom weighted-coreset
        pyramid is also materialised: tiles at zoom < k are answered
        from the zoom's coreset with the coreset error ``delta_z``
        folded into the request's ``eps`` (see docs/serving.md), while
        zoom >= k falls through to exact QUAD. Re-registering an
        existing id raises — use :meth:`append` to grow a dataset, or
        :meth:`remove` first.
        """
        return self._register(
            dataset_id,
            points,
            shards=1,
            kernel=kernel,
            gamma=gamma,
            method=method,
            grid=grid,
            coreset_zoom=coreset_zoom,
            coreset_delta_cap=coreset_delta_cap,
            coreset_tile_px=coreset_tile_px,
            method_options=method_options,
        )

    def _register(
        self,
        dataset_id: str,
        points: "PointLike",
        *,
        shards: int,
        kernel: Any,
        gamma: Optional[float],
        method: str,
        grid: Optional["PixelGrid"],
        coreset_zoom: Optional[int],
        coreset_delta_cap: float,
        coreset_tile_px: int,
        method_options: Dict[str, Any],
    ) -> DatasetEntry:
        """Build, store and warm one entry (shared by the registries)."""
        dataset_id = str(dataset_id)
        if not dataset_id or "/" in dataset_id:
            raise InvalidParameterError(
                f"dataset id must be a non-empty path segment, got {dataset_id!r}"
            )
        renderer = KDVRenderer(
            points, kernel=kernel, gamma=gamma, grid=grid, **method_options
        )
        entry = DatasetEntry(
            dataset_id,
            renderer,
            gamma_given=gamma,
            method=str(method).lower(),
            coreset_zoom=coreset_zoom,
            coreset_delta_cap=coreset_delta_cap,
            coreset_tile_px=coreset_tile_px,
            shards=shards,
        )
        with self._lock:
            if dataset_id in self._entries:
                raise InvalidParameterError(
                    f"dataset {dataset_id!r} is already registered"
                )
            self._entries[dataset_id] = entry
        entry.warm()
        return entry

    def get(self, dataset_id: str) -> DatasetEntry:
        """The entry for ``dataset_id``; raises :class:`DatasetNotFoundError`."""
        with self._lock:
            entry = self._entries.get(str(dataset_id))
        if entry is None:
            with self._lock:
                known = ", ".join(sorted(self._entries)) or "none"
            raise DatasetNotFoundError(
                f"unknown dataset {dataset_id!r}; registered: {known}"
            )
        return entry

    def append(self, dataset_id: str, points: "PointLike") -> int:
        """Append points to a dataset; invalidate; return the new count."""
        entry = self.get(dataset_id)
        count = entry.append(points)
        if self._on_invalidate is not None:
            self._on_invalidate(entry.dataset_id)
        return count

    def remove(self, dataset_id: str) -> bool:
        """Drop a dataset (and invalidate); returns whether it existed."""
        with self._lock:
            entry = self._entries.pop(str(dataset_id), None)
        if entry is not None:
            entry.close()
            if self._on_invalidate is not None:
                self._on_invalidate(entry.dataset_id)
        return entry is not None

    def ids(self) -> List[str]:
        """Registered dataset ids, sorted."""
        with self._lock:
            return sorted(self._entries)

    def __contains__(self, dataset_id: object) -> bool:
        with self._lock:
            return str(dataset_id) in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def as_dict(self) -> Dict[str, Any]:
        """Snapshot of every entry, keyed by id (for ``/stats``)."""
        with self._lock:
            entries = list(self._entries.values())
        return {entry.dataset_id: entry.as_dict() for entry in entries}

    def __repr__(self) -> str:
        return f"DatasetRegistry({self.ids()!r})"
