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
  refit once, beside the version it replaces, then swapped in under the
  entry lock with the entry's **version** bumped, and the registry's
  invalidation callback fires so the tile cache can drop everything
  computed against the old points. Version numbers are embedded in
  cache keys, making stale reuse structurally impossible rather than
  merely unlikely.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.engine import QueryStats
from repro.errors import DatasetNotFoundError, InvalidParameterError
from repro.methods.base import IndexedMethod
from repro.methods.registry import method_option_names
from repro.sampling.coreset import Coreset, coreset_for_delta
from repro.serve.tiles import zoom_cell_size
from repro.visual.kdv import KDVRenderer

if TYPE_CHECKING:
    from repro._types import FloatArray, PointLike
    from repro.visual.grid import PixelGrid

__all__ = ["CoresetTier", "DatasetEntry", "DatasetRegistry"]

#: Default normalised coreset error budget per zoom (``delta_z``);
#: must stay well below typical request ``eps`` (0.05 by default in
#: :attr:`~repro.serve.config.RenderConfig.eps`) so the folded
#: ``eps_effective = eps - delta_z`` stays positive.
DEFAULT_CORESET_DELTA_CAP = 0.01

#: Pixel-tile edge assumed by the pyramid's cell sizing; matches
#: :data:`repro.serve.tiles.DEFAULT_TILE_PX`. A larger value only makes
#: the coreset finer (more conservative), never less accurate.
CORESET_TILE_PX = 256

#: ε of the colour-range probe (:meth:`DatasetEntry.coarse_density`):
#: its peak upper bound lies within ``1 + PROBE_EPS`` of the exact peak.
PROBE_EPS = 0.01

#: The probe's ε schedule: every probe pixel is refined to the first ε,
#: and only the pixels that may still hold the peak to each later one.
PROBE_EPS_SCHEDULE = (1.0, 0.1, PROBE_EPS)

#: Edge of the square probe-grid blocks the probe refines, one engine
#: call per block and ε: a small block keeps its shared frontier near
#: its own pixels.
PROBE_BLOCK_PX = 32

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


class DatasetEntry:
    """One served dataset: points, fitted renderer, version.

    Not constructed directly — use :meth:`DatasetRegistry.register`.
    The entry's ``renderer`` is fitted over the dataset's base viewport;
    tile requests derive per-tile grids from it via ``with_grid`` clones
    that share the fitted method objects.
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
    ) -> None:
        if coreset_zoom is not None and int(coreset_zoom) < 1:
            raise InvalidParameterError(
                f"coreset_zoom must be >= 1 (or None to disable), got {coreset_zoom!r}"
            )
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
        self._gamma_given = gamma_given
        self._lock = threading.RLock()
        # Serializes appends (each builds on the previous one's points)
        # without blocking readers of the entry lock while it refits.
        self._append_lock = threading.Lock()
        self._coreset_tiers: Dict[int, CoresetTier] = self._build_coreset_tiers(
            renderer
        )

    def _build_coreset_tiers(self, renderer: KDVRenderer) -> Dict[int, CoresetTier]:
        """Materialise one coreset + renderer per zoom below the threshold.

        Called at registration and again for every :meth:`append` (the
        representatives and their error bounds depend on the points),
        over the exact ``renderer`` of that version. Each tier renderer
        shares its base viewport and kernel/bandwidth/weight so their
        densities are directly comparable — only the point set differs.
        """
        if self.coreset_zoom is None:
            return {}
        tiers: Dict[int, CoresetTier] = {}
        previous: Optional[CoresetTier] = None
        for zoom in range(self.coreset_zoom):
            start_cell = zoom_cell_size(renderer.grid, zoom, CORESET_TILE_PX)
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
                renderer.points,
                renderer.kernel,
                renderer.gamma,
                renderer.weight,
                cell_size=start_cell,
                delta_cap=self.coreset_delta_cap,
                point_weights=renderer.point_weights,
            )
            tier_renderer = KDVRenderer(
                coreset.points,
                kernel=renderer.kernel,
                gamma=renderer.gamma,
                weight=renderer.weight,
                grid=renderer.grid,
                point_weights=coreset.weights,
                **renderer.method_options,
            )
            tiers[zoom] = CoresetTier(zoom, coreset, tier_renderer)
            previous = tiers[zoom]
        return tiers

    def coreset_tier(self, zoom: int) -> Optional[CoresetTier]:
        """The coreset tier serving ``zoom``, or ``None`` for exact."""
        with self._lock:
            return self._coreset_tiers.get(int(zoom))

    def snapshot(
        self, zoom: int
    ) -> Tuple[int, KDVRenderer, Optional[CoresetTier]]:
        """``(version, renderer, coreset tier of zoom)``, read in one go.

        Taken under the entry lock, so all three belong to the same
        version: :meth:`append` replaces them together. A tile plan is
        built from one snapshot and labelled with its version.
        """
        with self._lock:
            return self.version, self.renderer, self._coreset_tiers.get(int(zoom))

    def _probe_method(self, renderer: KDVRenderer) -> IndexedMethod:
        """The fitted method whose exact tree the colour probe refines.

        The serving method of ``renderer`` (an exact renderer of this
        entry), or :data:`PROBE_METHOD` when the serving method has no
        index. Fits it on first use: call under the entry lock, or
        before the renderer is published (:meth:`warm` and
        :meth:`append` fit it, so requests find it fitted).
        """
        fitted = renderer.get_method(self.method)
        if not isinstance(fitted, IndexedMethod):
            fitted = renderer.get_method(PROBE_METHOD)
        assert isinstance(fitted, IndexedMethod)
        return fitted

    def coarse_density(
        self, grid: "PixelGrid", renderer: Optional[KDVRenderer] = None
    ) -> float:
        """The colour ceiling of ``grid``: a peak query on the exact density.

        Branch and bound over the exact tree of :meth:`_probe_method`, in
        this process. Each :data:`PROBE_BLOCK_PX`-square block of
        ``grid`` is refined with one engine call per ε of
        :data:`PROBE_EPS_SCHEDULE`. After each call, a pixel whose upper
        bound is below the best lower bound seen so far drops out: its
        exact density is below that of the pixel holding the lower
        bound, so it cannot be the peak. The largest upper bound left is
        therefore never below the exact density of any pixel of
        ``grid`` and within ``1 + PROBE_EPS`` of the largest (or within
        the atol every served ε tile resolves to). ``renderer`` is the
        exact renderer of the version to probe (one from
        :meth:`snapshot`); by default the current one. The probe's work
        is merged into the method's ``stats``.
        """
        with self._lock:
            if renderer is None:
                renderer = self.renderer
            weight = float(renderer.weight)
            fitted = self._probe_method(renderer)
        stats = QueryStats()
        engine = fitted.make_batch_engine(stats)
        centers = grid.centers()
        upper = np.full(centers.shape[0], np.inf)
        best_lower = 0.0
        for eps in PROBE_EPS_SCHEDULE:
            for block in grid.tiles(PROBE_BLOCK_PX):
                rows = block[upper[block] >= best_lower]
                if rows.size:
                    # The atol every served ε tile resolves to
                    # (RenderRequest.resolve).
                    lower, upper[rows] = engine.query_eps_bounds(
                        centers[rows], eps, atol=1e-9 * weight
                    )
                    best_lower = max(best_lower, float(lower.max()))
        fitted.stats.merge(stats)
        return float(upper.max())

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
            self._fit(self.renderer, self._coreset_tiers, method)

    def _fit(
        self,
        renderer: KDVRenderer,
        tiers: Dict[int, CoresetTier],
        method: Optional[str] = None,
    ) -> None:
        """:meth:`warm`'s work on one version's renderers and tiers.

        Call under the entry lock, or before that version is published.
        """
        name = method if method is not None else self.method
        renderer.get_method(name)
        for tier in tiers.values():
            tier.renderer.get_method(name)
        self._probe_method(renderer)

    def append(self, points: "PointLike") -> int:
        """Grow the dataset; refit; bump the version. Returns new count.

        The base viewport is deliberately **kept** — tile ``(z, x, y)``
        must keep addressing the same region of space across appends —
        so appended points may fall outside it (they still contribute
        density to every in-view pixel; kernels have unbounded support).
        The default weight (``1/n``) and Scott-rule bandwidth are
        recomputed from the grown dataset unless an explicit ``gamma``
        was registered.

        The new renderer, its coreset tiers and their fitted methods are
        built before the entry lock is taken, so plans and colour probes
        keep reading the current version meanwhile; the lock covers only
        the swap. Appends run one at a time, each over the points the
        previous one left. The render pool's workers keep running; a
        render holding the old version finishes on its trees, whose
        shared-memory segments are unlinked once nothing holds them.
        """
        extra = np.asarray(points, dtype=np.float64)
        if extra.ndim != 2 or extra.shape[1] != self.points.shape[1]:
            raise InvalidParameterError(
                f"appended points must be (m, {self.points.shape[1]}), "
                f"got shape {extra.shape}"
            )
        with self._append_lock:
            # Only appends replace the renderer, so it is stable here.
            current = self.renderer
            merged = np.vstack([current.points, extra])
            renderer = KDVRenderer(
                merged,
                kernel=current.kernel,
                gamma=self._gamma_given,
                grid=current.grid,
                **current.method_options,
            )
            # Coreset representatives (and their delta bounds) are
            # functions of the points, so the whole pyramid is rebuilt
            # against the merged dataset before any tile can route to it.
            tiers = self._build_coreset_tiers(renderer)
            self._fit(renderer, tiers)
            with self._lock:
                self.renderer, self._coreset_tiers = renderer, tiers
                self.version += 1
            return int(merged.shape[0])

    def as_dict(self) -> Dict[str, Any]:
        """Entry snapshot for ``/stats``."""
        with self._lock:
            return {
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

    def __repr__(self) -> str:
        return (
            f"DatasetEntry({self.dataset_id!r}, n={self.points.shape[0]}, "
            f"v{self.version})"
        )


def _already_registered(dataset_id: str) -> InvalidParameterError:
    return InvalidParameterError(f"dataset {dataset_id!r} is already registered")


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
        shards: int = 1,
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

        ``shards`` is accepted for callers written against 4.x and
        otherwise ignored: it must be >= 1, and every dataset is served
        whole, under one circuit breaker. Other keywords are the
        method's options (``leaf_size=`` ...); one that no method
        constructor declares (:func:`~repro.methods.registry.method_option_names`)
        raises :class:`~repro.errors.InvalidParameterError`.

        The entry is published only once warm: a request that finds it
        also finds its serving method fitted. Registration starts no
        render worker: the process's render pool starts with the first
        pooled render (:func:`repro.visual.executors.render_pool`).
        """
        if int(shards) < 1:
            raise InvalidParameterError(f"shards must be >= 1, got {shards!r}")
        unknown = sorted(set(method_options) - method_option_names())
        if unknown:
            raise InvalidParameterError(
                f"unknown option(s) {', '.join(unknown)}: no method declares them"
            )
        dataset_id = str(dataset_id)
        if not dataset_id or "/" in dataset_id:
            raise InvalidParameterError(
                f"dataset id must be a non-empty path segment, got {dataset_id!r}"
            )
        if dataset_id in self:
            raise _already_registered(dataset_id)
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
        )
        entry.warm()
        with self._lock:
            # A concurrent registration of the same id may have
            # published while this entry was being built.
            taken = dataset_id in self._entries
            if not taken:
                self._entries[dataset_id] = entry
        if taken:
            raise _already_registered(dataset_id)
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
        """Drop a dataset (and invalidate); returns whether it existed.

        The render pool's workers keep running; the shared-memory
        segments of the dataset's trees are unlinked once nothing holds
        the trees (at once, when no render of the dataset is in flight).
        """
        with self._lock:
            entry = self._entries.pop(str(dataset_id), None)
        if entry is not None:
            if self._on_invalidate is not None:
                self._on_invalidate(entry.dataset_id)
        return entry is not None

    def ids(self) -> List[str]:
        """Registered dataset ids, sorted."""
        with self._lock:
            return sorted(self._entries)

    def entries(self) -> List[DatasetEntry]:
        """The registered entries, sorted by id."""
        with self._lock:
            return [self._entries[key] for key in sorted(self._entries)]

    def __contains__(self, dataset_id: object) -> bool:
        with self._lock:
            return str(dataset_id) in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def as_dict(self) -> Dict[str, Any]:
        """Snapshot of every entry, keyed by id (for ``/stats``)."""
        return {entry.dataset_id: entry.as_dict() for entry in self.entries()}

    def __repr__(self) -> str:
        return f"DatasetRegistry({self.ids()!r})"
