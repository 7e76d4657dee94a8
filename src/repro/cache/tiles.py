"""The tile service's multi-level density cache.

:class:`TileCache` layers three :class:`~repro.utils.cache.LRUCache`
instances, all keyed by ``(dataset_id, level, digest)`` tuples where the
digest is a canonical :class:`~repro.visual.request.RenderRequest`
fingerprint (or a :func:`partial_fingerprint` of it):

* **png** — the encoded tile bytes actually served. The digest is the
  full request fingerprint plus dataset version, colormap and tile XYZ,
  so any field that could change a served byte splits the key.
* **density** — the rendered value array *before* colour mapping. Its
  digest omits the colormap, so re-colouring a tile (day/night styles,
  τ restyling) is a cache hit that skips the whole refinement.
* **bounds** — the tightest sound per-pixel ``(LB, UB)`` envelope any
  complete render of the tile's grid has produced: the root-node bounds
  at first, intersected in place with each complete render's final
  envelope (so readers that mutate an entry copy it first). Its
  digest omits ε, τ, the operation, the tile partition *and* the
  colormap — every such render bounds the same density (dataset, tier,
  method, kernel, bandwidth, grid) — so one entry serves every
  parameter sweep over the same viewport. Only τ tiles read it: pixels
  it settles beyond the tie guard keep its decision, and the tile
  driver refines just the rest — bit-identical to direct τ refinement,
  since a settled τ decision does not depend on the refinement
  schedule. ε tiles never start from it: a narrowed start would change
  which rows retire when, and so the ε bytes. They render from root
  bounds and narrow the entry afterwards.

Every level is LRU with its own byte budget and optional TTL.
:meth:`TileCache.invalidate_dataset` drops all three levels for one
dataset id — the append-to-dataset hook — and all hit/miss/eviction
traffic is mirrored into a :class:`~repro.obs.metrics.MetricsRegistry`
as ``tile_cache.<level>.<event>`` counters when one is supplied.
"""

from __future__ import annotations

import hashlib
import json
import threading
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional, Tuple, TypeVar

from repro.utils.cache import LRUCache

if TYPE_CHECKING:
    import time

    import numpy as np

    from repro._types import FloatArray
    from repro.obs.metrics import MetricsRegistry
    from repro.visual.request import RenderRequest

__all__ = ["TileCache", "partial_fingerprint"]

T = TypeVar("T")

#: Cache key: (dataset id, level name, request digest).
TileKey = Tuple[str, str, str]

#: Default L1 (PNG bytes) budget.
DEFAULT_PNG_BYTES = 64 * 1024 * 1024

#: Default budget for *each* of the two value-level caches.
DEFAULT_AUX_BYTES = 64 * 1024 * 1024


def partial_fingerprint(
    request: "RenderRequest",
    *,
    drop: Tuple[str, ...] = (),
    extra: Optional[Mapping[str, Any]] = None,
) -> str:
    """A request fingerprint with selected payload fields removed.

    The value-level cache keys are *broader* than the full request
    fingerprint: the density level drops nothing but excludes the
    colormap from ``extra``, and the bounds level additionally drops
    ``op`` / ``eps`` / ``tau`` / ``atol`` / ``tile_size`` because every
    render's envelope bounds the same density. Dropping a field a
    level's value genuinely depends on would serve wrong tiles, so the drop
    lists live next to the code that proves independence
    (:meth:`TileCache` docstring), not with callers.
    """
    payload = request.fingerprint_payload()
    for field in drop:
        payload.pop(field, None)
    if extra:
        payload["extra"] = {str(key): extra[key] for key in sorted(extra)}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TileCache:
    """Three-level LRU cache (PNG bytes / density arrays / bound envelopes).

    Parameters
    ----------
    png_bytes:
        Byte budget of the encoded-tile level.
    aux_bytes:
        Byte budget of *each* value level (density and bounds).
    ttl_s:
        Optional TTL applied to every level.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; cache
        events are mirrored there as ``tile_cache.<level>.<event>``
        counters (hits, misses, inserts, evictions, expirations,
        invalidations).
    clock:
        Injectable monotonic clock, forwarded to the level caches.
    """

    LEVELS = ("png", "density", "bounds")

    def __init__(
        self,
        *,
        png_bytes: int = DEFAULT_PNG_BYTES,
        aux_bytes: int = DEFAULT_AUX_BYTES,
        ttl_s: Optional[float] = None,
        metrics: Optional["MetricsRegistry"] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        kwargs: Dict[str, Any] = {"ttl_s": ttl_s}
        if clock is not None:
            kwargs["clock"] = clock
        self._png: LRUCache[TileKey, bytes] = LRUCache(max_bytes=png_bytes, **kwargs)
        self._density: LRUCache[TileKey, "np.ndarray"] = LRUCache(
            max_bytes=aux_bytes, **kwargs
        )
        self._bounds: LRUCache[TileKey, Tuple["FloatArray", "FloatArray"]] = LRUCache(
            max_bytes=aux_bytes, **kwargs
        )
        self._levels: Dict[str, LRUCache[TileKey, Any]] = {
            "png": self._png,
            "density": self._density,
            "bounds": self._bounds,
        }
        self._metrics = metrics
        self._lock = threading.Lock()

    # -- metrics mirroring -------------------------------------------------

    def _tracked(self, level: str, operation: Callable[[], T]) -> T:
        """Run one cache operation, mirroring stat deltas into metrics.

        The lock serialises operation + delta so concurrent requests
        cannot double-count each other's events; cache operations are
        dictionary-cheap, so this is nowhere near the render hot path.
        """
        cache = self._levels[level]
        if self._metrics is None:
            return operation()
        with self._lock:
            before = cache.stats.as_dict()
            try:
                return operation()
            finally:
                after = cache.stats.as_dict()
                for field, value in after.items():
                    delta = value - before[field]
                    if delta:
                        self._metrics.counter(f"tile_cache.{level}.{field}").add(delta)

    # -- png level ---------------------------------------------------------

    def get_png(self, key: TileKey) -> Optional[bytes]:
        """Cached encoded tile bytes, or ``None``."""
        return self._tracked("png", lambda: self._png.get(key))

    def put_png(self, key: TileKey, data: bytes) -> None:
        """Cache encoded tile bytes."""
        self._tracked("png", lambda: self._png.put(key, data))

    # -- density level -----------------------------------------------------

    def get_density(self, key: TileKey) -> Optional["np.ndarray"]:
        """Cached pre-colormap value array, or ``None``."""
        return self._tracked("density", lambda: self._density.get(key))

    def put_density(self, key: TileKey, values: "np.ndarray") -> None:
        """Cache a rendered value array (density image or τ mask)."""
        self._tracked("density", lambda: self._density.put(key, values))

    # -- bounds level ------------------------------------------------------

    def get_bounds(
        self, key: TileKey
    ) -> Optional[Tuple["FloatArray", "FloatArray"]]:
        """Cached per-pixel ``(LB, UB)`` envelope, or ``None``."""
        return self._tracked("bounds", lambda: self._bounds.get(key))

    def put_bounds(
        self, key: TileKey, envelope: Tuple["FloatArray", "FloatArray"]
    ) -> None:
        """Cache (or replace) a per-pixel ``(LB, UB)`` envelope."""
        self._tracked("bounds", lambda: self._bounds.put(key, envelope))

    # -- invalidation ------------------------------------------------------

    def invalidate_dataset(self, dataset_id: str) -> int:
        """Drop every level's entries for one dataset; returns the count.

        Called when a dataset is appended to: every cached artifact —
        bytes, value arrays, bound envelopes — was computed against the
        old point set, so all of it goes. (Keys also embed the dataset
        *version*, so even a racing reader that re-inserts a stale entry
        after this sweep can never serve it to a new-version request.)
        """
        dropped = 0
        for level in self.LEVELS:
            dropped += self._tracked(
                level,
                lambda level=level: self._levels[level].invalidate_where(
                    lambda key: key[0] == dataset_id
                ),
            )
        return dropped

    def clear(self) -> int:
        """Drop everything in every level; returns the entry count."""
        return sum(
            self._tracked(level, lambda level=level: self._levels[level].clear())
            for level in self.LEVELS
        )

    # -- introspection -----------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """Per-level stats/occupancy snapshot, JSON-ready."""
        return {level: self._levels[level].as_dict() for level in self.LEVELS}

    def __repr__(self) -> str:
        occupancy = ", ".join(
            f"{level}={len(self._levels[level])}" for level in self.LEVELS
        )
        return f"TileCache({occupancy})"
