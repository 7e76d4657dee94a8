"""KDV tile service: dataset registry, multi-level cache, HTTP server.

The serving stack, bottom-up:

* :mod:`repro.serve.tiles` — slippy-map tile addressing over a
  dataset's base viewport (seam-free ``2^z × 2^z`` pyramids);
* :mod:`repro.serve.registry` — datasets loaded, validated and indexed
  exactly once, shared across requests, versioned on append;
* :mod:`repro.serve.service` — request planning, the three-level
  :class:`~repro.cache.TileCache` (PNG bytes / density arrays / bound
  envelopes), single-flight render dedup, worker pool,
  backpressure, deadline handling and one circuit breaker per dataset;
* :mod:`repro.serve.http` — a stdlib-asyncio HTTP front end exposing
  ``GET /tile/{dataset}/{z}/{x}/{y}.png`` and ``GET /stats``.

Configuration lives in :mod:`repro.serve.config` as nested groups
(:class:`RenderConfig` / :class:`CacheConfig` / :class:`ResilienceConfig`)
composed into one :class:`ServiceConfig`; its fourth group,
:class:`ShardingConfig`, is a validated no-op kept for 4.x callers.

All rendering goes through the unified
:class:`~repro.visual.request.RenderRequest` API — the invariant linter
forbids legacy ``render_eps`` / ``render_tau`` calls in this package.
"""

from repro.serve.config import (
    CacheConfig,
    RenderConfig,
    ResilienceConfig,
    ServiceConfig,
    ShardingConfig,
)
from repro.serve.http import TileServer, run_server
from repro.serve.registry import DatasetEntry, DatasetRegistry
from repro.serve.service import TilePlan, TileService
from repro.serve.tiles import (
    DEFAULT_TILE_PX,
    MAX_ZOOM,
    tile_count,
    tile_grid,
    validate_tile,
)

__all__ = [
    "DEFAULT_TILE_PX",
    "MAX_ZOOM",
    "CacheConfig",
    "DatasetEntry",
    "DatasetRegistry",
    "RenderConfig",
    "ResilienceConfig",
    "ServiceConfig",
    "ShardingConfig",
    "TilePlan",
    "TileServer",
    "TileService",
    "run_server",
    "tile_count",
    "tile_grid",
    "validate_tile",
]
