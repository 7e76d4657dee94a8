"""Service configuration: four frozen knob groups.

:class:`ServiceConfig` bundles four frozen groups —

* :class:`RenderConfig` — what a tile render looks like and how it
  executes (tile size, default ε/τ, colormap, deadline, request and
  render worker counts, backend selection, zoom ceiling);
* :class:`CacheConfig` — byte budgets and TTL of the three-level
  :class:`~repro.cache.tiles.TileCache`;
* :class:`ResilienceConfig` — the degrade-don't-fail surface
  (backpressure queue, stale cache, circuit breakers, drain);
* :class:`ShardingConfig` — how many circuit-breaker shards each
  registered dataset's tiles spread over.

Callers build and read the groups themselves
(``ServiceConfig(render=RenderConfig(eps=0.1))``, ``config.render.eps``).

``to_dict()`` / ``from_dict()`` round-trip the nested shape, and
``from_env()`` builds a config from ``REPRO_SERVE_<GROUP>_<FIELD>``
environment variables (e.g. ``REPRO_SERVE_RENDER_EPS=0.1``,
``REPRO_SERVE_SHARDING_SHARDS=4``).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional

from repro.errors import InvalidParameterError
from repro.serve.tiles import DEFAULT_TILE_PX

__all__ = [
    "CacheConfig",
    "RenderConfig",
    "ResilienceConfig",
    "ServiceConfig",
    "ShardingConfig",
]


@dataclass(frozen=True)
class RenderConfig:
    """What a served tile render looks like and how it executes.

    ``workers`` sizes the *request* pool (threads running plan/cache/
    encode); ``render_workers`` + ``backend`` shape each render itself:
    ``render_workers=N`` with ``N >= 2`` drains every tile render
    through the dataset's shared-memory process pool of ``N`` workers
    (parallelism past the GIL), ``1`` renders in-process, and ``None``
    (the default) means one worker per CPU this process may use
    (:attr:`resolved_render_workers`). Each dataset has its own pool,
    so ``D`` datasets run up to ``D`` times that many workers.
    ``backend`` selects the compute backend (``None`` defers to
    ``REPRO_BACKEND``). Cache keys are unaffected — every
    executor/backend combination produces bit-identical tile bytes.
    """

    tile_px: int = DEFAULT_TILE_PX
    eps: float = 0.05
    tau: Optional[float] = None
    colormap: str = "density"
    deadline_ms: Optional[float] = 10_000.0
    workers: int = 4
    render_workers: Optional[int] = None
    backend: Optional[str] = None
    max_zoom: int = 18

    def __post_init__(self) -> None:
        if int(self.tile_px) < 1:
            raise InvalidParameterError(f"tile_px must be >= 1, got {self.tile_px!r}")
        if int(self.workers) < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {self.workers!r}")
        if self.render_workers is not None and int(self.render_workers) < 1:
            raise InvalidParameterError(
                f"render_workers must be >= 1, got {self.render_workers!r}"
            )
        if int(self.max_zoom) < 0:
            raise InvalidParameterError(
                f"max_zoom must be >= 0, got {self.max_zoom!r}"
            )

    @property
    def resolved_render_workers(self) -> int:
        """``render_workers``, with ``None`` resolved to the usable CPUs.

        The CPUs in this process's affinity mask where the platform has
        one, else ``os.cpu_count()``; ``1`` renders in-process.
        """
        if self.render_workers is not None:
            return int(self.render_workers)
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity masks on this platform
            return os.cpu_count() or 1


@dataclass(frozen=True)
class CacheConfig:
    """Byte budgets and TTL of the three-level tile cache."""

    png_bytes: int = 64 * 1024 * 1024
    aux_bytes: int = 64 * 1024 * 1024
    ttl_s: Optional[float] = None

    def __post_init__(self) -> None:
        if int(self.png_bytes) < 1:
            raise InvalidParameterError(
                f"png_bytes must be >= 1, got {self.png_bytes!r}"
            )
        if int(self.aux_bytes) < 1:
            raise InvalidParameterError(
                f"aux_bytes must be >= 1, got {self.aux_bytes!r}"
            )
        if self.ttl_s is not None and not float(self.ttl_s) > 0.0:
            raise InvalidParameterError(
                f"ttl_s must be > 0 (or None), got {self.ttl_s!r}"
            )


@dataclass(frozen=True)
class ResilienceConfig:
    """The degrade-don't-fail surface.

    ``degraded_serving`` turns the whole overload policy on/off (off
    restores strict raise semantics everywhere); ``stale_bytes`` /
    ``stale_ttl_s`` bound the last-known-good tile store;
    ``breaker_threshold`` / ``breaker_reset_s`` parameterise the
    per-shard circuit breakers; ``drain_s`` bounds how long
    :meth:`~repro.serve.service.TileService.close` waits for in-flight
    requests before shutting the pools down.
    """

    queue_limit: int = 32
    degraded_serving: bool = True
    stale_bytes: int = 16 * 1024 * 1024
    stale_ttl_s: Optional[float] = 300.0
    breaker_threshold: int = 5
    breaker_reset_s: float = 30.0
    drain_s: float = 5.0

    def __post_init__(self) -> None:
        if int(self.queue_limit) < 1:
            raise InvalidParameterError(
                f"queue_limit must be >= 1, got {self.queue_limit!r}"
            )
        if int(self.stale_bytes) < 1:
            raise InvalidParameterError(
                f"stale_cache_bytes must be >= 1, got {self.stale_bytes!r}"
            )
        if self.stale_ttl_s is not None and not float(self.stale_ttl_s) > 0.0:
            raise InvalidParameterError(
                f"stale_ttl_s must be > 0 (or None), got {self.stale_ttl_s!r}"
            )
        if int(self.breaker_threshold) < 1:
            raise InvalidParameterError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold!r}"
            )
        if not float(self.breaker_reset_s) >= 0.0:
            raise InvalidParameterError(
                f"breaker_reset_s must be >= 0, got {self.breaker_reset_s!r}"
            )
        if not float(self.drain_s) >= 0.0:
            raise InvalidParameterError(
                f"drain_s must be >= 0, got {self.drain_s!r}"
            )


@dataclass(frozen=True)
class ShardingConfig:
    """Per-tile circuit-breaker buckets of registered datasets.

    ``shards=K`` spreads each dataset's tiles over K rendezvous-hashed
    shards: a tile's home shard owns its circuit breaker and names
    itself in ``X-Shard``. The dataset keeps one index, one coreset
    pyramid and one set of cache keys, so tiles render the same bytes,
    with the same guarantee, at every K (see docs/serving.md).
    ``min_points_per_shard`` caps the effective shard count at
    ``n // min_points_per_shard`` on small datasets.
    """

    shards: int = 1
    min_points_per_shard: int = 64

    def __post_init__(self) -> None:
        if int(self.shards) < 1:
            raise InvalidParameterError(
                f"shards must be >= 1, got {self.shards!r}"
            )
        if int(self.min_points_per_shard) < 1:
            raise InvalidParameterError(
                f"min_points_per_shard must be >= 1, got {self.min_points_per_shard!r}"
            )


_GROUP_TYPES: Dict[str, type] = {
    "render": RenderConfig,
    "cache": CacheConfig,
    "resilience": ResilienceConfig,
    "sharding": ShardingConfig,
}


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of a :class:`~repro.serve.service.TileService`.

    Built from nested groups; each omitted group takes its defaults::

        ServiceConfig(
            render=RenderConfig(tile_px=256, eps=0.05),
            cache=CacheConfig(png_bytes=64 << 20),
            resilience=ResilienceConfig(queue_limit=32),
            sharding=ShardingConfig(shards=4),
        )
    """

    render: RenderConfig = field(default_factory=RenderConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    sharding: ShardingConfig = field(default_factory=ShardingConfig)

    def __post_init__(self) -> None:
        for name, group_type in _GROUP_TYPES.items():
            group = getattr(self, name)
            if not isinstance(group, group_type):
                raise InvalidParameterError(
                    f"ServiceConfig {name}= expects a {group_type.__name__}, "
                    f"got {type(group).__name__}"
                )

    def replace(self, **changes: Any) -> "ServiceConfig":
        """A copy with whole groups replaced (``render=``, ``cache=``, ...)."""
        bad = sorted(set(changes) - set(_GROUP_TYPES))
        if bad:
            raise InvalidParameterError(
                f"ServiceConfig.replace takes group names only, got {', '.join(bad)}"
            )
        return dataclasses.replace(self, **changes)

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        """Nested JSON-ready snapshot; round-trips through :meth:`from_dict`."""
        return {
            name: dataclasses.asdict(getattr(self, name)) for name in _GROUP_TYPES
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Mapping[str, Any]]) -> "ServiceConfig":
        """Rebuild a config from a :meth:`to_dict` snapshot."""
        unknown = sorted(set(payload) - set(_GROUP_TYPES))
        if unknown:
            raise InvalidParameterError(
                f"unknown ServiceConfig group(s): {', '.join(unknown)}"
            )
        groups = {
            name: _GROUP_TYPES[name](**dict(payload[name]))
            for name in _GROUP_TYPES
            if name in payload
        }
        return cls(**groups)

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None
    ) -> "ServiceConfig":
        """Build a config from ``REPRO_SERVE_<GROUP>_<FIELD>`` variables.

        Examples: ``REPRO_SERVE_RENDER_EPS=0.1``,
        ``REPRO_SERVE_CACHE_PNG_BYTES=1048576``,
        ``REPRO_SERVE_RESILIENCE_DEGRADED_SERVING=false``,
        ``REPRO_SERVE_SHARDING_SHARDS=4``. Unset variables keep their
        group defaults; values parse by the field's type (the literal
        ``none``/empty clears an optional field).
        """
        env = os.environ if environ is None else environ
        groups: Dict[str, Any] = {}
        for name, group_type in _GROUP_TYPES.items():
            values: Dict[str, Any] = {}
            for group_field in fields(group_type):
                variable = f"REPRO_SERVE_{name.upper()}_{group_field.name.upper()}"
                raw = env.get(variable)
                if raw is None:
                    continue
                values[group_field.name] = _parse_env_value(
                    variable, raw, group_field.default
                )
            groups[name] = group_type(**values)
        return cls(**groups)


def _parse_env_value(variable: str, raw: str, default: Any) -> Any:
    """Coerce an env string by the field default's type."""
    text = raw.strip()
    if text.lower() in ("", "none", "null"):
        return None
    if isinstance(default, bool):
        if text.lower() in ("1", "true", "yes", "on"):
            return True
        if text.lower() in ("0", "false", "no", "off"):
            return False
        raise InvalidParameterError(f"{variable}={raw!r} is not a boolean")
    try:
        if isinstance(default, int) and not isinstance(default, bool):
            return int(text)
        if isinstance(default, float) or default is None:
            # Optional numeric fields default to None; float covers
            # every current one (ttl/deadline/tau) and int-valued
            # strings parse losslessly through float for render_workers.
            number = float(text)
            return int(number) if number.is_integer() and "." not in text else number
    except ValueError:
        raise InvalidParameterError(f"{variable}={raw!r} is not a number") from None
    return text
