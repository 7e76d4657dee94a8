"""Service configuration: four frozen knob groups.

:class:`ServiceConfig` bundles four frozen groups —

* :class:`RenderConfig` — what a tile render looks like and how it
  executes (tile size, default ε/τ, colormap, deadline, request and
  render worker counts, zoom ceiling);
* :class:`CacheConfig` — byte budgets and TTL of the three-level
  :class:`~repro.cache.tiles.TileCache`;
* :class:`ResilienceConfig` — the degrade-don't-fail surface
  (backpressure queue, stale cache, one circuit breaker per dataset,
  drain);
* :class:`ShardingConfig` — kept for 4.x callers: its one field,
  ``shards``, is validated and otherwise ignored.

Callers build and read the groups themselves
(``ServiceConfig(render=RenderConfig(eps=0.1))``, ``config.render.eps``).

``to_dict()`` / ``from_dict()`` round-trip the nested shape, and
``from_env()`` builds a config from ``REPRO_SERVE_<GROUP>_<FIELD>``
environment variables (e.g. ``REPRO_SERVE_RENDER_EPS=0.1``).
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional

from repro.errors import InvalidParameterError, UnknownNameError
from repro.serve.tiles import DEFAULT_TILE_PX
from repro.utils.validation import check_positive
from repro.visual.colormap import get_colormap

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
    encode); ``render_workers`` shapes each render itself:
    ``render_workers=N`` with ``N >= 2`` drains every kd-tree tile
    render through the process's shared-memory render pool of ``N``
    workers (parallelism past the GIL;
    :func:`~repro.visual.executors.render_pool`), ``1`` renders
    in-process, and ``None`` (the default) means one worker per CPU
    this process may use (:attr:`resolved_render_workers`). Every
    dataset renders on that one pool, so ``render_workers`` sizes the
    server, whatever the number of datasets. Cache keys are unaffected
    — every worker count produces bit-identical tile bytes.

    The render defaults are checked here, by the rules a tile render
    applies: ``colormap`` must name a registered colormap, ``eps`` must
    be finite and > 0, ``tau`` finite (or ``None``) and ``deadline_ms``
    finite and > 0 (or ``None``), so a bad default fails at start-up
    instead of on every tile.
    """

    tile_px: int = DEFAULT_TILE_PX
    eps: float = 0.05
    tau: Optional[float] = None
    colormap: str = "density"
    deadline_ms: Optional[float] = 10_000.0
    workers: int = 4
    render_workers: Optional[int] = None
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
        check_positive(self.eps, "eps")
        if self.tau is not None and not math.isfinite(float(self.tau)):
            raise InvalidParameterError(
                f"tau must be finite (or None), got {self.tau!r}"
            )
        if self.deadline_ms is not None:
            check_positive(self.deadline_ms, "deadline_ms")
        try:
            get_colormap(self.colormap)
        except UnknownNameError as error:
            raise InvalidParameterError(error.args[0]) from None

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
    restores strict raise semantics everywhere); ``breaker_threshold`` /
    ``breaker_reset_s`` parameterise each dataset's circuit breaker;
    ``drain_s`` bounds how long
    :meth:`~repro.serve.service.TileService.close` waits for in-flight
    requests before shutting the pools down.
    """

    queue_limit: int = 32
    degraded_serving: bool = True
    breaker_threshold: int = 5
    breaker_reset_s: float = 30.0
    drain_s: float = 5.0

    def __post_init__(self) -> None:
        if int(self.queue_limit) < 1:
            raise InvalidParameterError(
                f"queue_limit must be >= 1, got {self.queue_limit!r}"
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
    """A no-op group, kept so 4.x configs still build.

    ``shards`` must be >= 1 and changes nothing: since 5.0 every
    dataset is served whole, under one circuit breaker
    (docs/api.md, "5.0 migration").
    """

    shards: int = 1

    def __post_init__(self) -> None:
        if int(self.shards) < 1:
            raise InvalidParameterError(
                f"shards must be >= 1, got {self.shards!r}"
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
        """Rebuild a config from a :meth:`to_dict` snapshot.

        An unknown group or field raises
        :class:`~repro.errors.InvalidParameterError` naming it (as
        ``group.field``).
        """
        unknown = sorted(set(payload) - set(_GROUP_TYPES))
        if unknown:
            raise InvalidParameterError(
                f"unknown ServiceConfig group(s): {', '.join(unknown)}"
            )
        groups = {}
        for name, values in payload.items():
            group_type = _GROUP_TYPES[name]
            bad = sorted(set(values) - {f.name for f in fields(group_type)})
            if bad:
                raise InvalidParameterError(
                    "unknown ServiceConfig field(s): "
                    + ", ".join(f"{name}.{key}" for key in bad)
                )
            groups[name] = group_type(**dict(values))
        return cls(**groups)

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None
    ) -> "ServiceConfig":
        """Build a config from ``REPRO_SERVE_<GROUP>_<FIELD>`` variables.

        Examples: ``REPRO_SERVE_RENDER_EPS=0.1``,
        ``REPRO_SERVE_CACHE_PNG_BYTES=1048576``,
        ``REPRO_SERVE_RESILIENCE_DEGRADED_SERVING=false``. Unset
        variables keep their group defaults; values parse by the
        field's type (the literal ``none``/empty clears an optional
        field). ``REPRO_SERVE_SHARDING_SHARDS`` is read and, like
        :class:`ShardingConfig`, changes nothing.
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
