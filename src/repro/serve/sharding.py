"""Shards: per-tile circuit-breaker buckets of one served dataset.

A :class:`ShardedDatasetRegistry` registers each dataset with a shard
count K. The dataset stays one :class:`~repro.serve.registry.DatasetEntry`
— one kd-tree, one coreset pyramid, one plan, one set of cache keys,
one tile-driver run per miss — so every K serves the bytes K = 1 serves
and carries the K = 1 guarantee (docs/serving.md).

What K does choose is each tile's *home shard*: rendezvous
(highest-random-weight) hashing over the tile's spatial extent
(:func:`rendezvous_shard`) picks one of K buckets, deterministic across
requests and restarts. The home shard's circuit breaker
(``"<dataset>#s<i>"``) takes the blame and credit for the tile's
renders, so a poisoned region of space trips one breaker instead of
the whole dataset; responses name it in ``X-Shard``, and ``/readyz``
reports every shard breaker's state.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any, Callable, Optional

import numpy as np

from repro.errors import InvalidParameterError
from repro.serve.registry import (
    DEFAULT_CORESET_DELTA_CAP,
    DEFAULT_CORESET_TILE_PX,
    DatasetEntry,
    DatasetRegistry,
)

if TYPE_CHECKING:
    from repro._types import PointLike
    from repro.visual.grid import PixelGrid

__all__ = [
    "ShardedDatasetRegistry",
    "rendezvous_shard",
    "tile_extent_key",
]


def tile_extent_key(grid: "PixelGrid") -> str:
    """Canonical string for a tile grid's spatial extent (routing key).

    Built from the exact float bounds, so the same tile of the same
    base viewport always routes identically — across requests, zoom
    revisits and server restarts.
    """
    low = ",".join(repr(float(v)) for v in grid.low)
    high = ",".join(repr(float(v)) for v in grid.high)
    return f"{low}|{high}"


def rendezvous_shard(dataset_id: str, shards: int, extent_key: str) -> int:
    """The tile's home shard by rendezvous (highest-random-weight) hashing.

    Each shard scores ``sha256(dataset|shard|extent)``; the highest
    score wins. Deterministic and minimally disruptive: changing the
    shard count remaps only the tiles whose new shard now scores
    highest, so per-shard breaker/affinity state stays warm across
    resharding.
    """
    if int(shards) <= 1:
        return 0
    best_shard = 0
    best_score = b""
    for index in range(int(shards)):
        score = hashlib.sha256(
            f"{dataset_id}|{index}|{extent_key}".encode("utf-8")
        ).digest()
        if score > best_score:
            best_score = score
            best_shard = index
    return best_shard


class ShardedDatasetRegistry(DatasetRegistry):
    """A :class:`DatasetRegistry` that gives each entry K breaker shards.

    Parameters
    ----------
    on_invalidate:
        As on :class:`DatasetRegistry`.
    default_shards:
        Shard count used when :meth:`register` is not given one.
    min_points_per_shard:
        Effective shard counts are clamped to ``n // min_points_per_shard``
        — a 100-point toy dataset registered with ``shards=16`` serves
        unsharded rather than under 16 breakers.
    """

    def __init__(
        self,
        on_invalidate: Optional[Callable[[str], None]] = None,
        *,
        default_shards: int = 1,
        min_points_per_shard: int = 64,
    ) -> None:
        super().__init__(on_invalidate)
        if int(default_shards) < 1:
            raise InvalidParameterError(
                f"default_shards must be >= 1, got {default_shards!r}"
            )
        if int(min_points_per_shard) < 1:
            raise InvalidParameterError(
                f"min_points_per_shard must be >= 1, got {min_points_per_shard!r}"
            )
        self.default_shards = int(default_shards)
        self.min_points_per_shard = int(min_points_per_shard)

    def effective_shards(self, n_points: int, shards: Optional[int]) -> int:
        """The shard count actually used for an ``n_points`` dataset."""
        requested = self.default_shards if shards is None else int(shards)
        if requested < 1:
            raise InvalidParameterError(f"shards must be >= 1, got {shards!r}")
        return max(1, min(requested, int(n_points) // self.min_points_per_shard))

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
        shards: Optional[int] = None,
        **method_options: Any,
    ) -> DatasetEntry:
        """Register a dataset whose tiles spread over ``shards`` breakers.

        ``shards=None`` uses the registry default, clamped by
        :meth:`effective_shards`; an effective count of 1 registers a
        plain unsharded entry. The shard count only picks each tile's
        breaker and ``X-Shard`` bucket, so bytes and cache keys equal an
        unsharded registration's. See :meth:`DatasetRegistry.register`
        for the shared parameters.
        """
        arr = np.asarray(points, dtype=np.float64)
        n_points = int(arr.shape[0]) if arr.ndim == 2 else 0
        return self._register(
            dataset_id,
            points,
            shards=self.effective_shards(n_points, shards),
            kernel=kernel,
            gamma=gamma,
            method=method,
            grid=grid,
            coreset_zoom=coreset_zoom,
            coreset_delta_cap=coreset_delta_cap,
            coreset_tile_px=coreset_tile_px,
            method_options=method_options,
        )
