"""Slippy-map tile addressing over a dataset's base viewport.

The service carves each dataset's base viewport (the
:class:`~repro.visual.grid.PixelGrid` fitted at registration) into the
standard web-map pyramid: zoom level ``z`` splits the viewport into
``2^z × 2^z`` equal tiles, each rendered at ``tile_px × tile_px``
pixels. Addressing is in *data* coordinates: ``x`` counts from the low
x edge rightwards and ``y`` counts from the low y edge upwards (unlike
screen-down web-Mercator ``y``; this library's grids put row 0 at low
y, and the service keeps that convention end to end).

Tile grids are exact subdivisions — ``tile_grid(base, z, x, y)`` edges
are computed from the base extent with the same arithmetic for every
``(z, x, y)``, so adjacent tiles share edge coordinates exactly and a
stitched pyramid level has no seams.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.visual.grid import PixelGrid

__all__ = [
    "DEFAULT_TILE_PX",
    "MAX_ZOOM",
    "tile_count",
    "tile_grid",
    "validate_tile",
    "zoom_cell_size",
]

#: Default rendered tile edge, the slippy-map standard.
DEFAULT_TILE_PX = 256

#: Hard ceiling on zoom (2^24 tiles per axis is already far beyond any
#: plausible dataset extent; deeper z would overflow practical float
#: subdivision).
MAX_ZOOM = 24


def tile_count(z: int) -> int:
    """Tiles per axis at zoom ``z`` (``2^z``)."""
    z = int(z)
    if z < 0 or z > MAX_ZOOM:
        raise InvalidParameterError(f"zoom must be in [0, {MAX_ZOOM}], got {z}")
    return 1 << z


def validate_tile(z: int, x: int, y: int, *, max_zoom: int = MAX_ZOOM) -> Tuple[int, int, int]:
    """Validate and normalise a ``(z, x, y)`` tile address."""
    z, x, y = int(z), int(x), int(y)
    if z < 0 or z > min(int(max_zoom), MAX_ZOOM):
        raise InvalidParameterError(
            f"zoom must be in [0, {min(int(max_zoom), MAX_ZOOM)}], got {z}"
        )
    per_axis = tile_count(z)
    if not (0 <= x < per_axis and 0 <= y < per_axis):
        raise InvalidParameterError(
            f"tile ({x}, {y}) outside zoom-{z} range [0, {per_axis})"
        )
    return z, x, y


def zoom_cell_size(base: PixelGrid, z: int, tile_px: int = DEFAULT_TILE_PX) -> float:
    """One pixel's data-space edge length at zoom ``z`` over ``base``.

    The larger viewport span divided by ``2^z * tile_px`` — the natural
    starting cell size for the coreset pyramid
    (:meth:`repro.serve.registry.DatasetEntry._build_coreset_tiers`):
    points snapped within one rendered pixel of zoom ``z`` are visually
    indistinguishable at that zoom and every zoom below it.
    """
    z = int(z)
    if z < 0 or z > MAX_ZOOM:
        raise InvalidParameterError(f"zoom must be in [0, {MAX_ZOOM}], got {z}")
    tile_px = int(tile_px)
    if tile_px < 1:
        raise InvalidParameterError(f"tile_px must be >= 1, got {tile_px}")
    span = float(np.max(base.high - base.low))
    span = max(span, float(np.finfo(np.float64).tiny))
    return span / float(tile_count(z) * tile_px)


def tile_grid(
    base: PixelGrid, z: int, x: int, y: int, tile_px: int = DEFAULT_TILE_PX
) -> PixelGrid:
    """The pixel grid of tile ``(z, x, y)`` over ``base``'s viewport.

    Parameters
    ----------
    base:
        The dataset's base viewport; only its data-space extent is used
        (its pixel resolution is irrelevant to tile addressing).
    z, x, y:
        Tile address (see the module docstring for orientation).
    tile_px:
        Rendered tile edge in pixels.
    """
    z, x, y = validate_tile(z, x, y)
    tile_px = int(tile_px)
    if tile_px < 1:
        raise InvalidParameterError(f"tile_px must be >= 1, got {tile_px}")
    per_axis = tile_count(z)
    extent = base.high - base.low

    def edge(index: np.ndarray) -> np.ndarray:
        # Edges via index * extent / n (not low + index * step) so the
        # same edge value is produced whether it is tile i's high or
        # tile i+1's low — seam-free stitching. Boundary indices pin to
        # the exact base edges (low + extent need not round-trip to
        # high in floats).
        value = base.low + extent * (index.astype(np.float64) / per_axis)
        return np.where(index == per_axis, base.high, value)

    low = edge(np.array([x, y]))
    high = edge(np.array([x + 1, y + 1]))
    return PixelGrid(tile_px, tile_px, low, high)
