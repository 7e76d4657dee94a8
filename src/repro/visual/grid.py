"""Pixel grids: the mapping between screen pixels and data coordinates.

A :class:`PixelGrid` covers a data-space viewport with ``width x height``
pixels; each pixel's density is evaluated at its centre, exactly as KDV
tools do. Row-major layout: row index ``iy`` grows along the second data
axis, column index ``ix`` along the first.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.errors import InvalidParameterError
from repro.utils.validation import check_points

if TYPE_CHECKING:
    from repro._types import FloatArray, IntArray, PointLike

__all__ = ["PixelGrid"]

#: Fraction of the data extent added around it when auto-fitting a viewport.
DEFAULT_MARGIN = 0.05


class PixelGrid:
    """A ``width x height`` pixel grid over a rectangular 2-D viewport.

    Parameters
    ----------
    width, height:
        Resolution in pixels (the paper's default is 1280 x 960).
    low, high:
        Viewport corners in data coordinates, each a pair
        ``(x, y)``.
    """

    def __init__(
        self,
        width: int,
        height: int,
        low: PointLike,
        high: PointLike,
    ) -> None:
        width = int(width)
        height = int(height)
        if width < 1 or height < 1:
            raise InvalidParameterError(
                f"resolution must be >= 1x1, got {width}x{height}"
            )
        low = np.asarray(low, dtype=np.float64).reshape(-1)
        high = np.asarray(high, dtype=np.float64).reshape(-1)
        if low.shape != (2,) or high.shape != (2,):
            raise InvalidParameterError("viewport corners must be 2-D points")
        # A NaN corner passes the order test below, and a NaN or
        # infinite corner gives NaN pixel centres, on which best-first
        # refinement never settles.
        if not (np.isfinite(low).all() and np.isfinite(high).all()):
            raise InvalidParameterError(
                f"viewport corners must be finite, got {low.tolist()} and "
                f"{high.tolist()}"
            )
        if np.any(low >= high):
            raise InvalidParameterError("viewport must satisfy low < high per axis")
        self.width = width
        self.height = height
        self.low = low
        self.high = high
        self._cell = (high - low) / np.array([width, height], dtype=np.float64)

    @classmethod
    def fit(
        cls,
        points: PointLike,
        width: int,
        height: int,
        *,
        margin: float = DEFAULT_MARGIN,
    ) -> PixelGrid:
        """A grid whose viewport covers ``points`` with a relative margin."""
        points = check_points(points)
        if points.shape[1] != 2:
            raise InvalidParameterError(
                f"PixelGrid.fit needs 2-D points, got {points.shape[1]} dims"
            )
        low = points.min(axis=0)
        high = points.max(axis=0)
        extent = high - low
        # lint: allow-float-eq -- exact sentinel: a degenerate axis (all
        # points share the coordinate) gets unit extent so padding stays
        # finite; any positive value centres the points identically.
        extent[extent == 0.0] = 1.0
        pad = margin * extent
        return cls(width, height, low - pad, high + pad)

    @property
    def resolution(self) -> tuple[int, int]:
        """The ``(width, height)`` pair."""
        return self.width, self.height

    @property
    def num_pixels(self) -> int:
        """Total pixel count."""
        return self.width * self.height

    def pixel_center(self, ix: int, iy: int) -> FloatArray:
        """Data coordinates of the centre of pixel ``(ix, iy)``."""
        if not (0 <= ix < self.width and 0 <= iy < self.height):
            raise InvalidParameterError(
                f"pixel ({ix}, {iy}) outside {self.width}x{self.height} grid"
            )
        return self.low + self._cell * (np.array([ix, iy], dtype=np.float64) + 0.5)

    def centers(self) -> FloatArray:
        """All pixel centres as an ``(height * width, 2)`` array.

        Row-major: index ``iy * width + ix`` corresponds to pixel
        ``(ix, iy)``; reshape densities with :meth:`to_image`.
        """
        xs = self.low[0] + self._cell[0] * (np.arange(self.width) + 0.5)
        ys = self.low[1] + self._cell[1] * (np.arange(self.height) + 0.5)
        grid_x, grid_y = np.meshgrid(xs, ys)
        return np.column_stack([grid_x.ravel(), grid_y.ravel()])

    def to_image(self, values: PointLike) -> np.ndarray:
        """Reshape a flat per-pixel array into ``(height, width)``."""
        values = np.asarray(values)
        if values.size != self.num_pixels:
            raise InvalidParameterError(
                f"expected {self.num_pixels} values, got {values.size}"
            )
        return values.reshape(self.height, self.width)

    def tiles(self, tile_size: int | tuple[int, int]) -> Iterator[IntArray]:
        """Yield flat pixel-index arrays of rectangular tiles, row-major.

        ``tile_size`` is the tile edge in pixels (or ``(tile_width,
        tile_height)``); edge tiles are clipped to the grid. Every pixel
        appears in exactly one tile, and each yielded array indexes into
        :meth:`centers` / the flat value vector of :meth:`to_image`.
        """
        if isinstance(tile_size, tuple):
            tile_width, tile_height = int(tile_size[0]), int(tile_size[1])
        else:
            tile_width = tile_height = int(tile_size)
        if tile_width < 1 or tile_height < 1:
            raise InvalidParameterError(
                f"tile_size must be >= 1, got {tile_width}x{tile_height}"
            )
        for y0 in range(0, self.height, tile_height):
            rows = np.arange(y0, min(y0 + tile_height, self.height), dtype=np.int64)
            for x0 in range(0, self.width, tile_width):
                cols = np.arange(x0, min(x0 + tile_width, self.width), dtype=np.int64)
                yield (rows[:, None] * self.width + cols[None, :]).ravel()

    def scaled(self, factor: float) -> PixelGrid:
        """A grid over the same viewport at ``factor`` times the resolution."""
        width = max(1, int(round(self.width * factor)))
        height = max(1, int(round(self.height * factor)))
        return PixelGrid(width, height, self.low, self.high)

    def __repr__(self) -> str:
        return (
            f"PixelGrid({self.width}x{self.height}, "
            f"low={self.low.tolist()}, high={self.high.tolist()})"
        )
