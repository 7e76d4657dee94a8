"""Axis-aligned bounding rectangles and point-to-rectangle distances.

Every bound function in the paper needs the interval ``[xmin, xmax]`` of
scaled distances between a pixel ``q`` and the points inside an index
node. The node stores its minimum bounding rectangle (MBR); the interval
endpoints come from the minimum and maximum Euclidean distance between
``q`` and that rectangle (Section 4 of the paper), both computable in
``O(d)`` time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import InvalidParameterError

if TYPE_CHECKING:
    from repro._types import FloatArray, PointLike

__all__ = ["Rectangle", "sq_dist_ranges"]


class Rectangle:
    """An axis-aligned rectangle ``[low_j, high_j]`` per dimension ``j``.

    Instances are immutable in spirit: the bound arrays are copied on
    construction (or, from :meth:`trusted`, are read-only views) and
    never mutated afterwards.
    """

    __slots__ = ("low", "high", "_low_list", "_high_list", "dims")

    def __init__(self, low: PointLike, high: PointLike) -> None:
        low = np.asarray(low, dtype=np.float64).reshape(-1).copy()
        high = np.asarray(high, dtype=np.float64).reshape(-1).copy()
        if low.shape != high.shape:
            raise InvalidParameterError(
                f"low and high must have the same length, got {low.shape} vs {high.shape}"
            )
        if low.shape[0] < 1:
            raise InvalidParameterError("rectangle must have at least one dimension")
        if np.any(low > high):
            raise InvalidParameterError("rectangle must satisfy low <= high per dimension")
        self.low = low
        self.high = high
        # Plain-float copies: the per-pixel refinement loop hits
        # min/max-distance millions of times and list indexing beats numpy
        # scalar extraction by roughly an order of magnitude.
        self._low_list = low.tolist()
        self._high_list = high.tolist()
        self.dims = low.shape[0]

    @classmethod
    def trusted(
        cls,
        low: FloatArray,
        high: FloatArray,
        low_list: list[float],
        high_list: list[float],
    ) -> Rectangle:
        """A rectangle over valid, read-only bounds, neither checked nor copied.

        ``low_list``/``high_list`` are the bounds as plain floats. The
        kd-tree makes its node rectangles this way, over rows of its
        read-only ``rect_low``/``rect_high`` arrays.
        """
        rect = cls.__new__(cls)
        rect.low = low
        rect.high = high
        rect._low_list = low_list
        rect._high_list = high_list
        rect.dims = len(low_list)
        return rect

    def contains(self, point: PointLike) -> bool:
        """Whether ``point`` lies inside (or on the boundary of) the box."""
        point = np.asarray(point, dtype=np.float64).reshape(-1)
        return bool(np.all(point >= self.low) and np.all(point <= self.high))

    def min_sq_dist(self, query: Sequence[float]) -> float:
        """Minimum squared Euclidean distance from ``query`` to the box.

        Zero when the query lies inside the rectangle. ``query`` may be
        any sequence of ``dims`` coordinates; each is coerced to a plain
        float once so the arithmetic below never degrades to numpy
        scalar operations (an order of magnitude slower per op).
        """
        low = self._low_list
        high = self._high_list
        if self.dims == 2:
            # Unrolled 2-D fast path for the per-pixel hot loop.
            total = 0.0
            value = float(query[0])
            if value < low[0]:
                delta = low[0] - value
                total = delta * delta
            elif value > high[0]:
                delta = value - high[0]
                total = delta * delta
            value = float(query[1])
            if value < low[1]:
                delta = low[1] - value
                total += delta * delta
            elif value > high[1]:
                delta = value - high[1]
                total += delta * delta
            return total
        total = 0.0
        for j in range(self.dims):
            value = float(query[j])
            if value < low[j]:
                delta = low[j] - value
            elif value > high[j]:
                delta = value - high[j]
            else:
                continue
            total += delta * delta
        return total

    def max_sq_dist(self, query: Sequence[float]) -> float:
        """Maximum squared Euclidean distance from ``query`` to the box.

        Attained at the rectangle corner farthest from the query in every
        coordinate.
        """
        low = self._low_list
        high = self._high_list
        if self.dims == 2:
            # Unrolled 2-D fast path: farthest corner per axis is whichever
            # bound is farther from the query coordinate.
            value = float(query[0])
            d_low = value - low[0]
            if d_low < 0.0:
                d_low = -d_low
            d_high = value - high[0]
            if d_high < 0.0:
                d_high = -d_high
            delta = d_low if d_low > d_high else d_high
            total = delta * delta
            value = float(query[1])
            d_low = value - low[1]
            if d_low < 0.0:
                d_low = -d_low
            d_high = value - high[1]
            if d_high < 0.0:
                d_high = -d_high
            delta = d_low if d_low > d_high else d_high
            return total + delta * delta
        total = 0.0
        for j in range(self.dims):
            value = float(query[j])
            d_low = value - low[j]
            if d_low < 0.0:
                d_low = -d_low
            d_high = value - high[j]
            if d_high < 0.0:
                d_high = -d_high
            delta = d_low if d_low > d_high else d_high
            total += delta * delta
        return total

    def sq_dist_range_batch(
        self, columns: Sequence[FloatArray]
    ) -> tuple[FloatArray, FloatArray]:
        """Vectorised ``(min_sq_dist, max_sq_dist)`` over a query batch.

        ``columns[j]`` holds coordinate ``j`` of every query (for an
        ``(m, d)`` batch, ``tuple(queries.T)``); each is read once for
        both distances. Per axis the terms, and their summation order,
        are those of the scalar methods.
        """
        return sq_dist_ranges(columns, self._low_list, self._high_list)

    def __repr__(self) -> str:
        return f"Rectangle(low={self.low.tolist()}, high={self.high.tolist()})"


def sq_dist_ranges(
    columns: Sequence[FloatArray],
    low: Sequence[float] | Sequence[FloatArray],
    high: Sequence[float] | Sequence[FloatArray],
) -> tuple[FloatArray, FloatArray]:
    """``(min_sq_dist, max_sq_dist)`` from query columns to one box or a stack.

    ``low[j]`` and ``high[j]`` bound axis ``j``: floats for one box,
    giving ``(m,)`` rows (:meth:`Rectangle.sq_dist_range_batch`), or
    ``(J, 1)`` columns for ``J`` boxes, giving ``(J, m)`` blocks whose
    row ``k`` is box ``k``'s one-box result bit for bit (elementwise
    ufuncs round the same whatever the operand shapes).
    """
    min_sq, max_sq = _axis_sq_dists(columns[0], low[0], high[0])
    for j in range(1, len(low)):
        near, far = _axis_sq_dists(columns[j], low[j], high[j])
        min_sq += near
        max_sq += far
    return min_sq, max_sq


def _axis_sq_dists(
    column: FloatArray, low: float | FloatArray, high: float | FloatArray
) -> tuple[FloatArray, FloatArray]:
    """Squared nearest and farthest distances to ``[low, high]`` along one axis."""
    below = low - column  # > 0 where the query lies below the box
    above = column - high  # > 0 where it lies above
    # Farthest face: max(q - low, high - q) = -min(below, above).
    far = np.minimum(below, above)
    far *= far
    # Nearest point: the positive one of below/above, else 0 (inside).
    np.maximum(below, above, out=below)
    np.maximum(below, 0.0, out=below)
    below *= below
    return below, far
