"""Shared type aliases and structural protocols for the public API.

Centralising these keeps annotations consistent across the package and
gives the duck-typed seams (kd-tree nodes versus ball-tree nodes, kernel
name-or-instance arguments) a machine-checked structural contract
instead of a comment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, Sequence, Union

import numpy as np
from numpy.typing import ArrayLike, NDArray

if TYPE_CHECKING:
    from repro.core.kernels import Kernel

__all__ = [
    "ArrayLike",
    "FloatArray",
    "BoolArray",
    "IntArray",
    "BoundPair",
    "KernelLike",
    "PointLike",
    "BoundingRegion",
]

#: 2-D point sets, query batches, density vectors — everything numeric.
FloatArray = NDArray[np.float64]
#: τKDV masks and other boolean per-pixel outputs.
BoolArray = NDArray[np.bool_]
#: Index vectors (kd-tree orderings, sample picks).
IntArray = NDArray[np.int64]
#: The ``(LB, UB)`` interval every bound evaluation returns.
BoundPair = tuple[float, float]
#: Kernel arguments accept a registry name or a Kernel instance.
KernelLike = Union[str, "Kernel"]
#: A single query point in any accepted form.
PointLike = Union[Sequence[float], FloatArray]


class BoundingRegion(Protocol):
    """Structural contract of an index node's bounding region.

    :class:`repro.index.rectangle.Rectangle` and
    :class:`repro.index.balltree.Ball` both satisfy it, which is the
    duck-typed seam that lets every bound provider run unchanged on
    either index.
    """

    def min_sq_dist(self, query: Sequence[float]) -> float:
        """Minimum squared distance from ``query`` to the region."""
        ...

    def max_sq_dist(self, query: Sequence[float]) -> float:
        """Maximum squared distance from ``query`` to the region."""
        ...

    def sq_dist_range_batch(
        self, columns: Sequence[FloatArray]
    ) -> tuple[FloatArray, FloatArray]:
        """Vectorised ``(min_sq_dist, max_sq_dist)`` over query columns."""
        ...

    def distance_interval(self, query: Sequence[float]) -> tuple[float, float]:
        """``(min_dist, max_dist)`` plain (non-squared) distances."""
        ...
