"""Shared type aliases for the public API.

Centralising these keeps annotations consistent across the package and
gives the duck-typed seams (kernel name-or-instance arguments, point
arguments in any accepted form) one spelling.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence, Union

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
