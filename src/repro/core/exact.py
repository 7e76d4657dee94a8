"""Vectorised exact evaluation of the kernel density function.

This is the EXACT sequential-scan competitor of the paper's Table 6 and
the ground truth against which the quality experiments (Figures 19-21)
measure relative error. Evaluation is chunked so the dense
``(queries, points)`` distance block stays within a memory budget.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.distances import sq_dists_to_batch
from repro.core.kernels import get_kernel
from repro.utils.chunking import DEFAULT_CHUNK_ELEMENTS, chunk_slices
from repro.utils.validation import check_points, check_positive

if TYPE_CHECKING:
    from repro._types import FloatArray, KernelLike, PointLike

__all__ = ["exact_density"]


def exact_density(
    points: PointLike,
    queries: PointLike,
    kernel: KernelLike = "gaussian",
    gamma: float = 1.0,
    weight: float = 1.0,
    *,
    point_weights: PointLike | None = None,
    max_elements: int = DEFAULT_CHUNK_ELEMENTS,
) -> FloatArray:
    """Exact ``F_P(q)`` for every query, by brute-force scan.

    Parameters
    ----------
    points:
        Data points, shape ``(n, d)``.
    queries:
        Query points, shape ``(m, d)`` (a single point is accepted).
    kernel:
        Kernel name or instance.
    gamma:
        Positive bandwidth parameter.
    weight:
        Global per-point weight ``w``.
    point_weights:
        Optional non-negative per-point weights ``w_i`` of shape
        ``(n,)``; the density becomes ``sum_i w * w_i * K(q, p_i)``
        (the re-weighted-sample form of the paper's footnote 5).
    max_elements:
        Memory budget: the dense squared-distance block per chunk holds
        at most this many float64 values.

    Returns
    -------
    numpy.ndarray
        Densities of shape ``(m,)``.
    """
    kernel = get_kernel(kernel)
    gamma = check_positive(gamma, "gamma")
    weight = check_positive(weight, "weight")
    points = check_points(points)
    if point_weights is not None:
        point_weights = np.asarray(point_weights, dtype=np.float64).reshape(-1)
        if point_weights.shape[0] != points.shape[0]:
            from repro.errors import InvalidParameterError

            raise InvalidParameterError(
                f"point_weights length {point_weights.shape[0]} != "
                f"points {points.shape[0]}"
            )
    queries = np.asarray(queries, dtype=np.float64)
    single = queries.ndim == 1
    if single:
        # A bare coordinate vector is one query point, not a column.
        queries = queries.reshape(1, -1)
    queries = check_points(queries, name="queries")
    if queries.shape[1] != points.shape[1]:
        from repro.errors import InvalidParameterError

        raise InvalidParameterError(
            f"queries have {queries.shape[1]} dims but points have {points.shape[1]}"
        )
    out = np.empty(queries.shape[0], dtype=np.float64)
    # Direct-form distances (see repro.core.distances) hold a second
    # (chunk, n) scratch block while they accumulate; the kernel then
    # runs in place on the distances.
    budget = max(1, max_elements // (points.shape[1] + 1))
    for rows in chunk_slices(queries.shape[0], points.shape[0], max_elements=budget):
        sq_dists = sq_dists_to_batch(queries[rows], points)
        values = kernel.evaluate(sq_dists, gamma, out=sq_dists)
        if point_weights is None:
            out[rows] = weight * values.sum(axis=1)
        else:
            out[rows] = weight * (values @ point_weights)
    return out[0] if single else out
