"""Grid-based weighted coresets with a computable KDE error bound.

The deterministic half of the sampling camp (Phillips & Tai, "Improved
Coresets for Kernel Density Estimates"; Phillips, "ε-Samples of
Kernels"): snap points to a uniform grid, keep one weighted
representative per occupied cell (the cell's weighted centroid,
carrying the cell's total weight), and bound the resulting KDE error
through the kernel's Lipschitz constant in distance.

For the weighted density ``F(q) = w * sum_i w_i K(q, p_i)`` and the
coreset density ``F_c(q) = w * sum_j W_j K(q, c_j)`` with
``W_j = sum_{i in cell j} w_i`` and ``c_j`` the cell centroid,

    |F(q) - F_c(q)| <= w * L(gamma) * sum_i w_i ||p_i - c(p_i)||
                    =: delta_abs                       (for every q)

because ``|K(q, p) - K(q, p')| <= L * | d(q,p) - d(q,p') | <=
L * ||p - p'||`` by Lipschitz continuity and the triangle inequality.
``delta_abs`` is computed *exactly* from the realised displacements,
not from the worst-case cell diagonal, so the reported bound is as
tight as the construction allows.

Since every kernel profile is at most 1, the density never exceeds
``F_cap = w * sum_i w_i``; the normalised bound ``delta_z =
delta_abs / F_cap`` is the dimensionless error the serve layer folds
into a relative ``eps`` guarantee (``eps_effective = eps - delta_z``,
see docs/bounds.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.kernels import get_kernel
from repro.errors import InvalidParameterError
from repro.utils.validation import check_points, check_positive

if TYPE_CHECKING:
    from repro._types import FloatArray, KernelLike

__all__ = [
    "Coreset",
    "grid_coreset",
    "coreset_for_delta",
]

#: Grid-refinement iterations before giving up and returning the
#: identity coreset; each halves the cell size, so 60 covers any
#: float64-representable extent.
_MAX_REFINEMENTS = 60


@dataclass(frozen=True)
class Coreset:
    """A weighted point set standing in for a larger one.

    Attributes
    ----------
    points:
        Representative points, shape ``(m, d)``.
    weights:
        Per-representative multipliers ``W_j`` (each representative
        stands for ``W_j`` units of source weight); shape ``(m,)``.
        ``weights.sum()`` equals the source's total point weight, so
        the coreset density shares the exact tier's ``F_cap``.
    delta_abs:
        Deterministic bound on ``|F(q) - F_c(q)|`` valid for *every*
        query, in absolute density units (already includes the global
        ``weight`` multiplier).
    f_cap:
        Upper bound on both densities: ``weight * weights.sum()``.
    cell_size:
        Grid cell edge length used for the construction (0.0 for the
        identity coreset).
    n_source:
        Number of source points the coreset summarises.
    """

    points: "FloatArray"
    weights: "FloatArray"
    delta_abs: float
    f_cap: float
    cell_size: float
    n_source: int

    @property
    def delta_z(self) -> float:
        """Normalised error bound ``delta_abs / f_cap`` in ``[0, inf)``.

        This is the quantity folded into the relative ``eps``
        guarantee: a coreset render with ``eps_effective = eps -
        delta_z`` stays within the user's original ``eps`` of the
        exact density (docs/bounds.md).
        """
        return self.delta_abs / self.f_cap if self.f_cap > 0.0 else 0.0

    @property
    def m(self) -> int:
        """Number of representatives."""
        return int(self.points.shape[0])


def _identity_coreset(
    points: "FloatArray", weights: "FloatArray", weight: float
) -> Coreset:
    return Coreset(
        points=points.copy(),
        weights=weights.copy(),
        delta_abs=0.0,
        f_cap=float(weight * weights.sum()),
        cell_size=0.0,
        n_source=int(points.shape[0]),
    )


def grid_coreset(
    points: "FloatArray",
    kernel: "KernelLike",
    gamma: float,
    weight: float,
    *,
    cell_size: float,
    point_weights: "FloatArray | None" = None,
) -> Coreset:
    """One weighted representative per occupied grid cell.

    Parameters
    ----------
    points:
        Source points, shape ``(n, d)``.
    kernel, gamma:
        Kernel (name or instance) and bandwidth — only the kernel's
        :meth:`~repro.core.kernels.Kernel.lipschitz` constant enters
        the error bound.
    weight:
        Global per-point weight ``w`` of the density being
        approximated.
    cell_size:
        Edge length of the snapping grid, in data units.
    point_weights:
        Optional per-point multipliers ``w_i`` (default all-ones).

    Returns
    -------
    Coreset
        Representatives at the weighted centroid of each occupied
        cell, with the exact realised ``delta_abs``.
    """
    points = check_points(points)
    kernel = get_kernel(kernel)
    gamma = check_positive(gamma, "gamma")
    weight = check_positive(weight, "weight")
    cell_size = check_positive(cell_size, "cell_size")
    n = points.shape[0]
    if point_weights is None:
        point_weights = np.ones(n, dtype=np.float64)
    else:
        point_weights = np.ascontiguousarray(point_weights, dtype=np.float64)
        if point_weights.shape != (n,):
            raise InvalidParameterError(
                f"point_weights must have shape ({n},), got {point_weights.shape}"
            )
        if np.any(point_weights < 0.0):
            raise InvalidParameterError("point_weights must be non-negative")

    mins = points.min(axis=0)
    cells = np.floor((points - mins) / cell_size).astype(np.int64)
    # Flatten the d-dimensional cell index to one int64 key (mixed-radix
    # over the occupied index ranges) so np.unique runs on a 1-D array.
    spans = cells.max(axis=0) + 1
    key = np.zeros(n, dtype=np.int64)
    for dim in range(points.shape[1]):
        key = key * int(spans[dim]) + cells[:, dim]
    _, inverse = np.unique(key, return_inverse=True)
    m = int(inverse.max()) + 1 if n else 0
    if m >= n:
        return _identity_coreset(points, point_weights, weight)

    cell_weight = np.bincount(inverse, weights=point_weights, minlength=m)
    centroids = np.empty((m, points.shape[1]), dtype=np.float64)
    # Empty cells cannot occur (every index in ``inverse`` is hit), but
    # a cell whose points all have zero weight would divide 0/0 — fall
    # back to its unweighted mean so the representative stays in-cell.
    counts = np.bincount(inverse, minlength=m)
    safe_weight = np.where(cell_weight > 0.0, cell_weight, counts)
    for dim in range(points.shape[1]):
        weighted = np.bincount(
            inverse, weights=point_weights * points[:, dim], minlength=m
        )
        plain = np.bincount(inverse, weights=points[:, dim], minlength=m)
        centroids[:, dim] = (
            np.where(cell_weight > 0.0, weighted, plain) / safe_weight
        )

    displacement = np.linalg.norm(points - centroids[inverse], axis=1)
    lipschitz = kernel.lipschitz(gamma)
    delta_abs = float(weight * lipschitz * np.sum(point_weights * displacement))
    return Coreset(
        points=np.ascontiguousarray(centroids),
        weights=cell_weight,
        delta_abs=delta_abs,
        f_cap=float(weight * point_weights.sum()),
        cell_size=float(cell_size),
        n_source=n,
    )


def coreset_for_delta(
    points: "FloatArray",
    kernel: "KernelLike",
    gamma: float,
    weight: float,
    *,
    cell_size: float,
    delta_cap: float,
    point_weights: "FloatArray | None" = None,
) -> Coreset:
    """The coarsest grid coreset (starting at ``cell_size``, halving)
    whose normalised error ``delta_z`` is at most ``delta_cap``.

    Falls back to the identity coreset (``delta_abs = 0``) if halving
    stops compressing — the guarantee is never sacrificed for size.
    """
    delta_cap = check_positive(delta_cap, "delta_cap")
    size = check_positive(cell_size, "cell_size")
    for _ in range(_MAX_REFINEMENTS):
        coreset = grid_coreset(
            points, kernel, gamma, weight,
            cell_size=size, point_weights=point_weights,
        )
        if coreset.delta_z <= delta_cap:
            return coreset
        if coreset.m >= points.shape[0]:
            break
        size *= 0.5
    points = check_points(points)
    if point_weights is None:
        point_weights = np.ones(points.shape[0], dtype=np.float64)
    else:
        point_weights = np.ascontiguousarray(point_weights, dtype=np.float64)
    return _identity_coreset(points, point_weights, weight)
