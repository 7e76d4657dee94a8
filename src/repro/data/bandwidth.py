"""Bandwidth selection rules.

The paper (Section 7.1) adopts **Scott's rule** [Scott 1992] to choose
the kernel parameter ``gamma`` and weight ``w``, following KARL and tKDC.
Scott's per-dimension bandwidth for ``n`` points in ``d`` dimensions is

.. math::

    h = \\sigma \\cdot n^{-1 / (d + 4)}

with ``sigma`` the average marginal standard deviation. The Gaussian
kernel of Equation 1, ``exp(-gamma * dist^2)``, corresponds to
``gamma = 1 / (2 h^2)``; the distance-based kernels of Table 4 use
``gamma = 1 / h`` so the kernel's support radius is ``h`` (triangular)
or a small multiple of it.

Silverman's rule is provided as an extension (it differs from Scott's by
a constant factor only).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from repro.core.kernels import clamp_gamma, get_kernel
from repro.utils.validation import check_points

if TYPE_CHECKING:
    from repro._types import FloatArray, KernelLike, PointLike

__all__ = [
    "scott_bandwidth",
    "silverman_bandwidth",
    "scott_gamma",
    "cv_bandwidth",
    "gamma_for_radius",
    "H_FLOOR",
    "H_CEIL",
]

#: Usable bandwidth range. Below ``H_FLOOR``, ``h * h`` underflows to
#: zero and the Gaussian ``gamma = 1 / (2 h^2)`` divides by zero; above
#: ``H_CEIL`` it overflows to Inf and gamma collapses to zero. Both
#: occur only for pathological data (near-identical points, or spreads
#: around 1e74 units) — real bandwidths live scores of decades inside
#: the range, so the clamp never perturbs them. The clamped gamma is
#: additionally passed through :func:`repro.core.kernels.clamp_gamma`.
H_FLOOR = 1e-74
H_CEIL = 1e74


def _average_std(points: FloatArray) -> float:
    """Average of the per-dimension sample standard deviations."""
    if points.shape[0] <= 1:
        return 1.0
    scale = float(np.abs(points).max())
    if scale > 1e100:
        # Coordinates this large overflow the variance's squared
        # deviations (numpy warns, -W error runs die). Computing in
        # scale-divided space is exact up to rounding and only engages
        # for data already scores of decades past any real coordinate
        # system, so ordinary inputs keep the bit-exact direct path.
        std = (points / scale).std(axis=0, ddof=1) * scale
    else:
        std = points.std(axis=0, ddof=1)
    mean_std = float(std.mean())
    if mean_std <= 0.0:
        # Degenerate (constant) data: fall back to a unit scale so the
        # kernel parameters stay finite.
        return 1.0
    return mean_std


def scott_bandwidth(points: PointLike) -> float:
    """Scott's rule bandwidth ``h`` for a point set."""
    points = check_points(points)
    n, d = points.shape
    return float(_average_std(points) * n ** (-1.0 / (d + 4)))


def silverman_bandwidth(points: PointLike) -> float:
    """Silverman's rule-of-thumb bandwidth (extension beyond the paper)."""
    points = check_points(points)
    n, d = points.shape
    factor = (4.0 / (d + 2)) ** (1.0 / (d + 4))
    return float(factor * _average_std(points) * n ** (-1.0 / (d + 4)))


def scott_gamma(
    points: PointLike,
    kernel: KernelLike = "gaussian",
    *,
    rule: Callable[[PointLike], float] = scott_bandwidth,
) -> float:
    """The kernel parameter ``gamma`` implied by a bandwidth rule.

    Parameters
    ----------
    points:
        The dataset the bandwidth is derived from.
    kernel:
        Kernel name or instance; squared-distance kernels (Gaussian) get
        ``1 / (2 h^2)``, distance kernels get ``1 / h``.
    rule:
        The bandwidth rule, defaulting to :func:`scott_bandwidth`.

    Degenerate bandwidths (``h`` below :data:`H_FLOOR` — e.g. a dataset
    whose coordinates differ by ~1e-170 — or above :data:`H_CEIL`) are
    clamped to the documented range before inverting, so this function
    always returns a finite positive ``gamma`` instead of dividing by
    an underflowed ``h * h``.
    """
    kernel = get_kernel(kernel)
    h = min(max(rule(points), H_FLOOR), H_CEIL)
    if kernel.uses_squared_distance:
        return clamp_gamma(1.0 / (2.0 * h * h))
    return clamp_gamma(1.0 / h)


def cv_bandwidth(
    points: PointLike,
    kernel: KernelLike = "gaussian",
    candidates: Iterable[float] | None = None,
    max_points: int = 2000,
    seed: int = 0,
) -> float:
    """Leave-one-out likelihood cross-validated bandwidth (extension).

    Scores each candidate ``h`` by the leave-one-out log likelihood

    .. math::

        \\sum_i \\log \\hat{f}_{-i}(p_i), \\qquad
        \\hat{f}_{-i}(p_i) = \\frac{Z(h)}{n - 1} \\sum_{j \\ne i} K_h(p_i, p_j)

    with ``Z(h)`` the kernel's normalising constant, and returns the
    best ``h``. The self-contribution ``K_h(p_i, p_i) = 1`` is
    subtracted analytically, so one density pass per candidate suffices.

    Parameters
    ----------
    points:
        Dataset; subsampled to ``max_points`` for tractability.
    kernel:
        Kernel name or instance (needs an analytic normaliser for the
        data's dimensionality — see
        :func:`repro.compat.kernel_normaliser`).
    candidates:
        Iterable of bandwidths to score; default: Scott's rule times
        ``(0.25, 0.5, 1, 2, 4)``.
    max_points:
        Subsample cap.
    seed:
        Subsampling seed.

    Returns
    -------
    float
        The candidate with the highest leave-one-out log likelihood.
    """
    from repro.compat import kernel_normaliser  # lint: allow-shim-import -- normaliser's historical home; no canonical alternative yet
    from repro.core.exact import exact_density
    from repro.core.kernels import get_kernel

    kernel = get_kernel(kernel)
    points = check_points(points, min_rows=3)
    if points.shape[0] > max_points:
        rng = np.random.default_rng(seed)
        points = points[rng.choice(points.shape[0], max_points, replace=False)]
    n, d = points.shape
    if candidates is None:
        scott = scott_bandwidth(points)
        candidates = [scott * factor for factor in (0.25, 0.5, 1.0, 2.0, 4.0)]
    candidates = [float(h) for h in candidates]
    if not candidates:
        from repro.errors import InvalidParameterError

        raise InvalidParameterError("candidates must be non-empty")
    best_h = math.nan
    best_score = -math.inf
    tiny = np.finfo(np.float64).tiny
    for h in candidates:
        if kernel.uses_squared_distance:
            gamma = 1.0 / (2.0 * h * h)
        else:
            support = kernel.support_xmax
            gamma = (1.0 if math.isinf(support) else support) / h
        normaliser = kernel_normaliser(kernel, h, d)
        sums = exact_density(points, points, kernel, gamma, 1.0)
        loo = np.maximum(sums - 1.0, 0.0)  # remove the self term K(0)=1
        densities = normaliser * loo / (n - 1)
        score = float(np.log(np.maximum(densities, tiny)).sum())
        if score > best_score:
            best_score = score
            best_h = h
    return best_h


def gamma_for_radius(radius: float, kernel: KernelLike = "gaussian") -> float:
    """``gamma`` giving a kernel support (or effective) radius ``radius``.

    For compact kernels the support edge sits exactly at ``radius``; for
    the Gaussian/exponential kernels, ``radius`` is where the profile
    falls to ``exp(-1)``.
    """
    kernel = get_kernel(kernel)
    from repro.utils.validation import check_positive

    radius = min(max(check_positive(radius, "radius"), H_FLOOR), H_CEIL)
    if kernel.uses_squared_distance:
        return clamp_gamma(1.0 / (radius * radius))
    support = kernel.support_xmax
    if math.isinf(support):
        return clamp_gamma(1.0 / radius)
    return clamp_gamma(support / radius)
