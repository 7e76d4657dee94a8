"""Kernel functions used by kernel density visualization.

The paper evaluates the kernel density function (its Equations 1 and 4)

.. math::

    F_P(q) = \\sum_{p_i \\in P} w \\cdot K(q, p_i)

for several kernels ``K``. Every kernel in this module is expressed
through a one-dimensional *profile* ``k(x)`` of a scaled distance ``x``:

* the Gaussian kernel uses the **squared** distance,
  ``x_i = gamma * dist(q, p_i)**2`` and ``k(x) = exp(-x)``;
* the triangular, cosine and exponential kernels (the paper's Table 4)
  use the plain distance, ``x_i = gamma * dist(q, p_i)``.

All profiles are non-increasing on ``x >= 0`` and bounded by ``k(0) = 1``,
two facts the bound functions rely on. The Epanechnikov and quartic
kernels are extensions beyond the paper (both appear in QGIS/Scikit-learn,
which the paper cites as KDV providers); they are flagged as such in their
docstrings and are supported by the baseline bounds and by exact
aggregation, see :mod:`repro.core.bounds.quadratic_distance`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import UnknownNameError

if TYPE_CHECKING:
    from repro._types import FloatArray, KernelLike

__all__ = [
    "Kernel",
    "GaussianKernel",
    "TriangularKernel",
    "CosineKernel",
    "ExponentialKernel",
    "EpanechnikovKernel",
    "QuarticKernel",
    "get_kernel",
    "available_kernels",
    "clamp_gamma",
    "GAMMA_MIN",
    "GAMMA_MAX",
    "KERNEL_REGISTRY",
]

#: Largest magnitude fed to ``exp(-x)``. ``exp(-709)`` is still a normal
#: float64 but larger arguments reach the subnormal range and, past
#: ~745, underflow to zero — numpy flags both as underflow, which breaks
#: warning-clean runs under ``-W error``. The profiles are monotone, so
#: clamping ``x`` at the point where the result is already ~1e-308
#: changes no observable value.
_EXP_NEG_XMAX = 708.0

#: Domain of usable bandwidth parameters. Outside this range the scaled
#: distance ``gamma * dist**2`` (or its reciprocal in the bound
#: providers) overflows for ordinary coordinate magnitudes, turning
#: bounds into Inf/NaN. The limits sit ~150 decades away from any
#: physically meaningful bandwidth, so clamping (see :func:`clamp_gamma`)
#: only ever rescues degenerate inputs; it never perturbs real ones.
GAMMA_MIN = 1e-150
GAMMA_MAX = 1e150


def _buffers(x: FloatArray | float, out: FloatArray | None) -> tuple[FloatArray, FloatArray]:
    """``x`` as a float64 array, and ``out`` or a fresh array shaped like it.

    Every kernel computes into the second array with ``out=`` ufuncs, so
    an in-place call (``out`` is ``x``) allocates nothing of that shape
    and a scalar ``x`` still yields a (0-d) array.
    """
    x = np.asarray(x, dtype=np.float64)
    return x, np.empty_like(x) if out is None else out


def clamp_gamma(gamma: float) -> float:
    """Clamp a bandwidth parameter into ``[GAMMA_MIN, GAMMA_MAX]``.

    Bandwidth rules (:mod:`repro.data.bandwidth`) apply this to the
    ``gamma`` they derive, so degenerate data — all points identical, or
    spreads beyond float range — degrades to an extreme-but-finite
    kernel instead of a ``ZeroDivisionError`` or an Inf that poisons
    every bound. ``gamma`` must already be positive and not NaN.
    """
    return min(max(float(gamma), GAMMA_MIN), GAMMA_MAX)


class Kernel(ABC):
    """A kernel function ``K(q, p) = k(x)`` of a scaled distance ``x``.

    Attributes
    ----------
    name:
        Registry name (e.g. ``"gaussian"``).
    uses_squared_distance:
        ``True`` when ``x = gamma * dist(q, p)**2`` (Gaussian), ``False``
        when ``x = gamma * dist(q, p)`` (all other kernels).
    in_paper:
        Whether the QUAD paper itself evaluates this kernel. Extension
        kernels set this to ``False``.
    """

    name: str = "abstract"
    uses_squared_distance: bool = False
    in_paper: bool = True

    @abstractmethod
    def profile(self, x: FloatArray | float, out: FloatArray | None = None) -> FloatArray:
        """Evaluate the profile ``k(x)`` element-wise for ``x >= 0``.

        Accepts scalars or numpy arrays; returns a numpy array. With
        ``out`` (a float64 array shaped like ``x``, which may be ``x``
        itself) the values are written there and no temporary of that
        shape is allocated.
        """

    @abstractmethod
    def profile_scalar(self, x: float) -> float:
        """Scalar fast path of :meth:`profile` (plain ``float`` maths).

        The refinement engine calls bounds hundreds of thousands of times;
        avoiding numpy scalar overhead here matters.
        """

    @property
    def support_xmax(self) -> float:
        """The ``x`` beyond which the profile is exactly zero.

        ``math.inf`` for kernels with unbounded support.
        """
        return math.inf

    def lipschitz(self, gamma: float) -> float:
        """Lipschitz constant of ``K(q, p)`` in the Euclidean distance.

        The smallest ``L`` (up to closed-form tightness) such that
        ``|K(q, p) - K(q, p')| <= L * |dist(q, p) - dist(q, p')|`` for
        every query ``q`` — and hence, by the triangle inequality,
        ``<= L * ||p - p'||``. This is the constant the weighted-coreset
        error bound rests on (:mod:`repro.sampling.coreset`): moving
        each point to its cell representative perturbs the density by at
        most ``L`` times the weighted displacement sum.
        """
        raise NotImplementedError(
            f"kernel {self.name!r} does not define a Lipschitz constant; "
            "coreset construction requires one"
        )

    def x_from_distance(
        self, dist: FloatArray | float, gamma: float
    ) -> FloatArray | float:
        """Map a Euclidean distance (scalar or array) to the profile input."""
        if self.uses_squared_distance:
            return gamma * dist * dist
        return gamma * dist

    def evaluate(
        self,
        sq_dists: FloatArray | float,
        gamma: float,
        out: FloatArray | None = None,
    ) -> FloatArray:
        """Kernel values from **squared** Euclidean distances, vectorised.

        Parameters
        ----------
        sq_dists:
            Array of squared distances ``dist(q, p_i)**2``.
        gamma:
            Positive bandwidth parameter.
        out:
            Optional float64 array shaped like ``sq_dists`` for the
            values; ``out=sq_dists`` evaluates in place, allocating
            nothing of that shape. The values are the same floats either
            way.
        """
        sq_dists, out = _buffers(sq_dists, out)
        # Clip the distance term so ``gamma * distance`` cannot overflow
        # for extreme gamma (see GAMMA_MAX): beyond ``cap`` the profile
        # is exactly zero (compact support) or below ~1e-308 (exp
        # clamp), so the clip changes no observable kernel value while
        # keeping warning-clean runs free of overflow warnings.
        cap = self.support_xmax
        if math.isinf(cap):
            cap = _EXP_NEG_XMAX
        limit = cap * (1.0 + 1e-9) / gamma
        if limit <= 0.0:
            limit = math.inf
        if self.uses_squared_distance:
            np.minimum(sq_dists, limit, out=out)
        else:
            np.sqrt(sq_dists, out=out)
            np.minimum(out, limit, out=out)
        out *= gamma
        return self.profile(out, out=out)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class GaussianKernel(Kernel):
    """``K(q, p) = exp(-gamma * dist(q, p)**2)`` — the paper's Equation 1."""

    name = "gaussian"
    uses_squared_distance = True

    def profile(self, x: FloatArray | float, out: FloatArray | None = None) -> FloatArray:
        x, out = _buffers(x, out)
        np.minimum(x, _EXP_NEG_XMAX, out=out)
        np.negative(out, out=out)
        # lint: allow-unclipped-exp -- ``out`` holds the np.minimum-clipped
        # values from two lines up, negated in place.
        return np.exp(out, out=out)

    def profile_scalar(self, x: float) -> float:
        return math.exp(-min(x, _EXP_NEG_XMAX))

    def lipschitz(self, gamma: float) -> float:
        # |d/dd exp(-gamma d^2)| = 2 gamma d exp(-gamma d^2) peaks at
        # d = 1/sqrt(2 gamma), giving sqrt(2 gamma) e^{-1/2}.
        return math.sqrt(2.0 * float(gamma)) * math.exp(-0.5)


class ExponentialKernel(Kernel):
    """``K(q, p) = exp(-gamma * dist(q, p))`` (Table 4, row 3)."""

    name = "exponential"

    def profile(self, x: FloatArray | float, out: FloatArray | None = None) -> FloatArray:
        x, out = _buffers(x, out)
        np.minimum(x, _EXP_NEG_XMAX, out=out)
        np.negative(out, out=out)
        # lint: allow-unclipped-exp -- ``out`` holds the np.minimum-clipped
        # values from two lines up, negated in place.
        return np.exp(out, out=out)

    def profile_scalar(self, x: float) -> float:
        return math.exp(-min(x, _EXP_NEG_XMAX))

    def lipschitz(self, gamma: float) -> float:
        # |d/dd exp(-gamma d)| <= gamma, attained at d = 0.
        return float(gamma)


class TriangularKernel(Kernel):
    """``K(q, p) = max(1 - gamma * dist(q, p), 0)`` (Table 4, row 1)."""

    name = "triangular"

    @property
    def support_xmax(self) -> float:
        return 1.0

    def profile(self, x: FloatArray | float, out: FloatArray | None = None) -> FloatArray:
        x, out = _buffers(x, out)
        np.subtract(1.0, x, out=out)
        return np.maximum(out, 0.0, out=out)

    def profile_scalar(self, x: float) -> float:
        return 1.0 - x if x < 1.0 else 0.0

    def lipschitz(self, gamma: float) -> float:
        # Slope is exactly -gamma inside the support, 0 outside.
        return float(gamma)


class CosineKernel(Kernel):
    """``K(q, p) = cos(gamma * dist(q, p))`` when within ``pi / (2 gamma)``.

    Zero outside that radius (Table 4, row 2).
    """

    name = "cosine"

    @property
    def support_xmax(self) -> float:
        return math.pi / 2.0

    def profile(self, x: FloatArray | float, out: FloatArray | None = None) -> FloatArray:
        x, out = _buffers(x, out)
        # Zero beyond pi/2 and at NaN; the mask is taken before ``out``,
        # possibly ``x`` itself, is overwritten.
        outside = np.less_equal(x, math.pi / 2.0, out=np.empty(out.shape, dtype=bool))
        np.logical_not(outside, out=outside)
        np.minimum(x, math.pi / 2.0, out=out)
        np.cos(out, out=out)
        np.copyto(out, 0.0, where=outside)
        return out

    def profile_scalar(self, x: float) -> float:
        return math.cos(x) if x <= math.pi / 2.0 else 0.0

    def lipschitz(self, gamma: float) -> float:
        # |d/dd cos(gamma d)| = gamma |sin(gamma d)| <= gamma.
        return float(gamma)


class EpanechnikovKernel(Kernel):
    """``K(q, p) = max(1 - (gamma * dist(q, p))**2, 0)``.

    **Extension kernel** (not evaluated in the QUAD paper, available in
    Scikit-learn). Its node aggregate is *exact* in O(d) time because the
    profile is itself a quadratic in ``x``; see
    :class:`repro.core.bounds.quadratic_distance.DistanceQuadraticBoundProvider`.
    """

    name = "epanechnikov"
    in_paper = False

    @property
    def support_xmax(self) -> float:
        return 1.0

    def profile(self, x: FloatArray | float, out: FloatArray | None = None) -> FloatArray:
        x, out = _buffers(x, out)
        np.multiply(x, x, out=out)
        np.subtract(1.0, out, out=out)
        return np.maximum(out, 0.0, out=out)

    def profile_scalar(self, x: float) -> float:
        return 1.0 - x * x if x < 1.0 else 0.0

    def lipschitz(self, gamma: float) -> float:
        # |d/dd (1 - (gamma d)^2)| = 2 gamma^2 d <= 2 gamma at the
        # support edge gamma d = 1.
        return 2.0 * float(gamma)


class QuarticKernel(Kernel):
    """``K(q, p) = max((1 - (gamma * dist)**2)**2, 0)`` (biweight).

    **Extension kernel** (QGIS heatmap's default shape family). Exact in
    O(d^2) via the fourth-moment aggregate when the node is fully inside
    the support.
    """

    name = "quartic"
    in_paper = False

    @property
    def support_xmax(self) -> float:
        return 1.0

    def profile(self, x: FloatArray | float, out: FloatArray | None = None) -> FloatArray:
        x, out = _buffers(x, out)
        np.multiply(x, x, out=out)
        np.subtract(1.0, out, out=out)
        np.maximum(out, 0.0, out=out)
        return np.multiply(out, out, out=out)

    def profile_scalar(self, x: float) -> float:
        if x >= 1.0:
            return 0.0
        inside = 1.0 - x * x
        return inside * inside

    def lipschitz(self, gamma: float) -> float:
        # |d/dd (1 - u^2)^2| with u = gamma d is 4 gamma u (1 - u^2),
        # maximised at u = 1/sqrt(3): 8 gamma / (3 sqrt(3)).
        return 8.0 * float(gamma) / (3.0 * math.sqrt(3.0))


#: Registry of kernel name -> singleton instance.
KERNEL_REGISTRY: dict[str, Kernel] = {
    kernel.name: kernel
    for kernel in (
        GaussianKernel(),
        TriangularKernel(),
        CosineKernel(),
        ExponentialKernel(),
        EpanechnikovKernel(),
        QuarticKernel(),
    )
}


def get_kernel(kernel: KernelLike) -> Kernel:
    """Resolve ``kernel`` (name or instance) to a :class:`Kernel`.

    Raises
    ------
    UnknownNameError
        If a string name is not registered.
    """
    if isinstance(kernel, Kernel):
        return kernel
    try:
        return KERNEL_REGISTRY[str(kernel).lower()]
    except KeyError:
        known = ", ".join(sorted(KERNEL_REGISTRY))
        raise UnknownNameError(
            f"unknown kernel {kernel!r}; available kernels: {known}"
        ) from None


def available_kernels(*, paper_only: bool = False) -> list[str]:
    """Return the sorted list of registered kernel names."""
    names = (
        name
        for name, kernel in KERNEL_REGISTRY.items()
        if kernel.in_paper or not paper_only
    )
    return sorted(names)
