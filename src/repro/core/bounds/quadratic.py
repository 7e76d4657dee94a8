"""QUAD's quadratic bounds for the Gaussian kernel (paper Section 4).

With ``x_i = gamma * dist(q, p_i)**2`` bounded in ``[xmin, xmax]``, the
exponential profile is sandwiched by parabolas
``Q(x) = a x**2 + b x + c``:

* **upper** ``QU`` passes through both interval endpoints of ``exp(-x)``
  and bends down as much as correctness allows (``a_u = a*_u``,
  Theorem 1) — tighter than KARL's chord, which is the ``a_u = 0``
  special case;
* **lower** ``QL`` is tangent to ``exp(-x)`` at ``t`` and passes through
  ``(xmax, exp(-xmax))`` (Section 4.3) — tighter than KARL's tangent
  line, which it dominates by the added ``a_l (x - t)**2 >= 0`` term.

The aggregate (Equation 2)

.. math::

    FQ_P(q, Q) = w \\left( a \\gamma^2 \\sum_i d_i^4
        + b \\gamma \\sum_i d_i^2 + c |P| \\right)

is evaluated in O(d^2) time from the node moments (Lemma 3).

Erratum implemented here (see DESIGN.md): the paper prints Theorem 1 as
``a*_u = ((xmax-xmin+1) e^-xmax - e^-xmin) / (xmax-xmin)^2``, which is
negative for every non-degenerate interval (``e^Delta > 1 + Delta``) and
so contradicts both the theorem's own requirement ``a_u > 0`` and the
worked example of the paper's Figure 7. Re-deriving the binding
constraint ``QU'(xmax) <= -exp(-xmax)`` gives the sign-corrected optimum

.. math::

    a^*_u = \\frac{e^{-x_{min}} - (x_{max} - x_{min} + 1) e^{-x_{max}}}
                 {(x_{max} - x_{min})^2} > 0

which reproduces Figure 7 (interval ~[0.5, 3.5] -> ``a*_u ~ 0.054``, so
``a_u = 0.05`` is correct and ``a_u = 0.1`` is not, exactly as pictured).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.core.aggregates import moment_sums
from repro.core.bounds.base import BoundProvider
from repro.index.rectangle import sq_dist_ranges

if TYPE_CHECKING:
    from typing import Sequence

    from repro._types import (
        BoolArray,
        BoundPair,
        FloatArray,
        IntArray,
        KernelLike,
        PointLike,
    )
    from repro.index.kdtree import KDTree, KDTreeNode

__all__ = ["QuadraticBoundProvider"]

#: Interval / tangent-gap width below which closed forms degenerate.
_DEGENERATE_WIDTH = 1e-12
#: Minimum (xmax - t) as a fraction of the interval width before the
#: lower bound falls back to the tangent line: the a_l cancellation
#: error is amplified by (width / gap)^2, so this cap keeps the induced
#: relative error below ~1e-10 (see node_bounds).
_MIN_GAP_FRACTION = 2e-3


def _columns(field: FloatArray, ids: IntArray) -> list[FloatArray]:
    """Rows ``ids`` of a per-node ``(nodes, k)`` field as ``k`` ``(J, 1)`` columns."""
    return list(np.ascontiguousarray(field[ids].T, dtype=np.float64)[:, :, None])


def optimal_upper_curvature(xmin: float, xmax: float) -> float:
    """The sign-corrected ``a*_u`` of Theorem 1 (see module docstring)."""
    width = xmax - xmin
    return (math.exp(-xmin) - (width + 1.0) * math.exp(-xmax)) / (width * width)


def upper_coefficients(xmin: float, xmax: float) -> tuple[float, float, float]:
    """Coefficients ``(a_u, b_u, c_u)`` of the tight quadratic upper bound.

    ``QU`` interpolates ``exp(-x)`` at both endpoints (Section 4.2), with
    the optimal curvature from Theorem 1.
    """
    exp_xmin = math.exp(-xmin)
    exp_xmax = math.exp(-xmax)
    width = xmax - xmin
    au = optimal_upper_curvature(xmin, xmax)
    bu = (exp_xmax - exp_xmin) / width - au * (xmin + xmax)
    cu = (exp_xmin * xmax - exp_xmax * xmin) / width + au * xmin * xmax
    return au, bu, cu


def lower_coefficients(t: float, xmax: float) -> tuple[float, float, float]:
    """Coefficients ``(a_l, b_l, c_l)`` of the tight quadratic lower bound.

    ``QL`` is tangent to ``exp(-x)`` at ``t`` and interpolates it at
    ``xmax`` (Section 4.3). Requires ``t < xmax``.
    """
    exp_t = math.exp(-t)
    exp_xmax = math.exp(-xmax)
    gap = xmax - t
    al = (exp_xmax + (xmax - 1.0 - t) * exp_t) / (gap * gap)
    bl = -exp_t - 2.0 * t * al
    cl = (1.0 + t) * exp_t + t * t * al
    return al, bl, cl


class QuadraticBoundProvider(BoundProvider):
    """QUAD bounds for the Gaussian kernel — the paper's contribution.

    Parameters
    ----------
    tangent:
        Where the lower-bound parabola touches ``exp(-x)``: ``"mean"``
        (the paper's ``t*``, Equation 3) or ``"midpoint"`` of
        ``[xmin, xmax]`` — exposed for the tangent-choice ablation.
    """

    name = "quad"
    supported_kernels = frozenset({"gaussian"})

    def __init__(
        self,
        kernel: KernelLike,
        gamma: float,
        weight: float = 1.0,
        tangent: str = "mean",
    ) -> None:
        super().__init__(kernel, gamma, weight)
        if tangent not in ("mean", "midpoint"):
            from repro.errors import InvalidParameterError

            raise InvalidParameterError(
                f"tangent must be 'mean' or 'midpoint', got {tangent!r}"
            )
        self.tangent = tangent

    def node_bounds(self, node: KDTreeNode, q: PointLike, q_sq: float) -> BoundPair:
        # Fully inlined hot path: this method runs once per node pop per
        # pixel (millions of calls per colour map), so the coefficient
        # helpers above are folded in, sharing one exp() per endpoint.
        agg = node.agg
        n = agg.total_weight  # sum of point weights (= count unweighted)
        weight = self.weight
        scale = weight * n
        if n <= 0.0:
            return 0.0, 0.0
        gamma = self.gamma
        rect = node.rect
        if self.kernel.uses_squared_distance:
            xmin = gamma * rect.min_sq_dist(q)
            xmax = gamma * rect.max_sq_dist(q)
        else:  # pragma: no cover - provider is Gaussian-only
            xmin, xmax = self.x_interval(node, q)
        exp_xmin = math.exp(-xmin)
        exp_xmax = math.exp(-xmax)
        baseline_lower = scale * exp_xmax
        baseline_upper = scale * exp_xmin
        width = xmax - xmin
        if width <= _DEGENERATE_WIDTH:
            return baseline_lower, baseline_upper
        x_sum = gamma * agg.sum_sq_dists(q)
        x2_sum = gamma * gamma * agg.sum_quartic_dists(q)

        # Upper: endpoints interpolation + optimal curvature (Theorem 1,
        # sign-corrected; see module docstring).
        au = (exp_xmin - (width + 1.0) * exp_xmax) / (width * width)
        bu = (exp_xmax - exp_xmin) / width - au * (xmin + xmax)
        cu = (exp_xmin * xmax - exp_xmax * xmin) / width + au * xmin * xmax
        upper = weight * (au * x2_sum + bu * x_sum + cu * n)

        # Tangent abscissa t* = mean of the x_i (Equation 3), which always
        # lies inside [xmin, xmax]; clamped for rounding safety. The
        # midpoint alternative serves the tangent-choice ablation.
        if self.tangent == "mean":
            t = x_sum / n
            if t < xmin:
                t = xmin
            elif t > xmax:
                t = xmax
        else:
            t = 0.5 * (xmin + xmax)
        gap = xmax - t
        exp_t = math.exp(-t)
        if gap <= _DEGENERATE_WIDTH or gap <= _MIN_GAP_FRACTION * width:
            # The parabola through the tangent point and (xmax, .)
            # degenerates as t -> xmax, and worse: the cancellation error
            # of a_l is amplified by (width / gap)^2 across the interval,
            # which can push QL *above* exp(-x) — an invalid bound. Fall
            # back to the tangent *line* (KARL's lower bound, stable and
            # nearly as tight here since the points cluster at xmax).
            lower = weight * exp_t * ((1.0 + t) * n - x_sum)
        else:
            al = (exp_xmax + (xmax - 1.0 - t) * exp_t) / (gap * gap)
            bl = -exp_t - 2.0 * t * al
            cl = (1.0 + t) * exp_t + t * t * al
            lower = weight * (al * x2_sum + bl * x_sum + cl * n)

        # Intersect with the always-valid baseline interval. Theorems 1-2
        # make this a mathematical no-op; it guards floating-point drift.
        if upper > baseline_upper:
            upper = baseline_upper
        if lower < baseline_lower:
            lower = baseline_lower
        if lower > upper:
            lower = upper
        return lower, upper

    def node_bounds_batch(
        self, node: KDTreeNode, queries: FloatArray, queries_sq: FloatArray
    ) -> tuple[FloatArray, FloatArray]:
        """Vectorised :meth:`node_bounds` over an ``(m, d)`` query batch.

        Mirrors the scalar formulas row-wise, term for term. Each query
        column is read once into the node's distance interval and its
        moment sums (Lemma 3); column-contiguous ``queries`` (``queries.T``
        C-contiguous) make those reads unit-stride. Every intermediate is
        updated in place, and the rare degenerate-interval and
        tangent-line rows are patched by masked assignment. ``x``
        arguments to ``exp`` are clamped at
        :data:`~repro.core.bounds.base.EXP_NEG_XMAX` (the Gaussian
        profile) so far-away nodes underflow to 0 without warnings (the
        scalar path gets this for free from ``math.exp``).
        """
        agg = node.agg
        n = agg.total_weight
        m = queries.shape[0]
        if n <= 0.0 or m == 0:
            return (
                np.zeros(m, dtype=np.float64),
                np.zeros(m, dtype=np.float64),
            )
        columns = tuple(queries.T)
        xmin, xmax = node.rect.sq_dist_range_batch(columns)
        x_sum, x2_sum = agg.moment_sums_batch(columns)
        return self._bounds_from_sums(n, xmin, xmax, x_sum, x2_sum)

    def node_bounds_stacked(
        self,
        tree: KDTree,
        nodes: Sequence[KDTreeNode],
        queries: FloatArray,
        queries_sq: FloatArray,
    ) -> tuple[FloatArray, FloatArray]:
        """:meth:`node_bounds_batch` of ``J`` nodes in one pass: ``(J, m)`` blocks.

        Row ``k`` equals ``node_bounds_batch(nodes[k], ...)`` bit for
        bit. The nodes' rectangles and moments are gathered from
        ``tree.arrays`` by ``node_id`` as ``(J, 1)`` columns and run
        through the same formulas (:func:`~repro.index.rectangle.sq_dist_ranges`,
        :func:`~repro.core.aggregates.moment_sums`,
        :meth:`_bounds_from_sums`), whose elementwise operations round
        the same whatever the operand shapes. Zero-weight nodes give
        zero rows. One node keeps the plain-float constants of
        :meth:`node_bounds_batch`, the faster form for one node.
        """
        m = queries.shape[0]
        if len(nodes) == 1:
            lower, upper = self.node_bounds_batch(nodes[0], queries, queries_sq)
            return lower.reshape(1, m), upper.reshape(1, m)
        if m == 0:
            return (
                np.zeros((len(nodes), 0), dtype=np.float64),
                np.zeros((len(nodes), 0), dtype=np.float64),
            )
        arrays = tree.arrays
        ids = np.array([node.node_id for node in nodes], dtype=np.int64)
        n = arrays["agg_tw"][ids, None]
        empty = n[:, 0] <= 0.0
        if empty.any():
            # Any positive weight keeps their rows finite until zeroed.
            n = np.where(empty[:, None], 1.0, n)
        columns = tuple(queries.T)
        xmin, xmax = sq_dist_ranges(
            columns, _columns(arrays["rect_low"], ids), _columns(arrays["rect_high"], ids)
        )
        x_sum, x2_sum = moment_sums(
            columns,
            n,
            _columns(arrays["agg_center"], ids),
            _columns(arrays["agg_a"], ids),
            arrays["agg_b"][ids, None],
            _columns(arrays["agg_v"], ids),
            arrays["agg_h"][ids, None],
            _columns(arrays["agg_c"], ids),
        )
        lower, upper = self._bounds_from_sums(n, xmin, xmax, x_sum, x2_sum)
        if empty.any():
            lower[empty] = 0.0
            upper[empty] = 0.0
        return lower, upper

    def _bounds_from_sums(
        self,
        n: float | FloatArray,
        xmin: FloatArray,
        xmax: FloatArray,
        x_sum: FloatArray,
        x2_sum: FloatArray,
    ) -> tuple[FloatArray, FloatArray]:
        """The QUAD pair from squared-distance ranges and moment sums.

        ``n`` is the node's total weight (positive): a float with
        ``(m,)`` rows, or a ``(J, 1)`` column with ``(J, m)`` blocks.
        Every argument array is overwritten.
        """
        gamma = self.gamma
        weight = self.weight
        xmin *= gamma
        xmax *= gamma
        x_sum *= gamma
        x2_sum *= gamma * gamma
        exp_neg = self.kernel.profile  # Gaussian: exp(-x), clamped
        exp_xmin = exp_neg(xmin)
        exp_xmax = exp_neg(xmax)
        width = xmax - xmin
        # Degenerate rows return the baseline pair (patched in at the
        # end); a unit width keeps their closed forms finite meanwhile.
        degenerate: BoolArray | None = None
        safe_width = width
        if width.min() <= _DEGENERATE_WIDTH:
            degenerate = width <= _DEGENERATE_WIDTH
            safe_width = width.copy()
            safe_width[degenerate] = 1.0

        # Upper: endpoints interpolation + optimal curvature (Theorem 1),
        # evaluated in place in the scalar path's operation order:
        #   au = (e^-xmin - (w + 1) e^-xmax) / w^2
        #   bu = (e^-xmax - e^-xmin) / w - au (xmin + xmax)
        #   cu = (e^-xmin xmax - e^-xmax xmin) / w + au xmin xmax
        #   upper = weight (au sum x^2 + bu sum x + cu n)
        au = safe_width + 1.0
        au *= exp_xmax
        np.subtract(exp_xmin, au, out=au)
        au /= safe_width * safe_width

        bu = exp_xmax - exp_xmin
        bu /= safe_width
        term = xmin + xmax
        term *= au
        bu -= term

        cu = exp_xmin * xmax
        np.multiply(exp_xmax, xmin, out=term)
        cu -= term
        cu /= safe_width
        np.multiply(au, xmin, out=term)
        term *= xmax
        cu += term

        upper = au * x2_sum
        bu *= x_sum
        upper += bu
        cu *= n
        upper += cu
        upper *= weight

        # Lower: tangent at t, through (xmax, exp(-xmax)) (Section 4.3):
        #   al = (e^-xmax + (xmax - 1 - t) e^-t) / gap^2
        #   bl = -e^-t - 2 t al
        #   cl = (1 + t) e^-t + t^2 al
        #   lower = weight (al sum x^2 + bl sum x + cl n)
        if self.tangent == "mean":
            t = x_sum / n
            np.maximum(t, xmin, out=t)
            np.minimum(t, xmax, out=t)
        else:
            t = xmin + xmax
            t *= 0.5
        gap = xmax - t
        exp_t = exp_neg(t)
        # Tangent-line rows (see node_bounds): gap below the larger of
        # the absolute and the width-relative floor.
        np.multiply(width, _MIN_GAP_FRACTION, out=term)
        np.maximum(term, _DEGENERATE_WIDTH, out=term)
        line = gap <= term
        line_lower: FloatArray | None = None
        if line.any():
            t_line = t[line]
            n_line = n if isinstance(n, float) else np.broadcast_to(n, t.shape)[line]
            line_lower = (weight * exp_t[line]) * ((1.0 + t_line) * n_line - x_sum[line])
            gap[line] = 1.0

        al = xmax - 1.0
        al -= t
        al *= exp_t
        al += exp_xmax
        gap *= gap
        al /= gap

        bl = t * 2.0
        bl *= al
        bl += exp_t
        np.negative(bl, out=bl)

        cl = t + 1.0
        cl *= exp_t
        np.multiply(t, t, out=term)
        term *= al
        cl += term

        lower = al * x2_sum
        bl *= x_sum
        lower += bl
        cl *= n
        lower += cl
        lower *= weight
        if line_lower is not None:
            lower[line] = line_lower

        # Intersect with the always-valid baseline interval.
        scale = weight * n
        baseline_upper = exp_xmin
        baseline_upper *= scale
        baseline_lower = exp_xmax
        baseline_lower *= scale
        np.minimum(upper, baseline_upper, out=upper)
        np.maximum(lower, baseline_lower, out=lower)
        np.minimum(lower, upper, out=lower)
        if degenerate is not None:
            lower[degenerate] = baseline_lower[degenerate]
            upper[degenerate] = baseline_upper[degenerate]
        return lower, upper
