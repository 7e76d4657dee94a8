"""Numerically robust squared distances, shared by every exact-sum path.

The expanded form ``||p||^2 - 2 p.q + ||q||^2`` cancels catastrophically
near ``d = 0``: the residual is of order ``ulp(||q||^2)``, which after
the square root becomes ``sqrt(ulp)``-scale distance noise — visible as
~1e-8 kernel error for unsquared-distance kernels (triangular, cosine,
exponential) at a query sitting exactly on a data point, with the sign
of the error depending on which BLAS path evaluated it. The direct form
``sum_j (p_j - q_j)^2`` is locally exact (Sterbenz: the subtraction of
nearby coordinates is exact), always non-negative, and — evaluated
dimension by dimension with plain elementwise ufuncs — rounds
**bit-for-bit identically** whether the query side is a single point or
a batch. Both refinement engines and the brute-force scan route through
these helpers, so their per-pair kernel values are the same floats and
only summation order can differ (which the engines canonicalise, see
:func:`repro.core.engine.exhausted_exact`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro._types import FloatArray

__all__ = ["SCRATCH_ELEMENTS", "sq_dists_to_point", "sq_dists_to_batch"]

#: Size of :func:`sq_dists_to_batch`'s accumulation scratch, in float64s
#: (128 KiB): small enough to stay in the allocator's reused memory.
SCRATCH_ELEMENTS = 16_384


def sq_dists_to_point(points: FloatArray, q: FloatArray) -> FloatArray:
    """``||p_i - q||^2`` for an ``(n, d)`` point block and one query.

    Accumulates per dimension (``(p_x - q_x)^2 + (p_y - q_y)^2 + ...``)
    so the rounding sequence per pair matches
    :func:`sq_dists_to_batch` exactly.
    """
    sq = np.zeros(points.shape[0], dtype=np.float64)
    for j in range(points.shape[1]):
        diff = points[:, j] - q[j]
        sq += diff * diff
    return sq


def sq_dists_to_batch(queries: FloatArray, points: FloatArray) -> FloatArray:
    """``||p_i - q_k||^2`` as an ``(m, n)`` block, direct form.

    Same per-dimension accumulation order as :func:`sq_dists_to_point`,
    so entry ``[k, i]`` is bit-identical to the scalar call for query
    ``k`` — elementwise ufuncs round independently of array shape. The
    first dimension's square is written straight into the result
    (``0 + s == s`` for ``s >= 0``) and every later one goes through a
    scratch of at most :data:`SCRATCH_ELEMENTS` floats (one row, if a
    row holds more), a band of rows at a time. So the call allocates one
    ``(m, n)`` block plus that scratch whatever the dimension
    (``d >= 1``): a scratch as large as the block would be fresh,
    page-faulting memory on every large call.
    """
    sq = np.subtract(queries[:, 0, None], points[None, :, 0])
    np.multiply(sq, sq, out=sq)
    if queries.shape[1] > 1:
        m, n = sq.shape
        rows = max(1, SCRATCH_ELEMENTS // max(n, 1))
        scratch = np.empty((min(m, rows), n), dtype=np.float64)
        for first in range(0, m, rows):
            band = sq[first : first + rows]
            diff = scratch[: band.shape[0]]
            for j in range(1, queries.shape[1]):
                np.subtract(queries[first : first + rows, j, None], points[None, :, j], out=diff)
                np.multiply(diff, diff, out=diff)
                band += diff
    return sq
