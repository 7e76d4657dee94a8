"""Per-node aggregate statistics powering the O(d)/O(d^2) bound evaluation.

The key identity behind KARL's linear bounds (the paper's Section 3.3) is

.. math::

    \\sum_{p_i} dist(q, p_i)^2 = |P| \\, \\lVert q \\rVert^2 - 2 q \\cdot a_P + b_P

with ``a_P = sum(p_i)`` and ``b_P = sum(||p_i||^2)`` precomputed per node.
QUAD's Gaussian bounds additionally need the fourth moment (Lemma 3):

.. math::

    \\sum_{p_i} dist(q, p_i)^4 = |P| \\lVert q \\rVert^4
        - 4 \\lVert q \\rVert^2 (q \\cdot a_P) - 4 (q \\cdot v_P)
        + 2 \\lVert q \\rVert^2 b_P + h_P + 4 q^T C_P q

with ``v_P = sum(||p_i||^2 p_i)``, ``h_P = sum(||p_i||^4)`` and the
``d x d`` moment matrix ``C_P = sum(p_i p_i^T)``.

Numerical stability — a correctness-critical implementation detail the
paper leaves implicit: evaluated in *absolute* coordinates, the fourth
moment identity cancels catastrophically whenever the coordinate
magnitude dwarfs the point spread (latitude/longitude data is the
canonical offender: ``|P| ||q||^4 ~ 1e9`` against a true sum of
``~1e-6`` leaves zero significant digits, which silently breaks the
bound correctness guarantee). All moments here are therefore stored
**relative to the node's centroid**; the identities are
translation-invariant, the centred first moment is ~0, and every term
stays at the scale of the true distances. The evaluation methods shift
the query by the stored centroid on the fly.

The scalar evaluation methods take the query as a plain Python list;
the refinement engine calls them millions of times per colour map, and
plain-float arithmetic is roughly an order of magnitude faster than
numpy scalar extraction at ``d <= 3``. The batched ones take a query
batch as its coordinate columns and build every sum from them with
elementwise numpy operations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import InvalidParameterError

if TYPE_CHECKING:
    from repro._types import FloatArray, IntArray, PointLike

    #: A node constant: a float for one node, or a ``(J, 1)`` column
    #: holding it for each of ``J`` stacked nodes (see :func:`moment_sums`).
    Constant = float | FloatArray

__all__ = ["NodeAggregates", "moment_sums", "segment_aggregates"]


class NodeAggregates:
    """Centroid-centred (optionally weighted) moment statistics.

    With per-point weights ``w_i >= 0`` every moment is the weighted sum
    (uniform weight 1 when none are given) — the form needed to support
    re-weighted samples, the paper's footnote 5. The bound formulas all
    generalise by substituting the total weight ``W = sum(w_i)`` for the
    point count, which :attr:`total_weight` carries. A node whose
    weights are all zero has ``W = 0`` and zero moments about its
    unweighted centroid; every bound provider bounds it by ``(0, 0)``.

    Attributes
    ----------
    n:
        Number of points ``|P|``.
    total_weight:
        ``sum(w_i)`` (equals ``n`` for unweighted data).
    center:
        The (weighted) centroid the moments are relative to.
    a:
        Centred first moment ``sum(w_i (p_i - c))`` (≈ 0 up to rounding,
        kept in the identities for exactness); list of ``d`` floats.
    b:
        Scalar ``sum(w_i ||p_i - c||^2)``.
    v:
        Third-moment vector ``sum(w_i ||p_i - c||^2 (p_i - c))``.
    h:
        Scalar ``sum(w_i ||p_i - c||^4)``.
    c:
        Row-major flattened ``d x d`` matrix
        ``sum(w_i (p_i - c)(p_i - c)^T)``.
    dims:
        Dimensionality ``d``.
    """

    __slots__ = (
        "n",
        "total_weight",
        "center",
        "a",
        "b",
        "v",
        "h",
        "c",
        "dims",
    )

    def __init__(
        self,
        n: int,
        center: Sequence[float],
        a: Sequence[float],
        b: float,
        v: Sequence[float],
        h: float,
        c: Sequence[float],
        dims: int,
        total_weight: float | None = None,
    ) -> None:
        self.n = int(n)
        self.total_weight = float(n if total_weight is None else total_weight)
        self.center = list(center)
        self.a = list(a)
        self.b = float(b)
        self.v = list(v)
        self.h = float(h)
        self.c = list(c)
        self.dims = int(dims)

    @classmethod
    def from_points(
        cls, points: PointLike, weights: PointLike | None = None
    ) -> NodeAggregates:
        """Centroid-centred aggregates of an ``(n, d)`` array.

        Parameters
        ----------
        points:
            Point array.
        weights:
            Optional non-negative per-point weights ``(n,)``; ``None``
            means uniform weight 1. They may all be zero.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] < 1:
            raise InvalidParameterError("points must be a non-empty (n, d) array")
        if weights is None:
            total_weight = float(points.shape[0])
            center = points.mean(axis=0)
            centred = points - center
            sq_norms = np.einsum("ij,ij->i", centred, centred)
            a = centred.sum(axis=0)
            b = float(sq_norms.sum())
            v = (centred * sq_norms[:, None]).sum(axis=0)
            h = float(np.dot(sq_norms, sq_norms))
            c = centred.T @ centred
        else:
            weights = np.asarray(weights, dtype=np.float64).reshape(-1)
            if weights.shape[0] != points.shape[0]:
                raise InvalidParameterError(
                    f"weights length {weights.shape[0]} != points {points.shape[0]}"
                )
            if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
                raise InvalidParameterError("weights must be finite and >= 0")
            total_weight = float(weights.sum())
            if total_weight > 0.0:
                center = (points * weights[:, None]).sum(axis=0) / total_weight
            else:
                # Only zero-weight points: every moment is exactly zero,
                # taken about the unweighted centroid (finite, unlike 0/0).
                center = points.mean(axis=0)
            centred = points - center
            sq_norms = np.einsum("ij,ij->i", centred, centred)
            a = (centred * weights[:, None]).sum(axis=0)
            b = float(np.dot(weights, sq_norms))
            v = (centred * (weights * sq_norms)[:, None]).sum(axis=0)
            h = float(np.dot(weights, sq_norms * sq_norms))
            c = (centred * weights[:, None]).T @ centred
        return cls(
            n=points.shape[0],
            center=center.tolist(),
            a=a.tolist(),
            b=b,
            v=v.tolist(),
            h=h,
            c=c.reshape(-1).tolist(),
            dims=points.shape[1],
            total_weight=total_weight,
        )

    def sum_sq_dists(self, q: Sequence[float]) -> float:
        """``sum_i w_i dist(q, p_i)^2`` in O(d) time (w_i = 1 unweighted).

        Parameters
        ----------
        q:
            Query coordinates as a list of ``d`` floats (absolute; the
            centroid shift happens internally).
        """
        a = self.a
        center = self.center
        if self.dims == 2:
            # Unrolled 2-D fast path: KDV queries are overwhelmingly 2-D
            # and this method sits on the per-pixel hot loop. Coordinates
            # are coerced to plain floats once so numpy scalars handed in
            # by the engine never degrade the arithmetic below.
            q0 = float(q[0]) - center[0]
            q1 = float(q[1]) - center[1]
            value = (
                self.total_weight * (q0 * q0 + q1 * q1)
                - 2.0 * (q0 * a[0] + q1 * a[1])
                + self.b
            )
            return value if value > 0.0 else 0.0
        q_sq = 0.0
        dot_qa = 0.0
        for j in range(self.dims):
            qj = float(q[j]) - center[j]
            q_sq += qj * qj
            dot_qa += qj * a[j]
        value = self.total_weight * q_sq - 2.0 * dot_qa + self.b
        # The true value is non-negative; rounding can leave a tiny
        # negative residue when every point coincides with q.
        return value if value > 0.0 else 0.0

    def sq_dist_sum_batch(self, columns: Sequence[FloatArray]) -> FloatArray:
        """Vectorised :meth:`sum_sq_dists` over query columns.

        ``columns[j]`` holds coordinate ``j`` of every query (for an
        ``(m, d)`` batch, ``tuple(queries.T)``).
        """
        __, __, q_sq, dot_a2 = _centred_terms(columns, self.center, self.a)
        value = q_sq * self.total_weight
        value -= dot_a2
        value += self.b
        return np.maximum(value, 0.0, out=value)

    def moment_sums_batch(
        self, columns: Sequence[FloatArray]
    ) -> tuple[FloatArray, FloatArray]:
        """``(sum_sq_dists, sum_quartic_dists)`` over query columns (Lemma 3).

        Terms are added in the order of the scalar methods; the
        quadratic form ``q^T C q`` uses the symmetric row expansion of
        the 2-D fast path (``C`` is symmetric), so for ``d = 2`` the
        results equal the scalar ones bit for bit. See
        :func:`moment_sums`, which also evaluates a stack of nodes.
        """
        return moment_sums(
            columns, self.total_weight, self.center, self.a, self.b, self.v,
            self.h, self.c,
        )

    def sum_quartic_dists(self, q: Sequence[float]) -> float:
        """``sum_i w_i dist(q, p_i)^4`` in O(d^2) time (Lemma 3)."""
        dims = self.dims
        a = self.a
        v = self.v
        c = self.c
        center = self.center
        if dims == 2:
            # Unrolled 2-D fast path (see sum_sq_dists).
            q0 = float(q[0]) - center[0]
            q1 = float(q[1]) - center[1]
            q_sq = q0 * q0 + q1 * q1
            value = (
                self.total_weight * q_sq * q_sq
                - 4.0 * q_sq * (q0 * a[0] + q1 * a[1])
                - 4.0 * (q0 * v[0] + q1 * v[1])
                + 2.0 * q_sq * self.b
                + self.h
                + 4.0 * (q0 * q0 * c[0] + 2.0 * q0 * q1 * c[1] + q1 * q1 * c[3])
            )
            return value if value > 0.0 else 0.0
        shifted = [0.0] * dims
        q_sq = 0.0
        dot_qa = 0.0
        dot_qv = 0.0
        for j in range(dims):
            qj = float(q[j]) - center[j]
            shifted[j] = qj
            q_sq += qj * qj
            dot_qa += qj * a[j]
            dot_qv += qj * v[j]
        quad_form = 0.0
        index = 0
        for i in range(dims):
            row = 0.0
            for j in range(dims):
                row += c[index] * shifted[j]
                index += 1
            quad_form += shifted[i] * row
        value = (
            self.total_weight * q_sq * q_sq
            - 4.0 * q_sq * dot_qa
            - 4.0 * dot_qv
            + 2.0 * q_sq * self.b
            + self.h
            + 4.0 * quad_form
        )
        return value if value > 0.0 else 0.0

    def __repr__(self) -> str:
        return f"NodeAggregates(n={self.n}, dims={self.dims})"


def _centred_terms(
    columns: Sequence[FloatArray], center: Sequence[Constant], a: Sequence[Constant]
) -> tuple[list[FloatArray], list[FloatArray], FloatArray, FloatArray]:
    """Per-row terms shared by the batched moment sums.

    Returns the centred query columns ``s_j``, their squares,
    ``||s||^2`` and ``2 s . a`` (the factor 2 folded into ``a``,
    which scales exactly), each summed over ``j`` in the order of
    the scalar loops.
    """
    shifted = [column - c for column, c in zip(columns, center)]
    squares = [s * s for s in shifted]
    q_sq = squares[0]  # read-only below, so aliasing is harmless at d = 1
    dot_a2 = shifted[0] * (2.0 * a[0])
    for j in range(1, len(center)):
        q_sq = q_sq + squares[j]
        dot_a2 += shifted[j] * (2.0 * a[j])
    return shifted, squares, q_sq, dot_a2


def moment_sums(
    columns: Sequence[FloatArray],
    total_weight: Constant,
    center: Sequence[Constant],
    a: Sequence[Constant],
    b: Constant,
    v: Sequence[Constant],
    h: Constant,
    c: Sequence[Constant],
) -> tuple[FloatArray, FloatArray]:
    """``(sum_sq_dists, sum_quartic_dists)`` of one node or a stack (Lemma 3).

    The constants are a node's :class:`NodeAggregates` fields, as
    floats, giving ``(m,)`` rows over the query columns; or ``(J, 1)``
    columns of ``J`` nodes' fields, giving ``(J, m)`` blocks whose row
    ``k`` is node ``k``'s one-node result bit for bit (elementwise
    ufuncs round the same whatever the operand shapes). Both sums share
    one pass over the centred columns.
    """
    shifted, squares, q_sq, dot_a2 = _centred_terms(columns, center, a)
    dims = len(center)
    weighted_sq = q_sq * total_weight
    sq_sum = weighted_sq - dot_a2
    sq_sum += b
    np.maximum(sq_sum, 0.0, out=sq_sum)

    # W q^4 - 4 q^2 (q.a) - 4 q.v + 2 q^2 b + h + 4 q^T C q, with the
    # constant factors folded into the moments (exact power-of-2
    # scalings).
    quartic = weighted_sq
    quartic *= q_sq
    term = q_sq * dot_a2
    term *= 2.0
    quartic -= term
    np.multiply(shifted[0], 4.0 * v[0], out=term)
    for j in range(1, dims):
        term += shifted[j] * (4.0 * v[j])
    quartic -= term
    np.multiply(q_sq, 2.0 * b, out=term)
    quartic += term
    quartic += h
    # Row i contributes c_ii s_i^2 + sum_{j > i} 2 c_ij s_i s_j.
    form = squares[0] * (4.0 * c[0])
    for i in range(dims):
        if i:
            np.multiply(squares[i], 4.0 * c[i * dims + i], out=term)
            form += term
        for j in range(i + 1, dims):
            np.multiply(shifted[i], shifted[j], out=term)
            term *= 8.0 * c[i * dims + j]
            form += term
    quartic += form
    np.maximum(quartic, 0.0, out=quartic)
    return sq_sum, quartic


def segment_aggregates(
    columns: FloatArray, weights: FloatArray | None, counts: IntArray
) -> dict[str, np.ndarray]:
    """:meth:`NodeAggregates.from_points` of many nodes at once.

    ``columns`` is a ``(d, m)`` array whose row ``j`` holds coordinate
    ``j`` of the nodes' members, node after node, ``counts[k] >= 1`` of
    them for node ``k``; ``weights`` (or ``None``) is aligned with the
    members. Every node's moments are summed from its own members about
    its own centroid, as ``from_points`` does, so the two agree to
    rounding; only the summation order differs. Returns one array per
    field with one row per node: ``agg_n``, ``agg_tw``, ``agg_center``,
    ``agg_a``, ``agg_b``, ``agg_v``, ``agg_h`` and ``agg_c`` (the
    row-major ``d x d`` matrix, exactly symmetric).
    """
    counts = np.asarray(counts, dtype=np.int64)
    firsts = np.cumsum(counts) - counts
    add = np.add.reduceat
    if weights is None:
        total_weight = counts.astype(np.float64)
        center = add(columns, firsts, axis=1) / total_weight
    else:
        total_weight = add(weights, firsts)
        empty = total_weight <= 0.0
        center = add(columns * weights, firsts, axis=1)
        center /= np.where(empty, 1.0, total_weight)
        if empty.any():
            # Zero-weight nodes: the unweighted centroid, as in from_points.
            center[:, empty] = add(columns, firsts, axis=1)[:, empty] / counts[empty]
    centred = columns - np.repeat(center, counts, axis=1)
    sq_norms = np.einsum("ij,ij->j", centred, centred)
    if weights is None:
        w_centred, w_sq = centred, sq_norms
    else:
        w_centred = centred * weights
        w_sq = sq_norms * weights
    dims = columns.shape[0]
    moment_c = np.empty((counts.shape[0], dims, dims), dtype=np.float64)
    for i in range(dims):
        for j in range(i, dims):
            moment_c[:, i, j] = moment_c[:, j, i] = add(w_centred[i] * centred[j], firsts)
    return {
        "agg_n": counts,
        "agg_tw": total_weight,
        "agg_center": center.T,
        "agg_a": add(w_centred, firsts, axis=1).T,
        "agg_b": add(w_sq, firsts),
        "agg_v": add(w_centred * sq_norms, firsts, axis=1).T,
        "agg_h": add(w_sq * sq_norms, firsts),
        "agg_c": moment_c.reshape(counts.shape[0], dims * dims),
    }
