"""Common protocol for per-node bound functions.

A bound provider answers, for an index node ``R`` and a query pixel ``q``,
an interval ``[LB_R(q), UB_R(q)]`` guaranteed to contain the node's true
weighted kernel sum

.. math::

    F_R(q) = \\sum_{p_i \\in R} w \\cdot K(q, p_i)

(the correctness condition of the paper's Section 3.1). The refinement
engine is agnostic to which provider it runs — that is exactly the
paper's experimental design, where methods differ only in their bounds.

That correctness condition is also a runtime-checkable contract: with
``REPRO_CHECK_INVARIANTS=1`` (see :mod:`repro.contracts`) the engine
routes through :meth:`BoundProvider.checked_node_bounds`, which
validates every returned pair, and cross-checks exact leaf sums against
the advertised leaf bounds.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

from repro.contracts.decorators import soundness_check
from repro.contracts.runtime import check_bound_pair, check_kernel_values
from repro.core.distances import sq_dists_to_batch, sq_dists_to_point
from repro.core.kernels import Kernel, get_kernel
from repro.errors import UnsupportedKernelError
from repro.utils.validation import check_positive

if TYPE_CHECKING:
    from typing import Sequence

    from repro._types import BoundPair, FloatArray, KernelLike, PointLike
    from repro.index.kdtree import KDTree, KDTreeNode

__all__ = ["BoundProvider", "make_bound_provider"]

#: Largest magnitude fed to ``np.exp(-x)`` by the vectorised bound
#: implementations; mirrors the clamp in :mod:`repro.core.kernels`
#: (``exp(-708)`` is still a normal float64, larger arguments underflow
#: and trip warning-clean runs).
EXP_NEG_XMAX = 708.0


class BoundProvider(ABC):
    """Computes ``(LB, UB)`` for the weighted kernel sum of a node.

    Parameters
    ----------
    kernel:
        Kernel name or :class:`~repro.core.kernels.Kernel` instance.
    gamma:
        Positive bandwidth parameter of the kernel.
    weight:
        Per-point weight ``w`` of the kernel aggregation.

    Subclasses declare :attr:`supported_kernels` (a frozenset of kernel
    names, or ``None`` for "any kernel") and implement
    :meth:`node_bounds`.
    """

    name: str = "abstract"
    supported_kernels: frozenset[str] | None = None

    def __init__(self, kernel: KernelLike, gamma: float, weight: float = 1.0) -> None:
        self.kernel: Kernel = get_kernel(kernel)
        self.gamma: float = check_positive(gamma, "gamma")
        self.weight: float = check_positive(weight, "weight")
        if (
            self.supported_kernels is not None
            and self.kernel.name not in self.supported_kernels
        ):
            supported = ", ".join(sorted(self.supported_kernels))
            raise UnsupportedKernelError(
                f"{type(self).__name__} supports only [{supported}] kernels, "
                f"got {self.kernel.name!r}"
            )

    @abstractmethod
    def node_bounds(self, node: KDTreeNode, q: PointLike, q_sq: float) -> BoundPair:
        """Return ``(lb, ub)`` bounding the node's weighted kernel sum.

        Parameters
        ----------
        node:
            A :class:`~repro.index.kdtree.KDTreeNode`.
        q:
            Query coordinates (sequence or 1-D array; hot path).
        q_sq:
            Precomputed squared norm ``||q||^2``.
        """

    @soundness_check
    def checked_node_bounds(
        self, node: KDTreeNode, q: PointLike, q_sq: float
    ) -> BoundPair:
        """:meth:`node_bounds` with the bound-order contract validated.

        The refinement engine calls this variant instead of
        :meth:`node_bounds` whenever invariant checking is enabled, so
        built-in providers pay no wrapper cost on the normal hot path
        while custom providers can also opt in permanently by decorating
        their own ``node_bounds`` with
        :func:`repro.contracts.soundness_check`.
        """
        return self.node_bounds(node, q, q_sq)

    def leaf_exact(self, node: KDTreeNode, q_array: FloatArray, q_sq: float) -> float:
        """Exact weighted kernel sum over a leaf node, vectorised.

        Unsquared-distance kernels (triangular, cosine, exponential)
        use the direct distance form of :mod:`repro.core.distances`: the
        expanded ``||p||^2 - 2 p.q + ||q||^2`` form cancels
        catastrophically near ``d = 0``, and the square root amplifies
        the residual into ``sqrt(ulp)``-scale distance noise (~1e-8
        kernel error at a query sitting on a data point — enough to
        flip a τ classification). Squared-distance kernels keep the
        BLAS-friendly expanded form: without the square root the noise
        stays ~``ulp(||q||^2)`` absolute, far inside the τ tie guard.

        Parameters
        ----------
        node:
            A leaf :class:`~repro.index.kdtree.KDTreeNode`.
        q_array:
            Query as a 1-D numpy array.
        q_sq:
            Precomputed ``||q||^2`` (used by the expanded form only).
        """
        if self.kernel.uses_squared_distance:
            sq_dists = node.sq_norms - 2.0 * (node.points @ q_array) + q_sq
            np.maximum(sq_dists, 0.0, out=sq_dists)
        else:
            sq_dists = sq_dists_to_point(node.points, q_array)
        values = self.kernel.evaluate(sq_dists, self.gamma)
        if node.weights is not None:
            return self.weight * float(np.dot(values, node.weights))
        return self.weight * float(values.sum())

    def checked_leaf_exact(
        self, node: KDTreeNode, q_array: FloatArray, q_sq: float
    ) -> float:
        """:meth:`leaf_exact` with the kernel-nonnegative contract validated.

        Selected by the refinement engine instead of :meth:`leaf_exact`
        whenever invariant checking is enabled, keeping the unchecked
        leaf evaluation free of even a flag test.
        """
        if self.kernel.uses_squared_distance:
            sq_dists = node.sq_norms - 2.0 * (node.points @ q_array) + q_sq
            np.maximum(sq_dists, 0.0, out=sq_dists)
        else:
            sq_dists = sq_dists_to_point(node.points, q_array)
        values = self.kernel.evaluate(sq_dists, self.gamma)
        check_kernel_values(values, kernel=self.kernel.name)
        if node.weights is not None:
            return self.weight * float(np.dot(values, node.weights))
        return self.weight * float(values.sum())

    def node_bounds_batch(
        self, node: KDTreeNode, queries: FloatArray, queries_sq: FloatArray
    ) -> tuple[FloatArray, FloatArray]:
        """Return ``(LB[m], UB[m])`` for an ``(m, d)`` query batch.

        The default implementation loops over :meth:`node_bounds`, so any
        third-party provider that only implements the scalar interface
        keeps working with the batched refinement engine. Built-in
        providers override this with fully vectorised versions.
        """
        m = queries.shape[0]
        lowers = np.empty(m, dtype=np.float64)
        uppers = np.empty(m, dtype=np.float64)
        for i in range(m):
            lowers[i], uppers[i] = self.node_bounds(
                node, queries[i], float(queries_sq[i])
            )
        return lowers, uppers

    def checked_node_bounds_batch(
        self, node: KDTreeNode, queries: FloatArray, queries_sq: FloatArray
    ) -> tuple[FloatArray, FloatArray]:
        """:meth:`node_bounds_batch` with every pair contract-validated.

        The batched engine routes through this variant when invariant
        checking is enabled, mirroring :meth:`checked_node_bounds`.
        """
        lowers, uppers = self.node_bounds_batch(node, queries, queries_sq)
        self._check_pairs(node, lowers, uppers, queries)
        return lowers, uppers

    def node_bounds_stacked(
        self,
        tree: KDTree,
        nodes: Sequence[KDTreeNode],
        queries: FloatArray,
        queries_sq: FloatArray,
    ) -> tuple[FloatArray, FloatArray]:
        """``(LB, UB)`` of ``J`` nodes of ``tree``: ``(J, m)`` blocks.

        Row ``k`` is ``node_bounds_batch(nodes[k], queries, queries_sq)``.
        This default stacks one call per node, so every provider serves
        the batched engine's wide τ steps; the Gaussian QUAD provider
        overrides it with one pass over all ``J`` nodes.
        """
        m = queries.shape[0]
        lowers = np.empty((len(nodes), m), dtype=np.float64)
        uppers = np.empty((len(nodes), m), dtype=np.float64)
        for k, node in enumerate(nodes):
            lowers[k], uppers[k] = self.node_bounds_batch(node, queries, queries_sq)
        return lowers, uppers

    def checked_node_bounds_stacked(
        self,
        tree: KDTree,
        nodes: Sequence[KDTreeNode],
        queries: FloatArray,
        queries_sq: FloatArray,
    ) -> tuple[FloatArray, FloatArray]:
        """:meth:`node_bounds_stacked` with every pair contract-validated."""
        lowers, uppers = self.node_bounds_stacked(tree, nodes, queries, queries_sq)
        for node, lower_row, upper_row in zip(nodes, lowers, uppers):
            self._check_pairs(node, lower_row, upper_row, queries)
        return lowers, uppers

    def _check_pairs(
        self,
        node: KDTreeNode,
        lowers: FloatArray,
        uppers: FloatArray,
        queries: FloatArray,
    ) -> None:
        """Validate one node's pair on every query row (bound-order contract)."""
        bound = type(self).__name__
        node_id = node.node_id
        for i in range(queries.shape[0]):
            check_bound_pair(
                float(lowers[i]),
                float(uppers[i]),
                bound=bound,
                node=node_id,
                query=queries[i].tolist(),
            )

    def _leaf_kernel_block(
        self, node: KDTreeNode, queries: FloatArray, queries_sq: FloatArray
    ) -> FloatArray:
        """Kernel values of every ``(query, leaf point)`` pair, one buffer.

        The distance form mirrors :meth:`leaf_exact` kernel for kernel —
        for unsquared-distance kernels the direct form makes each entry
        bit-identical to the scalar evaluation of the same pair (see
        :mod:`repro.core.distances`); squared-distance kernels keep the
        BLAS expanded form, whose noise the τ tie guard absorbs.

        The expanded form is evaluated inside the matmul's result:
        ``G *= -2; G += ||q||^2; G += ||p||^2`` is
        ``||q||^2 - 2 G + ||p||^2`` float for float (``a - b`` is
        ``a + (-b)`` and IEEE addition commutes), and the kernel then
        runs in place on it. So a leaf visit allocates one ``(m, n)``
        block instead of one per operation, each of which a large batch
        pays for in fresh, page-faulting memory.
        """
        if self.kernel.uses_squared_distance:
            block = queries @ node.points.T
            block *= -2.0
            block += queries_sq[:, None]
            block += node.sq_norms
            np.maximum(block, 0.0, out=block)
        else:
            block = sq_dists_to_batch(queries, node.points)
        return self.kernel.evaluate(block, self.gamma, out=block)

    def _leaf_sums(self, node: KDTreeNode, values: FloatArray) -> FloatArray:
        """Weighted row sums of a :meth:`_leaf_kernel_block`."""
        if node.weights is not None:
            return self.weight * (values @ node.weights)
        result: FloatArray = self.weight * values.sum(axis=1)
        return result

    def leaf_exact_batch(self, node: KDTreeNode, queries: FloatArray,
                         queries_sq: FloatArray) -> FloatArray:
        """Exact weighted kernel sums of a leaf for an ``(m, d)`` batch.

        Vectorised over both queries and leaf points: one ``(m, n)``
        kernel block per leaf visit (:meth:`_leaf_kernel_block`).
        """
        return self._leaf_sums(node, self._leaf_kernel_block(node, queries, queries_sq))

    def checked_leaf_exact_batch(
        self, node: KDTreeNode, queries: FloatArray, queries_sq: FloatArray
    ) -> FloatArray:
        """:meth:`leaf_exact_batch` with the kernel-value contract validated."""
        values = self._leaf_kernel_block(node, queries, queries_sq)
        check_kernel_values(values, kernel=self.kernel.name)
        return self._leaf_sums(node, values)

    def x_interval(self, node: KDTreeNode, q: PointLike) -> tuple[float, float]:
        """The scaled-distance interval ``[xmin, xmax]`` of a node.

        Derived from the min/max distance between ``q`` and the node's
        bounding rectangle, in the kernel's ``x`` units (``gamma * d**2``
        for squared-distance kernels, ``gamma * d`` otherwise).
        """
        min_sq = node.rect.min_sq_dist(q)
        max_sq = node.rect.max_sq_dist(q)
        if self.kernel.uses_squared_distance:
            return self.gamma * min_sq, self.gamma * max_sq
        return self.gamma * math.sqrt(min_sq), self.gamma * math.sqrt(max_sq)

    def x_interval_batch(
        self, node: KDTreeNode, queries: FloatArray
    ) -> tuple[FloatArray, FloatArray]:
        """Vectorised :meth:`x_interval` for an ``(m, d)`` query batch."""
        xmin, xmax = node.rect.sq_dist_range_batch(tuple(queries.T))
        if not self.kernel.uses_squared_distance:
            np.sqrt(xmin, out=xmin)
            np.sqrt(xmax, out=xmax)
        xmin *= self.gamma
        xmax *= self.gamma
        return xmin, xmax

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(kernel={self.kernel.name!r}, "
            f"gamma={self.gamma!r}, weight={self.weight!r})"
        )


def make_bound_provider(
    name: str,
    kernel: KernelLike,
    gamma: float,
    weight: float = 1.0,
    **options: object,
) -> BoundProvider:
    """Factory mapping a provider name to an instance.

    Recognised names: ``"baseline"``, ``"linear"`` (KARL) and ``"quad"``
    (this paper; dispatches between the Gaussian O(d^2) bounds and the
    distance-kernel O(d) bounds automatically). Extra keyword ``options``
    go to the provider constructor (e.g. ``tangent`` for the Gaussian
    quadratic bounds' ablation knob).
    """
    from repro.core.bounds.baseline import BaselineBoundProvider
    from repro.core.bounds.linear import LinearBoundProvider
    from repro.core.bounds.quadratic import QuadraticBoundProvider
    from repro.core.bounds.quadratic_distance import DistanceQuadraticBoundProvider

    kernel = get_kernel(kernel)
    key = str(name).lower()
    if key == "baseline":
        return BaselineBoundProvider(kernel, gamma, weight, **options)
    if key == "linear":
        return LinearBoundProvider(kernel, gamma, weight, **options)
    if key == "quad":
        if kernel.uses_squared_distance:
            return QuadraticBoundProvider(kernel, gamma, weight, **options)
        return DistanceQuadraticBoundProvider(kernel, gamma, weight, **options)
    from repro.errors import UnknownNameError

    raise UnknownNameError(
        f"unknown bound provider {name!r}; expected 'baseline', 'linear' or 'quad'"
    )
