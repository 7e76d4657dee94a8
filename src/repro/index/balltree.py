"""A ball-tree alternative to the kd-tree (index ablation).

The paper's framework needs only two things from an index node: a
*bounding region* answering min/max squared distance to a query, and the
moment aggregates. The kd-tree bounds regions by axis-aligned boxes;
this ball tree bounds them by enclosing balls, whose distance interval
is one sqrt per node:

.. math::

    d_{min} = \\max(\\lVert q - c \\rVert - r, 0), \\qquad
    d_{max} = \\lVert q - c \\rVert + r

Balls adapt better to diagonal/elongated clusters, boxes to axis-aligned
ones; ``benchmarks/bench_ablation_index.py`` measures the trade-off.
Nodes reuse :class:`~repro.index.kdtree.KDTreeNode` — the bound
providers are duck-typed over the ``rect`` attribute's
``min_sq_dist``/``max_sq_dist``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.core.aggregates import NodeAggregates
from repro.errors import InvalidParameterError
from repro.index.kdtree import DEFAULT_LEAF_SIZE, KDTreeNode
from repro.utils.validation import check_points

if TYPE_CHECKING:
    from repro._types import FloatArray, IntArray, PointLike

__all__ = ["Ball", "BallTree"]


class Ball:
    """An enclosing ball ``{p : dist(p, center) <= radius}``.

    Implements the same distance interface as
    :class:`~repro.index.rectangle.Rectangle`, so every bound provider
    works unchanged on ball-tree nodes.
    """

    __slots__ = ("center", "radius", "_center_list", "dims")

    def __init__(self, center: PointLike, radius: float) -> None:
        center = np.asarray(center, dtype=np.float64).reshape(-1).copy()
        radius = float(radius)
        if radius < 0.0:
            raise InvalidParameterError(f"radius must be >= 0, got {radius}")
        self.center = center
        self.radius = radius
        self._center_list = center.tolist()
        self.dims = center.shape[0]

    @classmethod
    def of_points(cls, points: PointLike) -> Ball:
        """The centroid-centred enclosing ball of an ``(n, d)`` array."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] < 1:
            raise InvalidParameterError("points must be a non-empty (n, d) array")
        center = points.mean(axis=0)
        radius = float(np.sqrt(((points - center) ** 2).sum(axis=1).max()))
        return cls(center, radius)

    def contains(self, point: PointLike) -> bool:
        """Whether ``point`` lies inside (or on the surface of) the ball."""
        point = np.asarray(point, dtype=np.float64).reshape(-1)
        return float(((point - self.center) ** 2).sum()) <= self.radius**2 * (1 + 1e-12)

    def _center_dist(self, query: Sequence[float]) -> float:
        center = self._center_list
        total = 0.0
        for j in range(self.dims):
            delta = float(query[j]) - center[j]
            total += delta * delta
        return math.sqrt(total)

    def min_sq_dist(self, query: Sequence[float]) -> float:
        """Minimum squared distance from ``query`` to the ball."""
        gap = self._center_dist(query) - self.radius
        if gap <= 0.0:
            return 0.0
        return gap * gap

    def max_sq_dist(self, query: Sequence[float]) -> float:
        """Maximum squared distance from ``query`` to the ball."""
        reach = self._center_dist(query) + self.radius
        return reach * reach

    def sq_dist_range_batch(
        self, columns: Sequence[FloatArray]
    ) -> tuple[FloatArray, FloatArray]:
        """Vectorised ``(min_sq_dist, max_sq_dist)`` over a query batch.

        ``columns[j]`` holds coordinate ``j`` of every query (for an
        ``(m, d)`` batch, ``tuple(queries.T)``); each is read once.
        """
        center = self._center_list
        dist = columns[0] - center[0]
        dist *= dist
        for j in range(1, self.dims):
            delta = columns[j] - center[j]
            delta *= delta
            dist += delta
        np.sqrt(dist, out=dist)
        reach = dist + self.radius
        reach *= reach
        dist -= self.radius
        np.maximum(dist, 0.0, out=dist)
        dist *= dist
        return dist, reach

    def distance_interval(self, query: Sequence[float]) -> tuple[float, float]:
        """``(min_dist, max_dist)`` — plain (non-squared) distances."""
        center_dist = self._center_dist(query)
        return max(center_dist - self.radius, 0.0), center_dist + self.radius

    def __repr__(self) -> str:
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"


class BallTree:
    """Median-split ball tree with the same aggregates as the kd-tree.

    Splits on the widest *extent* dimension (cheap and adequate); each
    node's bounding region is the enclosing ball of its points. The node
    objects are :class:`~repro.index.kdtree.KDTreeNode` with a
    :class:`Ball` in the ``rect`` slot.
    """

    def __init__(
        self,
        points: PointLike,
        leaf_size: int = DEFAULT_LEAF_SIZE,
        weights: PointLike | None = None,
    ) -> None:
        points = check_points(points)
        leaf_size = int(leaf_size)
        if leaf_size < 1:
            raise InvalidParameterError(f"leaf_size must be >= 1, got {leaf_size}")
        self.points = points
        self.n_points = points.shape[0]
        self.dims = points.shape[1]
        self.leaf_size = leaf_size
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64).reshape(-1)
            if weights.shape[0] != self.n_points:
                raise InvalidParameterError(
                    f"weights length {weights.shape[0]} != points {self.n_points}"
                )
            if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
                raise InvalidParameterError("weights must be finite and >= 0")
        self.weights = weights
        self._node_count = 0
        self._leaf_count = 0
        order = np.arange(self.n_points)
        self.root = self._build(order, depth=0)

    def _next_id(self) -> int:
        node_id = self._node_count
        self._node_count += 1
        return node_id

    def _build(self, order: IntArray, depth: int) -> KDTreeNode:
        member_points = self.points[order]
        member_weights = None if self.weights is None else self.weights[order]
        ball = Ball.of_points(member_points)
        node = KDTreeNode(rect=ball, agg=None, depth=depth, node_id=self._next_id())
        extent = member_points.max(axis=0) - member_points.min(axis=0)
        # lint: allow-float-eq -- exact sentinel: zero extent means all
        # coordinates are identical, so no split can make progress.
        if order.shape[0] <= self.leaf_size or float(extent.max()) == 0.0:
            node.agg = NodeAggregates.from_points(member_points, member_weights)
            node.points = np.ascontiguousarray(member_points, dtype=np.float64)
            node.sq_norms = np.einsum("ij,ij->i", node.points, node.points)
            node.indices = order.copy()
            node.weights = member_weights
            self._leaf_count += 1
            return node
        axis = int(np.argmax(extent))
        values = member_points[:, axis]
        half = order.shape[0] // 2
        split_order = np.argpartition(values, half)
        node.left = self._build(order[split_order[:half]], depth + 1)
        node.right = self._build(order[split_order[half:]], depth + 1)
        node.agg = NodeAggregates.from_points(member_points, member_weights)
        return node

    @property
    def num_nodes(self) -> int:
        """Total number of nodes (internal + leaves)."""
        return self._node_count

    @property
    def num_leaves(self) -> int:
        """Number of leaf nodes."""
        return self._leaf_count

    def nodes(self) -> Iterator[KDTreeNode]:
        """Yield every node in preorder."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.append(node.right)
                stack.append(node.left)

    def leaves(self) -> Iterator[KDTreeNode]:
        """Yield every leaf node in preorder."""
        for node in self.nodes():
            if node.is_leaf:
                yield node

    def __repr__(self) -> str:
        return (
            f"BallTree(n={self.n_points}, dims={self.dims}, "
            f"leaf_size={self.leaf_size}, nodes={self.num_nodes})"
        )
