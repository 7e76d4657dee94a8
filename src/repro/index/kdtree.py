"""A kd-tree whose nodes carry the aggregates needed by bound functions.

This is the indexing framework of the paper's Section 3.2 (its Figure 3):
a balanced binary space partition built by median splits on the widest
dimension. Each node stores

* its minimum bounding rectangle (for the ``[xmin, xmax]`` distance
  interval used by every bound function), and
* the additive moment aggregates of :class:`~repro.core.aggregates.NodeAggregates`
  (for the O(d)/O(d^2) bound evaluation of KARL and QUAD).

Leaves additionally keep a contiguous slice of their points so the exact
per-leaf kernel sum is a single vectorised numpy expression.

The tree lives in a structure-of-arrays layout (:attr:`KDTree.arrays`,
described at :func:`build_arrays`): one array per node field, indexed by
the dense preorder ``node_id``, plus the leaves' points concatenated in
preorder. :func:`build_arrays` writes that layout directly, one tree
level at a time, and :func:`nodes_from_arrays` makes the node objects
the engines walk. :mod:`repro.index.shared` ships the same arrays to
worker processes and makes their nodes with the same routine.

Scikit-learn's εKDV also builds a kd-tree by default (the paper's footnote
6), so this one index serves every indexed method in the comparison.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.core.aggregates import NodeAggregates, segment_aggregates
from repro.errors import InvalidParameterError
from repro.index.rectangle import Rectangle
from repro.utils.validation import check_points

if TYPE_CHECKING:
    from repro._types import FloatArray, IntArray, PointLike

__all__ = ["KDTree", "KDTreeNode", "build_arrays", "nodes_from_arrays"]

#: Default leaf capacity; small enough for tight leaf rectangles, large
#: enough that vectorised exact evaluation amortises numpy call overhead.
DEFAULT_LEAF_SIZE = 64


class KDTreeNode:
    """One node of the kd-tree.

    Attributes
    ----------
    rect:
        The node's minimum bounding rectangle.
    agg:
        Moment aggregates of the points under the node.
    left, right:
        Child nodes, or ``None`` for a leaf.
    points:
        For leaves, the ``(m, d)`` array of member points (a read-only
        slice of the tree's ``leaf_points``); ``None`` for internal
        nodes.
    sq_norms:
        For leaves, the precomputed ``||p_i||^2`` of :attr:`points`.
    indices:
        For leaves, the original dataset row indices of :attr:`points`
        (lets consumers attach per-point payloads, e.g. regression
        labels); ``None`` for internal nodes.
    weights:
        For leaves of a weighted tree, the per-point weights aligned
        with :attr:`points`; ``None`` otherwise.
    depth:
        Root depth is zero.
    node_id:
        Dense preorder identifier, useful for tracing and tests.
    """

    __slots__ = (
        "rect",
        "agg",
        "left",
        "right",
        "points",
        "sq_norms",
        "indices",
        "weights",
        "depth",
        "node_id",
    )

    def __init__(
        self,
        rect: Rectangle,
        agg: NodeAggregates | None,
        depth: int,
        node_id: int,
    ) -> None:
        self.rect = rect
        self.agg = agg
        self.left: KDTreeNode | None = None
        self.right: KDTreeNode | None = None
        self.points: FloatArray | None = None
        self.sq_norms: FloatArray | None = None
        self.indices: IntArray | None = None
        self.weights: FloatArray | None = None
        self.depth = depth
        self.node_id = node_id

    @property
    def is_leaf(self) -> bool:
        """Whether this node has no children."""
        return self.left is None

    @property
    def size(self) -> int:
        """Number of points under the node."""
        return self.agg.n

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "internal"
        return f"KDTreeNode(id={self.node_id}, {kind}, n={self.size}, depth={self.depth})"


class KDTree:
    """Median-split kd-tree with per-node bound aggregates.

    Parameters
    ----------
    points:
        Array-like of shape ``(n, d)``.
    leaf_size:
        Maximum number of points per leaf (must be >= 1).
    weights:
        Optional non-negative per-point weights (weighted moments and
        weighted leaf sums throughout). Zero weights are allowed; a node
        holding only zero-weight points has zero moments and bounds.

    Attributes
    ----------
    arrays:
        The tree's read-only structure-of-arrays layout
        (:func:`build_arrays`); every node's rectangle and leaf payload
        are views into it.

    Notes
    -----
    The build splits every node at the median of its widest axis, all
    nodes of one depth at once (:func:`build_arrays`): ``O(n)`` numpy
    work per level, since a partition rather than a sort finds the
    medians, so ``O(n log n)`` in all. Each node's moments are summed
    from its own points about its own centroid (never merged from its
    children), so they keep full precision.
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
        self._adopt(build_arrays(points, weights, leaf_size))

    def _adopt(self, arrays: dict[str, np.ndarray]) -> None:
        """Freeze ``arrays`` and make the node graph over them."""
        for array in arrays.values():
            array.flags.writeable = False
        self.arrays = arrays
        self._nodes = nodes_from_arrays(arrays)
        self.root = self._nodes[0]

    @property
    def num_nodes(self) -> int:
        """Total number of nodes (internal + leaves)."""
        return len(self._nodes)

    @property
    def num_leaves(self) -> int:
        """Number of leaf nodes."""
        return int(np.count_nonzero(self.arrays["left"] < 0))

    def nodes(self) -> Iterator[KDTreeNode]:
        """Yield every node in preorder."""
        return iter(self._nodes)

    def leaves(self) -> Iterator[KDTreeNode]:
        """Yield every leaf node in preorder."""
        return (node for node in self._nodes if node.is_leaf)

    def height(self) -> int:
        """Maximum node depth."""
        return int(self.arrays["depth"].max())

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.n_points}, dims={self.dims}, "
            f"leaf_size={self.leaf_size}, nodes={self.num_nodes})"
        )


def build_arrays(
    points: FloatArray, weights: FloatArray | None, leaf_size: int
) -> dict[str, np.ndarray]:
    """Build the kd-tree over ``points`` straight into its array layout.

    A node holding more than ``leaf_size`` points and a non-zero extent
    splits along its widest axis (the first, on ties): its left child
    gets the ``floor(m / 2)`` smallest coordinates, equal coordinates in
    row order, and both children keep their members in row order. All
    nodes of one depth are built at once: segmented min/max for the
    rectangles, :func:`~repro.core.aggregates.segment_aggregates` for
    the moments and :func:`_median_order` for the splits.

    Returns, per node and indexed by the dense preorder ``node_id``:
    ``left`` and ``right`` (child ids, -1 for leaves), ``depth``,
    ``rect_low`` and ``rect_high`` ``(nodes, d)``, the aggregate fields
    of ``segment_aggregates`` and ``leaf_start``/``leaf_count`` (-1 and
    0 for internal nodes); and, per point in leaf preorder,
    ``leaf_points``, ``leaf_sq_norms``, ``leaf_indices`` (dataset rows)
    and, when weighted, ``leaf_weights``.
    """
    n, dims = points.shape
    positions = np.arange(n)
    leaf_order = np.empty(n, dtype=np.int64)
    leaf_columns = np.empty((dims, n), dtype=np.float64)
    leaf_weights = None if weights is None else np.empty(n, dtype=np.float64)
    # This depth's members, node after node (each node's in row order):
    rows = positions  # their dataset rows,
    columns = np.ascontiguousarray(points.T, dtype=np.float64)  # coordinates by axis,
    member_weights = weights  # and weights.
    counts = np.array([n], dtype=np.int64)  # members per node
    starts = np.array([0], dtype=np.int64)  # each node's first slot in leaf order
    levels: list[tuple[dict[str, np.ndarray], np.ndarray]] = []
    while True:
        firsts = np.cumsum(counts) - counts
        fields = segment_aggregates(columns, member_weights, counts)
        low = np.minimum.reduceat(columns, firsts, axis=1).T
        high = np.maximum.reduceat(columns, firsts, axis=1).T
        extent = high - low
        # Zero extent means identical points, which no split separates.
        split = (counts > leaf_size) & (extent.max(axis=1) > 0.0)
        fields.update(
            rect_low=low,
            rect_high=high,
            leaf_start=np.where(split, -1, starts),
            leaf_count=np.where(split, 0, counts),
        )
        levels.append((fields, split))
        if split.all():
            members = positions[: rows.shape[0]]
        else:
            stays = np.repeat(split, counts)
            leaving = ~stays
            slots = (np.repeat(starts - firsts, counts) + positions[: rows.shape[0]])[leaving]
            leaf_order[slots] = rows[leaving]
            for axis in range(dims):
                leaf_columns[axis][slots] = columns[axis][leaving]
            if leaf_weights is not None:
                leaf_weights[slots] = member_weights[leaving]
            members = np.flatnonzero(stays)
        parents = np.flatnonzero(split)
        if not parents.shape[0]:
            break
        sizes = counts[parents]
        axes = np.repeat(extent[parents].argmax(axis=1), sizes)
        order = members[_median_order(columns[axes, members], sizes)]
        rows = rows[order]
        columns = np.take(columns, order, axis=1)
        if member_weights is not None:
            member_weights = member_weights[order]
        half = sizes // 2
        counts = np.column_stack([half, sizes - half]).reshape(-1)
        starts = np.column_stack([starts[parents], starts[parents] + half]).reshape(-1)
    arrays = _preorder(levels)
    leaf_points = np.ascontiguousarray(leaf_columns.T, dtype=np.float64)
    arrays["leaf_points"] = leaf_points
    arrays["leaf_sq_norms"] = np.einsum("ij,ij->i", leaf_points, leaf_points)
    arrays["leaf_indices"] = leaf_order
    if leaf_weights is not None:
        arrays["leaf_weights"] = leaf_weights
    return arrays


def _median_order(values: FloatArray, sizes: IntArray) -> IntArray:
    """The order that puts each node's ``floor(size / 2)`` smallest values first.

    ``values`` holds, node after node, the ``sizes[k]`` split-axis
    coordinates of node ``k``'s members in row order. Equal values go
    left in that order until the left half is full, and both halves
    keep it.
    """
    count = sizes.shape[0]
    half = sizes // 2
    firsts = np.cumsum(sizes) - sizes
    offset = np.arange(values.shape[0]) - np.repeat(firsts, sizes)
    # Each node's half-th smallest value, by one row-wise partition of a
    # table padded with +inf. The nodes of one depth differ in size by
    # at most one, so the table has few pads and at most two distinct
    # halves to place (np.unique would import numpy.ma for them).
    table = np.full((count, int(sizes.max())), np.inf, dtype=np.float64)
    table[np.repeat(np.arange(count), sizes), offset] = values
    table.partition(np.arange(half.min(), half.max() + 1), axis=1)
    median = np.repeat(table[np.arange(count), half], sizes)
    goes_left = values < median
    tied = values == median
    if np.count_nonzero(tied) > count:
        # Some median is repeated: its copies fill the left half in order.
        room = np.repeat(half - np.add.reduceat(goes_left, firsts), sizes)
        ahead = np.cumsum(tied) - tied
        ahead -= np.repeat(ahead[firsts], sizes)
        goes_left |= tied & (ahead < room)
    # Lefts and rights each stay in order, so node k's left half is the
    # k-th run of lefts.
    left_slot = offset < np.repeat(half, sizes)
    order = np.empty(values.shape[0], dtype=np.int64)
    order[left_slot] = np.flatnonzero(goes_left)
    order[~left_slot] = np.flatnonzero(~goes_left)
    return order


def _preorder(levels: list[tuple[dict[str, np.ndarray], np.ndarray]]) -> dict[str, np.ndarray]:
    """Lay the per-depth node fields of :func:`build_arrays` out in preorder.

    ``levels[k]`` holds depth ``k``'s fields and split flags, nodes
    left to right; the children of its ``i``-th split node are nodes
    ``2i`` and ``2i + 1`` of depth ``k + 1``.
    """
    # A subtree spans one node plus its children's spans; a left child
    # directly follows its parent, a right child follows the left's span.
    spans: list[np.ndarray] = [np.ones(0, dtype=np.int64)] * len(levels)
    for depth in reversed(range(len(levels))):
        split = levels[depth][1]
        span = np.ones(split.shape[0], dtype=np.int64)
        if depth + 1 < len(levels):
            span[split] += spans[depth + 1].reshape(-1, 2).sum(axis=1)
        spans[depth] = span
    ids = [np.zeros(1, dtype=np.int64)]
    for depth in range(len(levels) - 1):
        lefts = ids[depth][levels[depth][1]] + 1
        rights = lefts + spans[depth + 1][0::2]
        ids.append(np.column_stack([lefts, rights]).reshape(-1))
    node_ids = np.concatenate(ids)
    num_nodes = node_ids.shape[0]
    arrays: dict[str, np.ndarray] = {
        "left": np.full(num_nodes, -1, dtype=np.int64),
        "right": np.full(num_nodes, -1, dtype=np.int64),
        "depth": np.empty(num_nodes, dtype=np.int64),
    }
    for depth, level_ids in enumerate(ids):
        arrays["depth"][level_ids] = depth
        if depth + 1 < len(ids):
            parents = level_ids[levels[depth][1]]
            arrays["left"][parents] = ids[depth + 1][0::2]
            arrays["right"][parents] = ids[depth + 1][1::2]
    for name in levels[0][0]:
        values = np.concatenate([fields[name] for fields, __ in levels])
        column = np.empty_like(values)
        column[node_ids] = values
        arrays[name] = column
    return arrays


def nodes_from_arrays(arrays: dict[str, np.ndarray]) -> list[KDTreeNode]:
    """The nodes of a tree's array layout (:func:`build_arrays`), in preorder.

    The one routine that makes nodes, for built and for attached trees
    alike, so both refine bit for bit the same. Rectangles and leaf
    payloads are views into ``arrays`` (which the caller keeps
    read-only); aggregates are plain-float copies. Nothing is checked:
    the layout is trusted.
    """
    left = arrays["left"].tolist()
    right = arrays["right"].tolist()
    depth = arrays["depth"].tolist()
    rect_low = arrays["rect_low"]
    rect_high = arrays["rect_high"]
    low_rows = rect_low.tolist()
    high_rows = rect_high.tolist()
    n = arrays["agg_n"].tolist()
    total_weight = arrays["agg_tw"].tolist()
    center = arrays["agg_center"].tolist()
    a = arrays["agg_a"].tolist()
    b = arrays["agg_b"].tolist()
    v = arrays["agg_v"].tolist()
    h = arrays["agg_h"].tolist()
    c = arrays["agg_c"].tolist()
    leaf_start = arrays["leaf_start"].tolist()
    leaf_count = arrays["leaf_count"].tolist()
    points = arrays["leaf_points"]
    sq_norms = arrays["leaf_sq_norms"]
    indices = arrays["leaf_indices"]
    weights = arrays.get("leaf_weights")
    dims = rect_low.shape[1]
    nodes: list[KDTreeNode] = []
    for i in range(len(left)):
        rect = Rectangle.trusted(rect_low[i], rect_high[i], low_rows[i], high_rows[i])
        agg = NodeAggregates(
            n[i], center[i], a[i], b[i], v[i], h[i], c[i], dims, total_weight[i]
        )
        node = KDTreeNode(rect, agg, depth[i], i)
        if left[i] < 0:
            window = slice(leaf_start[i], leaf_start[i] + leaf_count[i])
            node.points = points[window]
            node.sq_norms = sq_norms[window]
            node.indices = indices[window]
            if weights is not None:
                node.weights = weights[window]
        nodes.append(node)
    for node, left_id, right_id in zip(nodes, left, right):
        if left_id >= 0:
            node.left = nodes[left_id]
            node.right = nodes[right_id]
    return nodes
