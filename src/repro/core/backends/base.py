"""The compute seam: where every batched bound evaluation goes through.

A :class:`ComputeBackend` evaluates the *batched* numerical kernels of
the refinement loop — per-node bound evaluation (``node_bounds_batch``,
and ``node_bounds_stacked`` for many nodes in one call) and exact leaf
sums (``leaf_exact_batch``) — for a given
:class:`~repro.core.bounds.base.BoundProvider`, by delegating to the
provider's numpy methods. The refinement engines route every batched
evaluation through this one class instead of calling the provider
directly, so it is the single place where:

* invariant checking is selected: the engine picks the ``checked_*``
  methods once per batch when ``REPRO_CHECK_INVARIANTS=1``, and those
  delegate to the provider's contract-validated variants;
* the benchmark's traced run counts and times bound evaluations, by
  wrapping ``ComputeBackend.node_bounds_batch`` and
  ``ComputeBackend.leaf_exact_batch`` on the class.

The class holds no state: one instance serves every engine and every
provider, and all per-dataset state stays on the provider and the tree
nodes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from typing import Sequence

    from repro._types import FloatArray
    from repro.core.bounds.base import BoundProvider
    from repro.index.kdtree import KDTree, KDTreeNode

__all__ = ["ComputeBackend"]


class ComputeBackend:
    """Batched bound/leaf evaluation for a bound provider."""

    def node_bounds_batch(
        self,
        provider: BoundProvider,
        node: KDTreeNode,
        queries: FloatArray,
        queries_sq: FloatArray,
    ) -> tuple[FloatArray, FloatArray]:
        """``(LB[m], UB[m])`` for one node over an ``(m, d)`` query batch."""
        return provider.node_bounds_batch(node, queries, queries_sq)

    def node_bounds_stacked(
        self,
        provider: BoundProvider,
        tree: KDTree,
        nodes: Sequence[KDTreeNode],
        queries: FloatArray,
        queries_sq: FloatArray,
    ) -> tuple[FloatArray, FloatArray]:
        """``(LB[J, m], UB[J, m])`` for ``J`` nodes of ``tree`` in one call."""
        return provider.node_bounds_stacked(tree, nodes, queries, queries_sq)

    def leaf_exact_batch(
        self,
        provider: BoundProvider,
        node: KDTreeNode,
        queries: FloatArray,
        queries_sq: FloatArray,
    ) -> FloatArray:
        """Exact weighted kernel sums of a leaf for an ``(m, d)`` batch."""
        return provider.leaf_exact_batch(node, queries, queries_sq)

    def checked_node_bounds_batch(
        self,
        provider: BoundProvider,
        node: KDTreeNode,
        queries: FloatArray,
        queries_sq: FloatArray,
    ) -> tuple[FloatArray, FloatArray]:
        """:meth:`node_bounds_batch` with every pair contract-validated."""
        return provider.checked_node_bounds_batch(node, queries, queries_sq)

    def checked_node_bounds_stacked(
        self,
        provider: BoundProvider,
        tree: KDTree,
        nodes: Sequence[KDTreeNode],
        queries: FloatArray,
        queries_sq: FloatArray,
    ) -> tuple[FloatArray, FloatArray]:
        """:meth:`node_bounds_stacked` with every pair contract-validated."""
        return provider.checked_node_bounds_stacked(tree, nodes, queries, queries_sq)

    def checked_leaf_exact_batch(
        self,
        provider: BoundProvider,
        node: KDTreeNode,
        queries: FloatArray,
        queries_sq: FloatArray,
    ) -> FloatArray:
        """:meth:`leaf_exact_batch` with the kernel-value contract validated."""
        return provider.checked_leaf_exact_batch(node, queries, queries_sq)
