"""Reference backend: pure delegation to the provider's numpy methods.

This backend is deliberately a zero-logic pass-through. Every call lands
on exactly the provider method the engines called before the backend
abstraction existed, so the default configuration is **bit-identical**
to the historical behaviour — the property the parity tests in
``tests/test_properties.py`` pin. Any numerical change must therefore
happen in the providers themselves, never here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.backends.base import ComputeBackend

if TYPE_CHECKING:
    from repro._types import FloatArray
    from repro.core.bounds.base import BoundProvider
    from repro.index.kdtree import KDTreeNode

__all__ = ["NumpyBackend"]


class NumpyBackend(ComputeBackend):
    """Vectorised numpy evaluation — always available, GIL-bound."""

    name = "numpy"

    @classmethod
    def available(cls) -> bool:
        return True

    def node_bounds_batch(
        self,
        provider: BoundProvider,
        node: KDTreeNode,
        queries: FloatArray,
        queries_sq: FloatArray,
    ) -> tuple[FloatArray, FloatArray]:
        # lint: allow-backend-dispatch -- this *is* the dispatch target.
        return provider.node_bounds_batch(node, queries, queries_sq)

    def leaf_exact_batch(
        self,
        provider: BoundProvider,
        node: KDTreeNode,
        queries: FloatArray,
        queries_sq: FloatArray,
    ) -> FloatArray:
        # lint: allow-backend-dispatch -- this *is* the dispatch target.
        return provider.leaf_exact_batch(node, queries, queries_sq)

    def checked_node_bounds_batch(
        self,
        provider: BoundProvider,
        node: KDTreeNode,
        queries: FloatArray,
        queries_sq: FloatArray,
    ) -> tuple[FloatArray, FloatArray]:
        # Delegate to the provider's own checked variant (not the base
        # class re-validation) so error messages keep naming the provider
        # exactly as they did before backends existed.
        # lint: allow-backend-dispatch -- this *is* the dispatch target.
        return provider.checked_node_bounds_batch(node, queries, queries_sq)

    def checked_leaf_exact_batch(
        self,
        provider: BoundProvider,
        node: KDTreeNode,
        queries: FloatArray,
        queries_sq: FloatArray,
    ) -> FloatArray:
        # lint: allow-backend-dispatch -- this *is* the dispatch target.
        return provider.checked_leaf_exact_batch(node, queries, queries_sq)
