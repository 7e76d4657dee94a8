"""QUAD — quadratic-bound KDV (this paper).

The proposed method: the shared kd-tree refinement framework with the
tightest bounds in the comparison —

* Gaussian kernel: full quadratic bounds over ``sum dist^2`` and
  ``sum dist^4`` (O(d^2) per node, Section 4);
* triangular / cosine / exponential kernels: ``a x^2 + c`` bounds over
  ``sum dist^2`` (O(d) per node, Section 5);
* Epanechnikov / quartic (extensions): exact O(d)/O(d^2) aggregation.

Supports both εKDV and τKDV.
"""

from __future__ import annotations

from repro.methods.base import IndexedMethod

__all__ = ["QUADMethod"]


class QUADMethod(IndexedMethod):
    """kd-tree ε/τKDV with QUAD's quadratic bounds.

    Parameters
    ----------
    leaf_size, ordering:
        As in :class:`~repro.methods.base.IndexedMethod`.
    tangent:
        Tangent-point choice of the Gaussian lower bound (``"mean"`` is
        the paper's ``t*``; ``"midpoint"`` is the ablation alternative).
        Ignored for the distance kernels.
    """

    name = "quad"
    provider_name = "quad"
    supports_eps = True
    supports_tau = True
    supported_kernels = frozenset(
        {"gaussian", "triangular", "cosine", "exponential", "epanechnikov", "quartic"}
    )

    def __init__(
        self, leaf_size=None, ordering="gap", tangent="mean", engine="scalar",
    ):
        from repro.index.kdtree import DEFAULT_LEAF_SIZE

        super().__init__(
            leaf_size=DEFAULT_LEAF_SIZE if leaf_size is None else leaf_size,
            ordering=ordering,
            engine=engine,
        )
        self.tangent = tangent

    def _fit_impl(self):
        if self.kernel.uses_squared_distance:
            self.provider_options = {"tangent": self.tangent}
        else:
            self.provider_options = {}
        super()._fit_impl()
