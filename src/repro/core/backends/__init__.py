"""The compute seam of the refinement engines.

The batched engine evaluates node bounds and leaf sums through one
:class:`~repro.core.backends.base.ComputeBackend`, which delegates to
the bound provider's numpy methods.
"""

from __future__ import annotations

from repro.core.backends.base import ComputeBackend

__all__ = ["ComputeBackend"]
