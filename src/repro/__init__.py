"""QUAD: Quadratic-Bound-based Kernel Density Visualization — reproduction.

A from-scratch Python implementation of the SIGMOD 2020 paper by Chan,
Cheng and Yiu: fast approximate (εKDV) and thresholded (τKDV) kernel
density visualization via quadratic bounds on kernel aggregation
functions, together with every compared baseline (EXACT, Scikit-like,
Z-order sampling, aKDE, tKDC, KARL) and the progressive visualization
framework.

Public surface
--------------
``__all__`` below is the blessed API: the one-call :func:`render`
helper, the :class:`KDVRenderer` / :class:`RenderRequest` /
:class:`RenderOptions` rendering stack, the :class:`TileService` /
:class:`ServiceConfig` serving stack (with its nested config groups
and dataset registry), and the data/method/kernel registries. Anything
not re-exported here — and any ``repro.compat`` shim — is internal and
may change without notice. Execution knobs live on ``RenderOptions`` and
service knobs on ``ServiceConfig``'s groups (see ``docs/api.md``).

Quickstart
----------
>>> from repro import RenderRequest, load_dataset, render
>>> points = load_dataset("crime", n=5000)
>>> heatmap = render(points, RenderRequest.for_eps(0.01), resolution=(64, 48))
"""

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.compat import QuadKernelDensity  # lint: allow-shim-import -- the shim's one blessed re-export
from repro.core.exact import exact_density
from repro.core.kde import KernelDensity
from repro.core.kernels import available_kernels, get_kernel
from repro.data.bandwidth import scott_gamma
from repro.data.synthetic import available_datasets, load_dataset
from repro.methods.registry import available_methods, capability_table, create_method
from repro.ml.kernel_classifier import KernelClassifier
from repro.ml.kernel_regression import KernelRegressor
from repro.serve import (
    CacheConfig,
    DatasetRegistry,
    RenderConfig,
    ResilienceConfig,
    ServiceConfig,
    ShardingConfig,
    TileServer,
    TileService,
    run_server,
)
from repro.visual.grid import PixelGrid
from repro.visual.kdv import KDVRenderer
from repro.visual.progressive import ProgressiveRenderer
from repro.visual.request import RenderOptions, RenderRequest
from repro.visual.streaming import StreamingKDV

if TYPE_CHECKING:
    from repro._types import PointLike

__version__ = "7.2.0"


def render(
    points: "PointLike", request: RenderRequest, **renderer_kwargs: Any
) -> "np.ndarray":
    """Render one KDV image in a single call.

    Builds a :class:`KDVRenderer` over ``points`` (``renderer_kwargs``
    pass through: ``resolution``, ``kernel``, ``gamma``, ``grid``, ...)
    and renders ``request`` through the unified
    :meth:`KDVRenderer.render` entrypoint. For repeated renders against
    the same points, build the renderer once instead — it amortises the
    fitted index across requests.
    """
    renderer = KDVRenderer(points, **renderer_kwargs)
    return np.asarray(renderer.render(request))


__all__ = [
    # one-call rendering + the rendering stack
    "render",
    "KDVRenderer",
    "RenderRequest",
    "RenderOptions",
    "PixelGrid",
    "ProgressiveRenderer",
    "StreamingKDV",
    # density estimation + ML heads
    "KernelDensity",
    "KernelRegressor",
    "KernelClassifier",
    "QuadKernelDensity",
    "exact_density",
    "scott_gamma",
    # serving stack
    "TileService",
    "TileServer",
    "ServiceConfig",
    "RenderConfig",
    "CacheConfig",
    "ResilienceConfig",
    "ShardingConfig",
    "DatasetRegistry",
    "run_server",
    # registries
    "get_kernel",
    "available_kernels",
    "create_method",
    "available_methods",
    "capability_table",
    "load_dataset",
    "available_datasets",
    "__version__",
]
