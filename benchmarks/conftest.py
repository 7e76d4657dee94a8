"""Shared fixtures for the benchmark harness.

Each ``bench_figNN_*`` file regenerates the timing comparison of one
paper figure as parameterised pytest-benchmark cases. Renderers (index
builds included) are cached per configuration at session scope, so the
benchmarks time the *online* stage only — matching how the paper
accounts cost (Section 7.1: indexes are built offline).

Sizes default to a laptop-friendly preset; set ``REPRO_BENCH_SCALE``
(smoke/small/medium/large) to run closer to paper scale.
"""

from __future__ import annotations

import os

import pytest

from repro.data.synthetic import load_dataset
from repro.experiments.common import get_scale
from repro.visual.executors import close_render_pools
from repro.visual.kdv import KDVRenderer

BENCH_SCALE = get_scale(os.environ.get("REPRO_BENCH_SCALE", "small"))
#: Standard workload of the benchmark harness (paper: 270k-7M points at
#: 1280x960; scaled down for pure Python). Method orderings sharpen as
#: the scale grows — REPRO_BENCH_SCALE=medium reproduces the paper's
#: shapes more clearly at a few minutes' cost.
BENCH_N = BENCH_SCALE.n_points
BENCH_RESOLUTION = BENCH_SCALE.resolution
BENCH_LEAF_SIZE = 256

_renderers = {}


def get_renderer(dataset, kernel="gaussian", n=None, resolution=None, leaf_size=BENCH_LEAF_SIZE):
    """Session-cached renderer; building it (and its indexes) is offline."""
    n = BENCH_N if n is None else n
    resolution = BENCH_RESOLUTION if resolution is None else resolution
    key = (dataset, kernel, n, tuple(resolution), leaf_size)
    renderer = _renderers.get(key)
    if renderer is None:
        points = load_dataset(dataset, n=n, seed=0)
        renderer = KDVRenderer(
            points, resolution=resolution, kernel=kernel, leaf_size=leaf_size
        )
        _renderers[key] = renderer
    return renderer


def prepare(renderer, method):
    """Force the offline stage (index build / sampling) outside timing."""
    fitted = renderer.get_method(method)
    if method == "zorder":
        for eps in (0.01, 0.05):
            fitted.sample_for(eps)
    return fitted


@pytest.fixture(scope="session")
def bench_scale():
    return BENCH_SCALE


@pytest.fixture(scope="session", autouse=True)
def _close_process_pools():
    """Release process pools / shared-memory segments the benches spun up."""
    yield
    close_render_pools()
