"""Engine batching — scalar per-pixel loop versus batched frontier.

Not a paper figure: this is the standing regression benchmark for the
:class:`~repro.core.batch_engine.BatchRefinementEngine`. Same tree, same
bounds, same ``(1 ± eps)`` contract — only the refinement schedule
differs — so any timing gap is pure engine overhead. The batched path
should stay several times faster than scalar; ``tools/bench_report.py``
records the canonical numbers in ``BENCH_engine.json``.

The parallel-scaling group sweeps the worker count over the same tiled
workload (one worker renders in-process, two or more on the process
pool). Worker counts change only *where* each tile batch runs, never
what it computes, so every parametrisation asserts the image equals the
single-worker render bit for bit.
"""

import numpy as np
import pytest

from benchmarks.conftest import get_renderer, prepare
from repro.visual.request import RenderOptions, RenderRequest

DATASETS = ("crime", "home")
EPS = 0.01
MODES = ("scalar", "tiled", "tiled-workers")
SCALING_WORKERS = (1, 2, 4, 8)


def _options(mode):
    if mode == "scalar":
        return RenderOptions()
    if mode == "tiled":
        return RenderOptions(tile_size=64)
    return RenderOptions(tile_size=64, workers=4)


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("mode", MODES)
def test_eps_engine_batching(benchmark, dataset, mode):
    renderer = get_renderer(dataset)
    prepare(renderer, "quad")
    benchmark.group = f"engine batching eps {dataset} eps={EPS}"
    request = RenderRequest.for_eps(EPS, "quad", options=_options(mode))
    image = benchmark.pedantic(
        renderer.render, args=(request,), rounds=2, iterations=1
    )
    assert image.shape == (renderer.grid.height, renderer.grid.width)
    assert np.all(np.isfinite(image)) and np.all(image >= 0.0)


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("mode", MODES)
def test_tau_engine_batching(benchmark, dataset, mode):
    renderer = get_renderer(dataset)
    prepare(renderer, "quad")
    mu, sigma = renderer.density_stats()
    tau = max(mu + 0.1 * sigma, np.finfo(np.float64).tiny)
    benchmark.group = f"engine batching tau {dataset}"
    request = RenderRequest.for_tau(tau, "quad", options=_options(mode))
    mask = benchmark.pedantic(
        renderer.render, args=(request,), rounds=2, iterations=1
    )
    # The threshold decision is schedule-independent: every mode must
    # reproduce the exact-density mask pixel for pixel.
    assert np.array_equal(mask, renderer.render_exact() >= tau)


@pytest.mark.parametrize("workers", SCALING_WORKERS)
def test_eps_parallel_scaling(benchmark, workers):
    renderer = get_renderer("crime")
    prepare(renderer, "quad")
    benchmark.group = f"parallel scaling eps crime eps={EPS}"
    options = RenderOptions(tile_size=64, workers=workers)
    request = RenderRequest.for_eps(EPS, "quad", options=options)
    image = benchmark.pedantic(
        renderer.render, args=(request,), rounds=2, iterations=1
    )
    # Worker counts move tile batches between the parent and pool
    # processes without changing their contents, so the parallel image
    # must equal the single-worker one bit for bit.
    single = RenderOptions(tile_size=64, workers=1)
    reference = renderer.render(RenderRequest.for_eps(EPS, "quad", options=single))
    assert np.array_equal(image, reference)
