"""End-to-end property-based tests (hypothesis) on the core guarantees.

These complement the per-module property tests: random datasets, random
bandwidths, random queries — the εKDV relative-error contract, τKDV
classification exactness and the bound sandwich must hold for every
method/kernel combination the registry claims to support.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.bounds import make_bound_provider
from repro.core.exact import exact_density
from repro.core.kde import KernelDensity
from repro.index.kdtree import KDTree
from repro.methods.registry import create_method
from repro.visual.executors import close_render_pools

dataset_strategy = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**16),
        "n": st.integers(20, 120),
        "cluster_scale": st.floats(0.05, 2.0),
        "offset": st.floats(-100.0, 100.0),
    }
)


def make_points(params):
    rng = np.random.default_rng(params["seed"])
    centers = rng.uniform(-3, 3, size=(4, 2))
    assignments = rng.integers(0, 4, size=params["n"])
    points = centers[assignments] + rng.normal(size=(params["n"], 2)) * params[
        "cluster_scale"
    ]
    return points + params["offset"]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    params=dataset_strategy,
    eps=st.sampled_from([0.01, 0.05, 0.2]),
    method_name=st.sampled_from(["quad", "karl", "akde", "scikit"]),
)
def test_eps_contract_property(params, eps, method_name):
    """(1 - eps) F <= R <= (1 + eps) F for deterministic eps methods."""
    points = make_points(params)
    kde = KernelDensity(method=method_name).fit(points)
    rng = np.random.default_rng(params["seed"] + 1)
    queries = points[rng.choice(len(points), size=5, replace=False)]
    values = kde.density_eps(queries, eps=eps)
    truths = kde.density(queries)
    assert np.all(np.abs(values - truths) <= eps * truths + 1e-15)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    params=dataset_strategy,
    method_name=st.sampled_from(["quad", "karl", "tkdc"]),
    quantile=st.floats(0.1, 0.9),
)
def test_tau_classification_property(params, method_name, quantile):
    """τKDV answers must equal the exact comparison (away from ties)."""
    points = make_points(params)
    kde = KernelDensity(method=method_name).fit(points)
    rng = np.random.default_rng(params["seed"] + 2)
    queries = points[rng.choice(len(points), size=6, replace=False)]
    truths = kde.density(queries)
    tau = float(np.quantile(truths, quantile)) * (1 + 1e-6)
    flags = kde.above_threshold(queries, tau)
    safe = np.abs(truths - tau) > 1e-10 * np.maximum(tau, 1e-300)
    np.testing.assert_array_equal(flags[safe], (truths >= tau)[safe])


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    params=dataset_strategy,
    kernel=st.sampled_from(["triangular", "cosine", "exponential"]),
    eps=st.sampled_from([0.02, 0.1]),
)
def test_distance_kernel_eps_contract_property(params, kernel, eps):
    """QUAD honours the eps contract on every Table 4 kernel."""
    points = make_points(params)
    kde = KernelDensity(kernel=kernel, method="quad").fit(points)
    rng = np.random.default_rng(params["seed"] + 3)
    queries = points[rng.choice(len(points), size=5, replace=False)]
    values = kde.density_eps(queries, eps=eps)
    truths = kde.density(queries)
    assert np.all(np.abs(values - truths) <= eps * truths + 1e-15)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    params=dataset_strategy,
    gamma=st.floats(0.01, 10.0),
    provider_name=st.sampled_from(["baseline", "linear", "quad"]),
)
def test_gaussian_bound_sandwich_property(params, gamma, provider_name):
    """LB <= F <= UB on every node for every Gaussian bound family."""
    points = make_points(params)
    tree = KDTree(points, leaf_size=16)
    provider = make_bound_provider(provider_name, "gaussian", gamma, 1.0)
    rng = np.random.default_rng(params["seed"] + 4)
    q = points[rng.integers(len(points))] + rng.normal(0, 0.1, 2)
    q_list = q.tolist()
    q_sq = float(q @ q)
    for node in tree.nodes():
        lb, ub = provider.node_bounds(node, q_list, q_sq)
        stack = [node]
        exact = 0.0
        while stack:
            current = stack.pop()
            if current.is_leaf:
                sq = ((current.points - q) ** 2).sum(axis=1)
                exact += float(np.exp(-gamma * sq).sum())
            else:
                stack.extend([current.left, current.right])
        assert lb <= exact * (1 + 1e-9) + 1e-12
        assert ub >= exact * (1 - 1e-9) - 1e-12


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(params=dataset_strategy)
def test_exact_density_translation_invariance(params):
    """Shifting data and queries together leaves densities unchanged."""
    points = make_points(params)
    rng = np.random.default_rng(params["seed"] + 5)
    queries = points[:4]
    shift = rng.normal(size=2) * 50
    base = exact_density(points, queries, "gaussian", 0.7, 1.0)
    moved = exact_density(points + shift, queries + shift, "gaussian", 0.7, 1.0)
    np.testing.assert_allclose(base, moved, rtol=1e-6)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    params=dataset_strategy,
    method_name=st.sampled_from(["quad", "karl", "tkdc"]),
    kernel=st.sampled_from(["gaussian", "triangular", "epanechnikov"]),
    boundary_index=st.integers(0, 5),
)
def test_scalar_batch_tau_masks_identical_at_boundary(
    params, method_name, kernel, boundary_index
):
    """Scalar and batched engines agree bit-for-bit on τ masks.

    The threshold is chosen as the *exact* density of one of the query
    points, so the mask always contains an exact-boundary pixel — the
    case the batched path used to misclassify (stop on ``ub == tau``,
    classify cold). Canonical semantics: ``F >= tau`` ⇒ hot.
    """
    from repro.methods.registry import create_method

    if method_name in ("karl", "tkdc"):
        kernel = "gaussian"  # karl/tkdc bounds are gaussian-only
    points = make_points(params)
    scalar = create_method(method_name, leaf_size=16).fit(points, kernel=kernel)
    batch = create_method(method_name, leaf_size=16, engine="batch").fit(
        points, kernel=kernel
    )
    rng = np.random.default_rng(params["seed"] + 6)
    queries = points[rng.choice(len(points), size=6, replace=False)]
    truths = exact_density(points, queries, kernel, 1.0, 1.0)
    tau = float(truths[boundary_index])
    for threshold in (tau, float(np.nextafter(tau, np.inf))):
        scalar_mask = np.array(
            [scalar.query_tau(q, threshold) for q in queries], dtype=bool
        )
        batch_mask = batch.batch_tau(queries, threshold)
        np.testing.assert_array_equal(scalar_mask, batch_mask)
        # Against brute-force truth only away from the boundary: the
        # engines' canonical fully-refined sum and the brute-force sum
        # are both correctly rounded answers that can differ in the
        # last ulp, so the pixel sitting exactly on the threshold may
        # legitimately flip. Engine-vs-engine parity above is bitwise.
        safe = np.abs(truths - threshold) > 1e-12 * np.maximum(threshold, 1e-300)
        np.testing.assert_array_equal(scalar_mask[safe], (truths >= threshold)[safe])


@pytest.fixture(scope="module")
def pool_renderers():
    """Two fitted renderers whose process pools live for the whole module.

    A pool forks workers and publishes the kd-tree once per fitted
    method, so the pool properties draw render parameters over these
    fixed datasets instead of forking a pool per Hypothesis example.
    """
    from repro.visual.kdv import KDVRenderer

    renderers = [
        KDVRenderer(
            make_points(
                {"seed": seed, "n": n, "cluster_scale": scale, "offset": offset}
            ),
            resolution=(10, 8),
            leaf_size=16,
        )
        for seed, n, scale, offset in ((3, 90, 0.3, -40.0), (11, 120, 1.5, 7.0))
    ]
    yield renderers
    for renderer in renderers:
        close_render_pools()


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    which=st.integers(0, 1),
    tile_size=st.integers(2, 6),
    eps=st.sampled_from([0.01, 0.05, 0.2]),
)
def test_worker_stats_merge_matches_single_worker(pool_renderers, which, tile_size, eps):
    """Merged per-worker QueryStats equal the single-worker totals.

    The per-tile work of the batched engine is deterministic and
    scheduling-independent, so however tiles are distributed over the
    pool's workers the merged ledger must equal an in-process run's.
    """
    from repro.visual.request import RenderOptions, RenderRequest

    renderer = pool_renderers[which]
    fitted = renderer.get_method("quad")
    request = RenderRequest.for_eps(eps, "quad")
    fitted.stats.reset()
    sequential = renderer.render(
        request.replace(options=RenderOptions(tile_size=tile_size))
    )
    baseline = fitted.stats.as_dict()
    fitted.stats.reset()
    parallel = renderer.render(
        request.replace(options=RenderOptions(tile_size=tile_size, workers=2))
    )
    assert fitted.stats.as_dict() == baseline
    np.testing.assert_array_equal(sequential, parallel)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    which=st.integers(0, 1),
    eps=st.sampled_from([0.05, 0.2]),
    quantile=st.floats(0.1, 0.9),
    boundary=st.booleans(),
)
def test_in_process_pool_executor_parity(pool_renderers, which, eps, quantile, boundary):
    """The in-process and pool executors render bit-identical answers.

    The tile partition fixes each engine batch, so moving tiles between
    the parent process and the pool's workers must not change a single
    bit of the ε image, its envelopes or the τ mask — even for a τ
    sitting exactly on a pixel's density — and the merged per-worker
    stats ledger must equal the in-process run's.
    """
    from repro.visual.request import RenderOptions, RenderRequest

    renderer = pool_renderers[which]
    fitted = renderer.get_method("quad")
    in_process = RenderOptions(tile_size=4, anytime=True)
    pooled = RenderOptions(tile_size=4, workers=2, anytime=True)
    fitted.stats.reset()
    local = renderer.render(RenderRequest.for_eps(eps, "quad", options=in_process))
    local_stats = fitted.stats.as_dict()
    fitted.stats.reset()
    remote = renderer.render(RenderRequest.for_eps(eps, "quad", options=pooled))
    assert fitted.stats.as_dict() == local_stats
    for field in ("image", "lower", "upper", "resolved"):
        np.testing.assert_array_equal(getattr(local, field), getattr(remote, field))

    exact = renderer.render_exact()
    tau = float(exact.flat[0]) if boundary else float(np.quantile(exact, quantile))
    local_mask = renderer.render(
        RenderRequest.for_tau(tau, "quad", options=in_process.replace(anytime=False))
    )
    remote_mask = renderer.render(
        RenderRequest.for_tau(tau, "quad", options=pooled.replace(anytime=False))
    )
    np.testing.assert_array_equal(local_mask, remote_mask)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(params=dataset_strategy, eps=st.sampled_from([0.05, 0.2]))
def test_progressive_completion_matches_eps_render(params, eps):
    """A completed progressive run equals the plain eps render."""
    from repro.visual.kdv import KDVRenderer
    from repro.visual.progressive import ProgressiveRenderer

    points = make_points(params)
    progressive = ProgressiveRenderer(points, resolution=(6, 5), method="quad", eps=eps)
    result = progressive.run()
    renderer = KDVRenderer(
        points, grid=progressive.grid, gamma=progressive.gamma, weight=progressive.weight
    )
    direct = renderer.render_eps(eps, progressive.method)
    np.testing.assert_allclose(result.image, direct, rtol=1e-12)
