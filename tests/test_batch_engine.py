"""Batched frontier engine: scalar equivalence, contracts, tiling, stats.

The batched engine refines in a different order than the scalar engine,
so answers are not bitwise identical — but both must honour the same
per-pixel contracts: εKDV densities inside the ``(1 ± eps)`` envelope of
the exact density, and τKDV masks equal to the exact-density
thresholding (hence to each other).
"""

import threading

import numpy as np
import pytest

from repro.contracts.runtime import checking
from repro.core.batch_engine import BatchRefinementEngine
from repro.core.bounds import make_bound_provider
from repro.core.engine import QueryStats, RefinementEngine
from repro.core.exact import exact_density
from repro.errors import InvalidParameterError, UnsupportedOperationError
from repro.index.kdtree import KDTree
from repro.visual.executors import close_render_pools
from repro.visual.request import RenderOptions, RenderRequest


def _render_tiled(renderer, request, **options):
    """``request`` rendered through the tile driver with ``options``."""
    return renderer.render(request.replace(options=RenderOptions(**options)))


def _workload(kernel, seed, n=400, m=60):
    from repro.data.bandwidth import scott_gamma
    from repro.data.synthetic import load_dataset

    points = load_dataset("crime", n=n, seed=seed)
    gamma = scott_gamma(points, kernel)
    weight = 1.0 / n
    rng = np.random.default_rng(seed + 1)
    queries = points[rng.integers(n, size=m)] + rng.normal(0.0, 0.05, size=(m, 2))
    exact = exact_density(points, queries, kernel, gamma, weight)
    return points, gamma, weight, queries, exact


def _engines(points, gamma, weight, kernel, provider_name, ordering="gap"):
    tree = KDTree(points, leaf_size=32)
    provider = make_bound_provider(provider_name, kernel, gamma, weight)
    return (
        RefinementEngine(tree, provider, ordering=ordering),
        BatchRefinementEngine(tree, provider, ordering=ordering),
    )


class TestEpsEquivalence:
    # "triangular" exercises the DistanceQuadraticBoundProvider, which
    # has no vectorised batch override — i.e. the default per-row
    # node_bounds_batch fallback path.
    @pytest.mark.parametrize("kernel,provider", [
        ("gaussian", "quad"),
        ("gaussian", "linear"),
        ("gaussian", "baseline"),
        ("triangular", "quad"),
        ("exponential", "baseline"),
    ])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_envelope_matches_scalar(self, kernel, provider, seed):
        points, gamma, weight, queries, exact = _workload(kernel, seed)
        scalar, batch = _engines(points, gamma, weight, kernel, provider)
        for eps in (0.01, 0.1):
            batch_values = batch.query_eps_batch(queries, eps)
            scalar_values = np.array(
                [scalar.query_eps(q, eps) for q in queries]
            )
            allowed = eps * exact + 1e-15
            assert np.all(np.abs(batch_values - exact) <= allowed)
            assert np.all(np.abs(scalar_values - exact) <= allowed)

    @pytest.mark.parametrize("ordering", ["gap", "fifo"])
    def test_orderings_agree(self, ordering):
        points, gamma, weight, queries, exact = _workload("gaussian", 3)
        __, batch = _engines(points, gamma, weight, "gaussian", "quad", ordering)
        values = batch.query_eps_batch(queries, 0.05)
        assert np.all(np.abs(values - exact) <= 0.05 * exact + 1e-15)

    def test_atol_floor_stops_refinement(self):
        points, gamma, weight, queries, __ = _workload("gaussian", 2)
        __, batch = _engines(points, gamma, weight, "gaussian", "quad")
        free = batch.query_eps_batch(queries, 0.01, atol=1e12)
        strict_stats = QueryStats()
        strict = BatchRefinementEngine(
            batch.tree, batch.provider, stats=strict_stats
        ).query_eps_batch(queries, 0.01)
        assert batch.stats.iterations < strict_stats.iterations
        assert free.shape == strict.shape

    def test_offset_shifts_answers(self):
        points, gamma, weight, queries, exact = _workload("gaussian", 4)
        __, batch = _engines(points, gamma, weight, "gaussian", "quad")
        offset = float(exact.mean())
        values = batch.query_eps_batch(queries, 0.01, offset=offset)
        total = exact + offset
        assert np.all(np.abs(values - total) <= 0.01 * total + 1e-15)

    def test_invalid_parameters_rejected(self):
        points, gamma, weight, queries, __ = _workload("gaussian", 5, n=100, m=4)
        __, batch = _engines(points, gamma, weight, "gaussian", "quad")
        with pytest.raises(InvalidParameterError):
            batch.query_eps_batch(queries, 0.0)
        with pytest.raises(InvalidParameterError):
            batch.query_eps_batch(queries, 0.01, atol=-1.0)
        with pytest.raises(InvalidParameterError):
            batch.query_eps_batch(queries, 0.01, offset=-1.0)
        with pytest.raises(InvalidParameterError):
            batch.query_eps_batch(queries.ravel(), 0.01)
        with pytest.raises(InvalidParameterError):
            BatchRefinementEngine(batch.tree, batch.provider, ordering="dfs")

    def test_unboundable_queries_end(self):
        """Non-finite queries raise; finite ones whose bounds overflow end.

        Each call runs in a thread with a join timeout, so a refinement
        loop that never ends fails the test instead of hanging it.
        """
        from repro.resilience.budget import Budget

        points, gamma, weight, __, __ = _workload("gaussian", 6, n=300, m=1)
        __, batch = _engines(points, gamma, weight, "gaussian", "quad")
        outcomes = {}

        def run(name, call):
            def target():
                try:
                    outcomes[name] = call()
                except InvalidParameterError as error:
                    outcomes[name] = error

            thread = threading.Thread(target=target, daemon=True)
            thread.start()
            thread.join(timeout=10.0)
            assert not thread.is_alive(), f"{name} never returned"
            return outcomes[name]

        for bad in (np.nan, np.inf):
            queries = np.array([[0.0, 0.0], [bad, 0.0]])
            stats_before = batch.stats.as_dict()
            for name, call in (
                ("eps", lambda: batch.query_eps_bounds(
                    queries, 0.05, cancel=Budget(deadline_s=0.2).token())),
                ("tau", lambda: batch.query_tau_bounds(queries, 0.05)),
                ("root", lambda: batch.root_envelope(queries)),
            ):
                error = run(name, call)
                assert isinstance(error, InvalidParameterError), name
                assert "finite" in str(error)
            assert batch.stats.as_dict() == stats_before
        # A finite centre so far out that its bounds overflow to NaN:
        # gap ordering must still drain instead of re-scoring forever.
        # (Invariant checking would reject the NaN bounds first.)
        queries = np.array([[0.0, 0.0], [1e308, 1e308]])

        def overflowing():
            with checking(False), np.errstate(all="ignore"):
                return batch.query_eps_bounds(queries, 0.05)

        lower, upper = run("overflow", overflowing)
        assert np.isfinite(lower[0]) and np.isfinite(upper[0])


class TestTauEquivalence:
    @pytest.mark.parametrize("kernel,provider", [
        ("gaussian", "quad"),
        ("gaussian", "baseline"),
        ("triangular", "quad"),
    ])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_masks_match_scalar_and_truth(self, kernel, provider, seed):
        points, gamma, weight, queries, exact = _workload(kernel, seed)
        scalar, batch = _engines(points, gamma, weight, kernel, provider)
        for quantile in (0.25, 0.5, 0.9):
            tau = float(np.quantile(exact, quantile))
            batch_mask = batch.query_tau_batch(queries, tau)
            scalar_mask = np.array([scalar.query_tau(q, tau) for q in queries])
            assert np.array_equal(batch_mask, scalar_mask)
            assert np.array_equal(batch_mask, exact >= tau)


class TestInvariantChecking:
    @pytest.mark.parametrize("kernel,provider", [
        ("gaussian", "quad"),
        ("gaussian", "linear"),
        ("triangular", "quad"),
    ])
    def test_checked_path_passes(self, kernel, provider):
        points, gamma, weight, queries, exact = _workload(kernel, 6, n=200, m=20)
        with checking(True):
            __, batch = _engines(points, gamma, weight, kernel, provider)
            values = batch.query_eps_batch(queries, 0.05)
            batch.query_tau_batch(queries, float(np.median(exact)))
        assert np.all(np.abs(values - exact) <= 0.05 * exact + 1e-15)

    def test_checked_batch_bounds_reject_bad_provider(self):
        from repro.core.bounds.base import BoundProvider
        from repro.errors import InvariantViolation

        class BrokenProvider(BoundProvider):
            name = "broken"

            def node_bounds(self, node, q, q_sq):
                return 1.0, 0.0  # inverted on purpose

        points, gamma, weight, queries, __ = _workload("gaussian", 8, n=100, m=4)
        tree = KDTree(points, leaf_size=32)
        provider = BrokenProvider("gaussian", gamma, weight)
        with checking(True), pytest.raises(InvariantViolation):
            BatchRefinementEngine(tree, provider).query_eps_batch(queries, 0.5)


class TestStats:
    def test_counters_accumulate_and_merge(self):
        points, gamma, weight, queries, __ = _workload("gaussian", 9, n=200, m=10)
        __, batch = _engines(points, gamma, weight, "gaussian", "quad")
        batch.query_eps_batch(queries, 0.05)
        assert batch.stats.queries == queries.shape[0]
        assert batch.stats.iterations > 0
        assert batch.stats.node_evaluations >= queries.shape[0]

        other = QueryStats()
        other.queries = 3
        other.point_evaluations = 17
        before = batch.stats.queries
        assert batch.stats.merge(other) is batch.stats
        assert batch.stats.queries == before + 3
        assert batch.stats.point_evaluations >= 17

    def test_shared_stats_object(self):
        points, gamma, weight, queries, __ = _workload("gaussian", 10, n=200, m=10)
        tree = KDTree(points, leaf_size=32)
        provider = make_bound_provider("quad", "gaussian", gamma, weight)
        shared = QueryStats()
        engine = BatchRefinementEngine(tree, provider, stats=shared)
        engine.query_eps_batch(queries, 0.1)
        assert shared.queries == queries.shape[0]


class TestMethodAndRendererIntegration:
    def test_method_engine_mode_batch(self):
        from repro.methods.registry import create_method

        points, gamma, weight, queries, exact = _workload("gaussian", 12)
        method = create_method("quad", leaf_size=32, engine="batch")
        method.fit(points, "gaussian", gamma, weight)
        values = method.batch_eps(queries, 0.05)
        assert np.all(np.abs(values - exact) <= 0.05 * exact + 1e-15)
        tau = float(np.median(exact))
        assert np.array_equal(method.batch_tau(queries, tau), exact >= tau)
        assert method.stats.queries == 2 * queries.shape[0]

    def test_method_engine_mode_rejected(self):
        from repro.methods.registry import create_method

        with pytest.raises(InvalidParameterError):
            create_method("quad", engine="vectorised")

    @pytest.mark.parametrize("workers", [None, 3])
    def test_renderer_tiled_eps_envelope(self, workers):
        from repro.visual.kdv import KDVRenderer

        points = _workload("gaussian", 13, n=300)[0]
        renderer = KDVRenderer(points, resolution=(40, 30), leaf_size=32)
        eps = 0.05
        try:
            image = _render_tiled(
                renderer, RenderRequest.for_eps(eps, "quad"), tile_size=16,
                workers=workers,
            )
        finally:
            close_render_pools()
        exact = renderer.render_exact()
        atol = 1e-9 * renderer.weight
        assert image.shape == exact.shape
        assert np.all(np.abs(image - exact) <= eps * exact + atol)

    @pytest.mark.parametrize("workers", [None, 3])
    def test_renderer_tiled_tau_mask(self, workers):
        from repro.visual.kdv import KDVRenderer

        points = _workload("gaussian", 14, n=300)[0]
        renderer = KDVRenderer(points, resolution=(40, 30), leaf_size=32)
        exact = renderer.render_exact()
        tau = float(np.median(exact))
        try:
            mask = _render_tiled(
                renderer, RenderRequest.for_tau(tau, "quad"), tile_size=16,
                workers=workers,
            )
        finally:
            close_render_pools()
        assert np.array_equal(mask, renderer.render_tau(tau, "quad"))
        assert np.array_equal(mask, exact >= tau)

    def test_renderer_worker_stats_merged(self):
        from repro.visual.kdv import KDVRenderer

        points = _workload("gaussian", 15, n=300)[0]
        renderer = KDVRenderer(points, resolution=(40, 30), leaf_size=32)
        method = renderer.get_method("quad")
        method.stats.reset()
        try:
            _render_tiled(
                renderer, RenderRequest.for_eps(0.05, "quad"), tile_size=16,
                workers=3,
            )
        finally:
            close_render_pools()
        assert method.stats.queries == renderer.grid.num_pixels
        assert method.stats.iterations > 0

    def test_renderer_tiling_rejects_sampling_methods(self):
        from repro.visual.kdv import KDVRenderer

        points = _workload("gaussian", 16, n=300)[0]
        renderer = KDVRenderer(points, resolution=(20, 15), leaf_size=32)
        with pytest.raises(UnsupportedOperationError):
            _render_tiled(renderer, RenderRequest.for_eps(0.05, "zorder"), tile_size=8)

    def test_renderer_tiled_checked(self):
        from repro.visual.kdv import KDVRenderer

        points = _workload("gaussian", 17, n=200)[0]
        renderer = KDVRenderer(points, resolution=(16, 12), leaf_size=32)
        with checking(True):
            image = _render_tiled(
                renderer, RenderRequest.for_eps(0.05, "quad"), tile_size=8
            )
        assert np.all(np.isfinite(image))
