"""Per-point weight support (the paper's footnote 5 re-weighting form)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.aggregates import NodeAggregates
from repro.core.exact import exact_density
from repro.core.kde import KernelDensity
from repro.errors import InvalidParameterError, UnsupportedOperationError
from repro.index.kdtree import KDTree
from repro.visual.kdv import KDVRenderer


@pytest.fixture(scope="module")
def weighted_world(request):
    from repro.data.synthetic import load_dataset

    rng = np.random.default_rng(21)
    points = load_dataset("crime", n=500, seed=21)
    weights = rng.uniform(0.1, 5.0, size=len(points))
    return points, weights


class TestWeightedAggregates:
    def test_weighted_moment_identities(self, weighted_world):
        points, weights = weighted_world
        agg = NodeAggregates.from_points(points, weights)
        assert agg.total_weight == pytest.approx(weights.sum())
        q = points[3] + 0.01
        sq = ((points - q) ** 2).sum(axis=1)
        assert agg.sum_sq_dists(q.tolist()) == pytest.approx(
            float(np.dot(weights, sq)), rel=1e-9
        )
        assert agg.sum_quartic_dists(q.tolist()) == pytest.approx(
            float(np.dot(weights, sq * sq)), rel=1e-7
        )

    def test_uniform_weights_match_unweighted(self, weighted_world):
        points, __ = weighted_world
        uniform = NodeAggregates.from_points(points, np.ones(len(points)))
        plain = NodeAggregates.from_points(points)
        q = points[0].tolist()
        assert uniform.sum_sq_dists(q) == pytest.approx(plain.sum_sq_dists(q))
        assert uniform.total_weight == plain.total_weight

    def test_zero_weight_points_ignored(self):
        points = np.array([[0.0, 0.0], [100.0, 100.0]])
        agg = NodeAggregates.from_points(points, [1.0, 0.0])
        q = [0.0, 0.0]
        assert agg.sum_sq_dists(q) == pytest.approx(0.0, abs=1e-9)

    def test_invalid_weights_rejected(self):
        points = np.zeros((2, 2))
        with pytest.raises(InvalidParameterError):
            NodeAggregates.from_points(points, [1.0])
        with pytest.raises(InvalidParameterError):
            NodeAggregates.from_points(points, [-1.0, 1.0])

    def test_zero_weight_node_has_zero_moments(self):
        points = np.array([[1.0, 2.0], [3.0, -2.0], [5.0, 3.0]])
        agg = NodeAggregates.from_points(points, [0.0, 0.0, 0.0])
        assert agg.total_weight == 0.0
        assert agg.center == [3.0, 1.0]  # the unweighted centroid
        assert agg.a == agg.v == [0.0, 0.0] and agg.c == [0.0] * 4
        assert agg.b == agg.h == 0.0
        assert agg.sum_sq_dists([7.0, 7.0]) == agg.sum_quartic_dists([7.0, 7.0]) == 0.0


class TestWeightedExact:
    def test_exact_density_with_point_weights(self, weighted_world):
        points, weights = weighted_world
        queries = points[:5]
        out = exact_density(
            points, queries, "gaussian", 2.0, 0.5, point_weights=weights
        )
        sq = ((points[None, :, :] - queries[:, None, :]) ** 2).sum(axis=2)
        expected = 0.5 * (np.exp(-2.0 * sq) @ weights)
        np.testing.assert_allclose(out, expected, rtol=1e-10)

    def test_length_mismatch_rejected(self, weighted_world):
        points, weights = weighted_world
        with pytest.raises(InvalidParameterError):
            exact_density(points, points[:1], point_weights=weights[:10])


class TestWeightedTrees:
    def test_leaf_weights_aligned(self, weighted_world):
        points, weights = weighted_world
        tree = KDTree(points, leaf_size=32, weights=weights)
        for leaf in tree.leaves():
            np.testing.assert_array_equal(leaf.weights, weights[leaf.indices])
            assert leaf.agg.total_weight == pytest.approx(weights[leaf.indices].sum())

    def test_root_total_weight(self, weighted_world):
        points, weights = weighted_world
        tree = KDTree(points, weights=weights)
        assert tree.root.agg.total_weight == pytest.approx(weights.sum())

    def test_weight_validation(self, weighted_world):
        points, weights = weighted_world
        with pytest.raises(InvalidParameterError):
            KDTree(points, weights=weights[:-1])
        with pytest.raises(InvalidParameterError):
            KDTree(points, weights=-weights)


class TestZeroWeightRegions:
    """Nodes whose weights sum to zero build, bound to (0, 0) and render."""

    @pytest.fixture(scope="class")
    def masked(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(5000, 2))
        return points, np.where(points[:, 0] < -0.5, 0.0, 1.0)

    def test_trees_build_with_zero_weight_nodes(self, masked):
        points, weights = masked
        tree = KDTree(points[:200], leaf_size=8, weights=weights[:200])
        empty = [node for node in tree.nodes() if node.agg.total_weight == 0.0]
        assert empty
        for node in empty:
            assert node.agg.b == node.agg.h == 0.0
            assert np.all(np.isfinite(node.agg.center))

    @pytest.fixture(scope="class")
    def masked_renderer(self, masked):
        points, weights = masked
        return KDVRenderer(points, resolution=(32, 24), point_weights=weights)

    @pytest.mark.parametrize("method", ["quad", "karl", "akde"])
    def test_masked_map_renders_within_eps_of_exact(self, method, masked_renderer):
        renderer = masked_renderer
        exact = renderer.render_eps(0.05, "exact")
        approx = renderer.render_eps(0.05, method)
        assert np.all(np.abs(approx - exact) <= 0.05 * exact + 1e-9 * renderer.weight)

    @pytest.mark.parametrize("method", ["quad", "karl"])  # aKDE has no tau mode
    def test_masked_map_tau_mask_equals_exact(self, method, masked_renderer):
        renderer = masked_renderer
        levels = np.unique(renderer.render_eps(0.05, "exact"))
        middle = len(levels) * 6 // 10
        tau = 0.5 * float(levels[middle] + levels[middle + 1])
        np.testing.assert_array_equal(
            renderer.render_tau(tau, method), renderer.render_tau(tau, "exact")
        )

    def test_all_zero_weights_render_zero(self):
        points = np.random.default_rng(1).normal(size=(300, 2))
        renderer = KDVRenderer(points, resolution=(8, 6), point_weights=np.zeros(300))
        assert not renderer.render_eps(0.05, "quad").any()
        assert not renderer.render_tau(1e-12, "quad").any()


class TestWeightedMethods:
    @pytest.mark.parametrize("method", ["quad", "karl", "akde"])
    def test_weighted_eps_contract(self, method, weighted_world):
        points, weights = weighted_world
        kde = KernelDensity(method=method).fit(points, point_weights=weights)
        queries = points[:15]
        exact = kde.density(queries)
        approx = kde.density_eps(queries, eps=0.02)
        assert np.all(np.abs(approx - exact) <= 0.02 * exact + 1e-15)

    @pytest.mark.parametrize("kernel", ["triangular", "exponential"])
    def test_weighted_distance_kernels(self, kernel, weighted_world):
        points, weights = weighted_world
        kde = KernelDensity(kernel=kernel, method="quad").fit(
            points, point_weights=weights
        )
        queries = points[:10]
        exact = kde.density(queries)
        approx = kde.density_eps(queries, eps=0.05)
        assert np.all(np.abs(approx - exact) <= 0.05 * exact + 1e-15)

    def test_weighted_tau(self, weighted_world):
        points, weights = weighted_world
        kde = KernelDensity(method="quad").fit(points, point_weights=weights)
        queries = points[:20]
        truths = kde.density(queries)
        tau = float(np.median(truths)) * 1.0001
        flags = kde.above_threshold(queries, tau)
        np.testing.assert_array_equal(flags, truths >= tau)

    def test_zorder_rejects_point_weights(self, weighted_world):
        points, weights = weighted_world
        kde = KernelDensity(method="zorder")
        with pytest.raises(UnsupportedOperationError):
            kde.fit(points, point_weights=weights)

    def test_weighted_equals_replication(self):
        """Integer weights behave exactly like repeating the points."""
        rng = np.random.default_rng(5)
        points = rng.normal(size=(100, 2))
        weights = rng.integers(1, 4, size=100).astype(float)
        replicated = np.repeat(points, weights.astype(int), axis=0)
        gamma = 0.8
        weighted = KernelDensity(method="quad", gamma=gamma, weight=1.0).fit(
            points, point_weights=weights
        )
        plain = KernelDensity(method="quad", gamma=gamma, weight=1.0).fit(replicated)
        queries = points[:10]
        np.testing.assert_allclose(
            weighted.density(queries), plain.density(queries), rtol=1e-9
        )
        approx_weighted = weighted.density_eps(queries, eps=0.01)
        approx_plain = plain.density_eps(queries, eps=0.01)
        exact = plain.density(queries)
        assert np.all(np.abs(approx_weighted - exact) <= 0.01 * exact + 1e-15)
        assert np.all(np.abs(approx_plain - exact) <= 0.01 * exact + 1e-15)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**16),
    eps=st.sampled_from([0.02, 0.1]),
)
def test_weighted_eps_contract_property(seed, eps):
    """The weighted εKDV contract holds on random weighted clouds."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(80, 2)) * rng.uniform(0.2, 2.0)
    weights = rng.uniform(0.0, 3.0, size=80)
    weights[0] = 1.0  # guarantee a positive total
    kde = KernelDensity(method="quad").fit(points, point_weights=weights)
    queries = points[:5]
    exact = kde.density(queries)
    approx = kde.density_eps(queries, eps=eps)
    assert np.all(np.abs(approx - exact) <= eps * exact + 1e-15)
