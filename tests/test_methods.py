"""Method classes: Table 6 capabilities, contracts, registry."""

import numpy as np
import pytest

from repro.core.exact import exact_density
from repro.data.bandwidth import scott_gamma
from repro.errors import (
    NotFittedError,
    UnknownNameError,
    UnsupportedKernelError,
    UnsupportedOperationError,
)
from repro.index.kdtree import KDTree
from repro.methods import (
    METHOD_REGISTRY,
    available_methods,
    capability_table,
    create_method,
)
from repro.methods.quad import QUADMethod
from repro.visual.kdv import KDVRenderer

ALL_METHODS = sorted(METHOD_REGISTRY)


@pytest.fixture(scope="module")
def fitted_world(request):
    from repro.data.synthetic import load_dataset

    points = load_dataset("crime", n=400, seed=2)
    gamma = scott_gamma(points, "gaussian")
    weight = 1.0 / len(points)
    truth = lambda qs: exact_density(points, qs, "gaussian", gamma, weight)
    return points, gamma, weight, truth


class TestRegistry:
    def test_table6_lineup_registered(self):
        assert set(METHOD_REGISTRY) == {
            "exact",
            "scikit",
            "zorder",
            "akde",
            "tkdc",
            "karl",
            "quad",
        }

    def test_unknown_method_raises(self):
        with pytest.raises(UnknownNameError):
            create_method("fastkde")

    def test_kwargs_filtered_per_constructor(self):
        # leaf_size is meaningless for zorder; it must be dropped, not crash.
        method = create_method("zorder", leaf_size=128, delta=0.2)
        assert method.delta == 0.2

    def test_leftover_index_option_still_runs_on_the_kd_tree(self, fitted_world):
        # index= left the method options in 7.0; an old sweep
        # configuration naming it still renders, on the kd-tree.
        points = fitted_world[0]
        with pytest.raises(TypeError):
            QUADMethod(index="ball")
        renderer = KDVRenderer(points, resolution=(24, 18))
        images = []
        for method in (
            create_method("quad", index="ball", leaf_size=16),
            create_method("quad", leaf_size=16),
        ):
            renderer.get_method(method)
            assert isinstance(method.tree, KDTree)
            images.append(renderer.render_eps(0.01, method))
        np.testing.assert_array_equal(images[0], images[1])

    def test_capability_table_matches_paper_table6(self):
        table = capability_table()
        assert table["exact"]["eps"] and table["exact"]["tau"]
        assert table["scikit"]["eps"] and not table["scikit"]["tau"]
        assert table["zorder"]["eps"] and not table["zorder"]["tau"]
        assert not table["zorder"]["deterministic"]
        assert table["akde"]["eps"] and not table["akde"]["tau"]
        assert not table["tkdc"]["eps"] and table["tkdc"]["tau"]
        assert table["karl"]["eps"] and table["karl"]["tau"]
        assert table["quad"]["eps"] and table["quad"]["tau"]

    def test_available_methods_filters(self):
        assert "tkdc" not in available_methods(operation="eps")
        assert "akde" not in available_methods(operation="tau")
        assert "karl" not in available_methods(kernel="triangular")
        assert "quad" in available_methods(kernel="triangular")


class TestLifecycle:
    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_query_before_fit_raises(self, name):
        method = create_method(name)
        with pytest.raises(NotFittedError):
            if method.supports_eps:
                method.query_eps([0.0, 0.0], 0.05)
            else:
                method.query_tau([0.0, 0.0], 0.5)

    def test_karl_rejects_triangular_kernel(self, fitted_world):
        points, __, __, __ = fitted_world
        with pytest.raises(UnsupportedKernelError):
            create_method("karl").fit(points, "triangular", 1.0, 1.0)

    def test_tkdc_rejects_eps_queries(self, fitted_world):
        points, gamma, weight, __ = fitted_world
        method = create_method("tkdc").fit(points, "gaussian", gamma, weight)
        with pytest.raises(UnsupportedOperationError):
            method.query_eps(points[0], 0.01)

    def test_zorder_rejects_tau_queries(self, fitted_world):
        points, gamma, weight, __ = fitted_world
        method = create_method("zorder").fit(points, "gaussian", gamma, weight)
        with pytest.raises(UnsupportedOperationError):
            method.query_tau(points[0], 0.5)

    def test_fit_returns_self(self, fitted_world):
        points, gamma, weight, __ = fitted_world
        method = create_method("quad")
        assert method.fit(points, "gaussian", gamma, weight) is method


class TestEpsContract:
    @pytest.mark.parametrize("name", ["exact", "scikit", "akde", "karl", "quad"])
    def test_deterministic_methods_honor_eps(self, name, fitted_world):
        points, gamma, weight, truth = fitted_world
        method = create_method(name).fit(points, "gaussian", gamma, weight)
        rng = np.random.default_rng(3)
        queries = points[rng.choice(len(points), 20, replace=False)]
        values = method.batch_eps(queries, 0.02)
        truths = truth(queries)
        assert np.all(np.abs(values - truths) <= 0.02 * truths + 1e-18)

    def test_zorder_error_reasonable(self, fitted_world):
        """Probabilistic method: check average, not worst case."""
        points, gamma, weight, truth = fitted_world
        method = create_method("zorder").fit(points, "gaussian", gamma, weight)
        rng = np.random.default_rng(4)
        queries = points[rng.choice(len(points), 30, replace=False)]
        values = method.batch_eps(queries, 0.1)
        truths = truth(queries)
        rel = np.abs(values - truths) / truths
        assert rel.mean() < 0.5

    def test_single_query_helper(self, fitted_world):
        points, gamma, weight, truth = fitted_world
        method = create_method("quad").fit(points, "gaussian", gamma, weight)
        value = method.query_eps(points[0], 0.05)
        assert isinstance(value, float)
        assert abs(value - float(truth(points[:1])[0])) <= 0.05 * value + 1e-18


class TestTauContract:
    @pytest.mark.parametrize("name", ["exact", "tkdc", "karl", "quad"])
    def test_tau_matches_exact_classification(self, name, fitted_world):
        points, gamma, weight, truth = fitted_world
        method = create_method(name).fit(points, "gaussian", gamma, weight)
        rng = np.random.default_rng(5)
        queries = points[rng.choice(len(points), 25, replace=False)]
        truths = truth(queries)
        tau = float(np.median(truths)) * 1.0001  # avoid knife edges
        masks = method.batch_tau(queries, tau)
        np.testing.assert_array_equal(masks, truths >= tau)

    def test_query_tau_returns_bool(self, fitted_world):
        points, gamma, weight, __ = fitted_world
        method = create_method("quad").fit(points, "gaussian", gamma, weight)
        assert isinstance(method.query_tau(points[0], 1e-9), bool)


class TestZOrderSpecifics:
    def test_sample_cached_per_eps(self, fitted_world):
        points, gamma, weight, __ = fitted_world
        method = create_method("zorder").fit(points, "gaussian", gamma, weight)
        first, mult1 = method.sample_for(0.05)
        second, mult2 = method.sample_for(0.05)
        assert first is second and mult1 == mult2

    def test_smaller_eps_larger_sample(self, fitted_world):
        points, gamma, weight, __ = fitted_world
        method = create_method("zorder").fit(points, "gaussian", gamma, weight)
        small, __ = method.sample_for(0.5)
        large, __ = method.sample_for(0.05)
        assert len(large) >= len(small)


class TestTracedQueries:
    def test_traced_query_returns_trace(self, fitted_world):
        points, gamma, weight, truth = fitted_world
        method = create_method("quad").fit(points, "gaussian", gamma, weight)
        value, trace = method.query_eps_traced(points[0], 0.05)
        assert trace.iterations >= 1
        assert trace.lowers[-1] <= value <= trace.uppers[-1] + 1e-15
