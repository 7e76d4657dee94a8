"""KDVRenderer end-to-end behaviour."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.visual.kdv import KDVRenderer


@pytest.fixture(scope="module")
def renderer(request):
    from repro.data.synthetic import load_dataset

    points = load_dataset("crime", n=500, seed=4)
    return KDVRenderer(points, resolution=(16, 12), leaf_size=64)


class TestSetup:
    def test_rejects_non_2d_points(self, highdim_points):
        with pytest.raises(InvalidParameterError):
            KDVRenderer(highdim_points)

    def test_scott_gamma_default(self, renderer):
        from repro.data.bandwidth import scott_gamma

        assert renderer.gamma == pytest.approx(scott_gamma(renderer.points, "gaussian"))

    def test_methods_cached(self, renderer):
        assert renderer.get_method("quad") is renderer.get_method("quad")

    def test_explicit_grid_used(self):
        from repro.visual.grid import PixelGrid

        points = np.random.default_rng(0).normal(size=(100, 2))
        grid = PixelGrid(5, 5, [-10, -10], [10, 10])
        renderer = KDVRenderer(points, grid=grid)
        assert renderer.grid is grid


class TestRendering:
    def test_exact_image_cached_and_correct(self, renderer):
        image = renderer.render_exact()
        assert image.shape == (12, 16)
        assert renderer.render_exact() is image
        from repro.core.exact import exact_density

        direct = exact_density(
            renderer.points,
            renderer.grid.centers(),
            renderer.kernel,
            renderer.gamma,
            renderer.weight,
        )
        np.testing.assert_allclose(image.ravel(), direct)

    @pytest.mark.parametrize("method", ["quad", "karl", "akde", "scikit", "exact"])
    def test_eps_contract_per_method(self, renderer, method):
        exact = renderer.render_exact()
        image = renderer.render_eps(0.02, method)
        atol = 1e-9 * renderer.weight
        assert np.all(np.abs(image - exact) <= 0.02 * exact + atol)

    @pytest.mark.parametrize("method", ["quad", "karl", "tkdc", "exact"])
    def test_tau_mask_matches_exact(self, renderer, method):
        exact = renderer.render_exact()
        mu, sigma = renderer.density_stats()
        tau = mu + 0.1 * sigma
        mask = renderer.render_tau(tau, method)
        np.testing.assert_array_equal(mask, exact >= tau)

    def test_thresholds_are_paper_ladder(self, renderer):
        taus = renderer.thresholds()
        assert len(taus) == 7
        assert all(a <= b for a, b in zip(taus, taus[1:]))
        mu, sigma = renderer.density_stats()
        assert taus[3] == pytest.approx(mu)

    def test_density_stats_of_exact_image(self, renderer):
        mu, sigma = renderer.density_stats()
        image = renderer.render_exact()
        assert mu == pytest.approx(float(image.mean()))
        assert sigma == pytest.approx(float(image.std()))


class TestViewportOperations:
    def test_zoom_shares_fitted_methods(self, renderer):
        fitted = renderer.get_method("quad")
        center = (renderer.grid.low + renderer.grid.high) / 2
        zoomed = renderer.zoom(center, factor=2.0)
        assert zoomed.get_method("quad") is fitted
        extent_old = renderer.grid.high - renderer.grid.low
        extent_new = zoomed.grid.high - zoomed.grid.low
        np.testing.assert_allclose(extent_new, extent_old / 2.0)

    def test_zoomed_render_matches_exact(self, renderer):
        center = (renderer.grid.low + renderer.grid.high) / 2
        zoomed = renderer.zoom(center, factor=3.0, resolution=(8, 6))
        exact = zoomed.render_exact()
        image = zoomed.render_eps(0.02, "quad")
        atol = 1e-9 * zoomed.weight
        assert np.all(np.abs(image - exact) <= 0.02 * exact + atol)

    def test_pan_shifts_viewport(self, renderer):
        panned = renderer.pan([1.0, -2.0])
        np.testing.assert_allclose(panned.grid.low, renderer.grid.low + [1.0, -2.0])
        np.testing.assert_allclose(panned.grid.high, renderer.grid.high + [1.0, -2.0])
        assert panned.grid.resolution == renderer.grid.resolution

    def test_exact_cache_not_shared(self, renderer):
        renderer.render_exact()
        zoomed = renderer.zoom(renderer.grid.low, factor=2.0)
        assert zoomed._exact_image is None

    def test_zoom_validation(self, renderer):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            renderer.zoom([0.0, 0.0], factor=0.0)
        with pytest.raises(InvalidParameterError):
            renderer.zoom([0.0], factor=2.0)
        with pytest.raises(InvalidParameterError):
            renderer.pan([1.0])

    def test_non_finite_viewport_rejected(self, renderer):
        from repro.errors import InvalidParameterError

        for center in ([np.nan, 0.5], [np.inf, 0.5]):
            with pytest.raises(InvalidParameterError, match="finite"):
                renderer.zoom(center, 2.0)
        for delta in ([np.nan, 0.0], [0.0, -np.inf]):
            with pytest.raises(InvalidParameterError, match="finite"):
                renderer.pan(delta)


class TestSaving:
    def test_save_density_png(self, renderer, tmp_path):
        image = renderer.render_exact()
        path = renderer.save_density_png(image, tmp_path / "density.png")
        assert path.exists() and path.stat().st_size > 100

    def test_save_mask_png(self, renderer, tmp_path):
        mask = renderer.render_exact() > 0
        path = renderer.save_mask_png(mask, tmp_path / "mask.png")
        assert path.exists()
