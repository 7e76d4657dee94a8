"""τ tiles decided from the grid's cached envelope.

Every complete render of a tile grid narrows the grid's bounds-level
(L3) entry to the intersection of what was there with the render's
final per-pixel envelope. A τ tile of that grid keeps the decision of
every pixel the envelope settles beyond the tie guard and refines only
the rest. These tests pin that mask to direct τ refinement bit for bit
— near-ties, coreset tiers and the process pool included — and count
the pixels the band render refines.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import stopping
from repro.core.exact import exact_density
from repro.errors import InvalidParameterError
from repro.serve import RenderConfig, ServiceConfig, TileService
from repro.visual.kdv import KDVRenderer
from repro.visual.request import RenderOptions, RenderRequest

TILE = (1, 0, 0)


def _service(**render: object) -> TileService:
    return TileService(
        config=ServiceConfig(
            render=RenderConfig(
                tile_px=32, eps=0.05, workers=1, deadline_ms=None, **render
            )
        )
    )


def _density(plan) -> np.ndarray:
    """Exact density of the plan's renderer (exact tree or coreset tier)."""
    renderer = plan.renderer
    return np.asarray(
        exact_density(
            renderer.points,
            np.asarray(plan.resolved.grid.centers()),
            renderer.kernel,
            renderer.gamma,
            renderer.weight,
            point_weights=renderer.point_weights,
        )
    )


def _tau_at_median_pixel(svc: TileService, tile) -> float:
    """τ equal to one pixel's exact density: a tie on that pixel."""
    values = np.sort(_density(svc.plan_tile("crime", *tile, tau=1.0)))
    return float(values[values.size // 2])


def _warm_and_cold(svc: TileService, tile, tau: float):
    """The τ tile after an ε render of its grid, then with caches cleared."""
    svc.get_tile("crime", *tile)
    plan = svc.plan_tile("crime", *tile, tau=tau)
    lower, upper = svc.cache.get_bounds(plan.bounds_key)
    open_pixels = int((~stopping.tau_settled_mask(lower, upper, tau)).sum())
    assert 0 < open_pixels < lower.size  # the envelope decides some, not all
    warm, info = svc.get_tile("crime", *tile, tau=tau)
    assert info["cache"] == "miss"
    svc.cache.clear()
    cold, info = svc.get_tile("crime", *tile, tau=tau)
    assert info["cache"] == "miss"
    return warm, cold


class TestEnvelopeTauIsDirectTau:
    def test_tie_at_one_pixel(self, small_points):
        svc = _service()
        try:
            svc.registry.register("crime", small_points)
            tau = _tau_at_median_pixel(svc, TILE)
            warm, cold = _warm_and_cold(svc, TILE, tau)
            assert warm == cold
            plan = svc.plan_tile("crime", *TILE, tau=tau)
            svc.cache.clear()
            svc.get_tile("crime", *TILE)
            svc.get_tile("crime", *TILE, tau=tau)
            np.testing.assert_array_equal(
                svc.cache.get_density(plan.density_key), svc._render_full(plan)
            )
        finally:
            svc.close()

    def test_coreset_tier_tile(self, small_points):
        svc = _service()
        try:
            svc.registry.register("crime", small_points, coreset_zoom=2)
            tile = (0, 0, 0)
            assert svc.plan_tile("crime", *tile).resolved.tier == "coreset-z0"
            tau = _tau_at_median_pixel(svc, tile)
            warm, cold = _warm_and_cold(svc, tile, tau)
            assert warm == cold
        finally:
            svc.close()

    def test_process_pool(self, small_points):
        pooled = _service(render_workers=2)
        inline = _service(render_workers=1)
        try:
            pooled.registry.register("crime", small_points)
            inline.registry.register("crime", small_points)
            tau = _tau_at_median_pixel(inline, TILE)
            warm, cold = _warm_and_cold(pooled, TILE, tau)
            assert warm == cold
            assert warm == inline.get_tile("crime", *TILE, tau=tau)[0]
        finally:
            pooled.close()
            inline.close()

    @pytest.mark.parametrize(
        "offset, planted",
        [
            # Intersecting two envelopes can turn an interval inside-out.
            (1e-7, (1.001, 0.999)),
            # Rounding can leave a bound a hair on the wrong side of τ.
            (1e-13, (1.0 + 1e-12, 1.0 + 1e-11)),
        ],
        ids=["inverted", "inside-tie-guard"],
    )
    def test_unsettled_intervals_are_refined(self, small_points, offset, planted):
        # τ sits just above the densest pixel, so the pixel is cold. The
        # planted interval reads as a certain hot decision; taking it
        # would flip the pixel, so it must be refined instead.
        svc = _service()
        try:
            svc.registry.register("crime", small_points)
            truth = _density(svc.plan_tile("crime", *TILE, tau=1.0))
            pixel = int(np.argmax(truth))
            density = float(truth[pixel])
            tau = density * (1.0 + offset)
            plan = svc.plan_tile("crime", *TILE, tau=tau)
            svc.get_tile("crime", *TILE)
            lower, upper = (np.array(a) for a in svc.cache.get_bounds(plan.bounds_key))
            lower[pixel], upper[pixel] = density * planted[0], density * planted[1]
            svc.cache.put_bounds(plan.bounds_key, (lower, upper))
            svc.get_tile("crime", *TILE, tau=tau)
            mask = np.asarray(svc.cache.get_density(plan.density_key)).reshape(-1)
            assert not mask[pixel]
            np.testing.assert_array_equal(
                mask, np.asarray(svc._render_full(plan)).reshape(-1)
            )
        finally:
            svc.close()


class TestBandRender:
    def test_refines_exactly_the_open_pixels(self, small_points):
        svc = _service()
        try:
            svc.registry.register("crime", small_points)
            tau = _tau_at_median_pixel(svc, TILE)
            plan = svc.plan_tile("crime", *TILE, tau=tau)
            fitted = plan.renderer.get_method("quad")
            for warm in (False, True):
                svc.cache.clear()
                if warm:
                    svc.get_tile("crime", *TILE)
                    lower, upper = svc.cache.get_bounds(plan.bounds_key)
                else:
                    # Cold: the service starts from the root bounds.
                    lower, upper = fitted.batch_engine.root_envelope(
                        plan.resolved.grid.centers()
                    )
                open_pixels = int((~stopping.tau_settled_mask(lower, upper, tau)).sum())
                before = fitted.stats.queries
                svc.get_tile("crime", *TILE, tau=tau)
                assert fitted.stats.queries - before == open_pixels
        finally:
            svc.close()

    def test_no_exact_scan_at_two_shards(self, small_points, monkeypatch):
        import sys

        import repro.core.exact as exact_module

        calls = []
        original = exact_module.exact_density

        def counting(*args, **kwargs):
            calls.append(np.asarray(args[1]).shape[0])
            return original(*args, **kwargs)

        svc = TileService(
            config=ServiceConfig(
                render=RenderConfig(tile_px=32, workers=1, deadline_ms=None),
            )
        )
        try:
            svc.registry.register("crime", small_points, shards=2)
            tau = _tau_at_median_pixel(svc, TILE)
            svc.get_tile("crime", *TILE)  # the colour probe runs here
            for name, module in list(sys.modules.items()):
                if name.startswith("repro") and getattr(module, "exact_density", None) is original:
                    monkeypatch.setattr(module, "exact_density", counting)
            svc.get_tile("crime", *TILE, tau=tau)
            assert calls == []
        finally:
            svc.close()


class TestEnvelopeOption:
    def test_settled_mask(self):
        tau = 1.0
        lower = np.array([2.0, 0.1, 1.0 + 1e-12, 2.0, 0.5])
        upper = np.array([3.0, 0.5, 1.5, 1.5, 1.5])
        # well above, well below, inside the tie guard, inverted, straddling
        expected = np.array([True, True, False, False, False])
        np.testing.assert_array_equal(
            stopping.tau_settled_mask(lower, upper, tau), expected
        )

    def test_library_render_matches_root_start(self, small_points):
        renderer = KDVRenderer(small_points, resolution=(40, 30))
        tau = float(np.median(renderer.render_exact()))
        plain = renderer.render(RenderRequest.for_tau(tau))
        eps = renderer.render(
            RenderRequest.for_eps(0.05, options=RenderOptions(tile_size=16, anytime=True))
        )
        started = renderer.render(
            RenderRequest.for_tau(
                tau,
                options=RenderOptions(
                    tile_size=16, envelope=(eps.lower.reshape(-1), eps.upper.reshape(-1))
                ),
            )
        )
        np.testing.assert_array_equal(started, plain)

    def test_rejected_outside_tau(self, small_points):
        renderer = KDVRenderer(small_points, resolution=(20, 20))
        envelope = (np.zeros(400), np.ones(400))
        with pytest.raises(InvalidParameterError):
            renderer.render(
                RenderRequest.for_eps(
                    0.1, options=RenderOptions(tile_size=8, envelope=envelope)
                )
            )
        with pytest.raises(InvalidParameterError):
            renderer.render(
                RenderRequest.for_tau(
                    0.1,
                    options=RenderOptions(
                        tile_size=8, envelope=envelope, checkpoint="unused.json"
                    ),
                )
            )
        with pytest.raises(InvalidParameterError):
            renderer.render(
                RenderRequest.for_tau(
                    0.1,
                    options=RenderOptions(tile_size=8, envelope=(np.zeros(3), np.ones(3))),
                )
            )
