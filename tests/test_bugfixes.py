"""Regression tests for the edge-case bugfix sweep.

* τ-boundary semantics: ``F >= tau`` ⇒ hot, shared between the scalar
  and batched engines via :mod:`repro.core.stopping` (previously the
  batched path could stop on ``ub == tau`` and classify a boundary
  pixel cold).
* Tiled-render worker pool: an exception in one tile propagates, the
  other workers stop draining, and no per-worker stats are merged (so a
  retry cannot double-count).
* Z-order sample cache: keys are canonicalised eps values and the cache
  is LRU-bounded.
"""

import numpy as np
import pytest

from repro.core import stopping
from repro.core.exact import exact_density
from repro.errors import InvalidParameterError
from repro.methods.registry import create_method
from repro.visual.kdv import KDVRenderer
from repro.visual.request import RenderOptions, RenderRequest


def small_points(n=300, seed=3):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 2))


class TestStoppingRules:
    def test_tau_hot_on_equality(self):
        assert stopping.tau_is_hot(1.0, 1.0)
        assert not stopping.tau_is_hot(np.nextafter(1.0, 0.0), 1.0)

    def test_tau_cold_stop_is_strict(self):
        # ub == tau must NOT stop: F could still equal tau exactly,
        # which is hot. Stopping and classifying cold here was the bug.
        assert not stopping.tau_should_stop(0.5, 1.0, 1.0)
        assert stopping.tau_should_stop(0.5, np.nextafter(1.0, 0.0), 1.0)
        assert stopping.tau_should_stop(1.0, 1.5, 1.0)

    def test_tau_masks_match_scalar_rules(self):
        lb = np.array([1.0, 0.5, 0.5, 0.0])
        ub = np.array([1.5, 1.0, 0.9, 2.0])
        tau = 1.0
        stop = stopping.tau_stop_mask(lb, ub, tau)
        np.testing.assert_array_equal(stop, [True, False, True, False])
        hot = stopping.tau_hot_mask(lb, tau)
        np.testing.assert_array_equal(hot, [True, False, False, False])

    def test_eps_mask_matches_scalar_rule(self):
        lb = np.array([1.0, 1.0])
        ub = np.array([1.005, 1.5])
        mask = stopping.eps_stop_mask(lb, ub, 1.01, 0.0, 0.0)
        np.testing.assert_array_equal(mask, [True, False])
        assert stopping.eps_should_stop(1.0, 1.005, 1.01, 0.0, 0.0)
        assert not stopping.eps_should_stop(1.0, 1.5, 1.01, 0.0, 0.0)


class TestTauBoundary:
    """Exact-boundary τ queries on every engine and the exact method."""

    @pytest.fixture(scope="class")
    def setup(self):
        points = small_points()
        # One giant leaf: the engines refine to lb == ub == exact after
        # a single pop, so the final classification happens exactly at
        # the boundary value with no slack.
        scalar = create_method("quad", leaf_size=10_000).fit(points)
        batch = create_method("quad", leaf_size=10_000, engine="batch").fit(points)
        query = np.array([0.1, -0.2])
        exact = float(
            exact_density(points, query[None, :], "gaussian", 1.0, 1.0)[0]
        )
        return scalar, batch, query, exact

    def test_boundary_is_hot_everywhere(self, setup):
        scalar, batch, query, exact = setup
        assert scalar.query_tau(query, exact) is True
        assert bool(batch.batch_tau(query[None, :], exact)[0]) is True

    def test_just_above_boundary_is_cold_everywhere(self, setup):
        scalar, batch, query, exact = setup
        above = np.nextafter(exact, np.inf)
        assert scalar.query_tau(query, above) is False
        assert bool(batch.batch_tau(query[None, :], above)[0]) is False

    def test_just_below_boundary_is_hot_everywhere(self, setup):
        scalar, batch, query, exact = setup
        below = np.nextafter(exact, 0.0)
        assert scalar.query_tau(query, below) is True
        assert bool(batch.batch_tau(query[None, :], below)[0]) is True

    def test_exact_method_agrees(self, setup):
        __, __, query, exact = setup
        method = create_method("exact").fit(small_points())
        assert method.query_tau(query, exact) is True
        assert method.query_tau(query, np.nextafter(exact, np.inf)) is False

    def test_engines_agree_at_boundary_with_deep_tree(self):
        """Same check with a real multi-level tree refined to the end."""
        points = small_points(seed=11)
        scalar = create_method("quad", leaf_size=16).fit(points)
        batch = create_method("quad", leaf_size=16, engine="batch").fit(points)
        queries = points[:8]
        exact = exact_density(points, queries, "gaussian", 1.0, 1.0)
        for tau in (exact[3], np.nextafter(exact[3], np.inf)):
            scalar_mask = np.array(
                [scalar.query_tau(q, float(tau)) for q in queries], dtype=bool
            )
            batch_mask = batch.batch_tau(queries, float(tau))
            np.testing.assert_array_equal(scalar_mask, batch_mask)
            np.testing.assert_array_equal(scalar_mask, exact >= float(tau))


class TestWorkerPoolErrors:
    """Strict tiled renders fail fast on the in-process tile driver."""

    def make_renderer(self):
        return KDVRenderer(small_points(), resolution=(16, 12), leaf_size=64)

    @staticmethod
    def render_tiled(renderer, tile_size):
        options = RenderOptions(tile_size=tile_size)
        return renderer.render(RenderRequest.for_eps(0.05, "quad", options=options))

    def test_tile_error_propagates(self, monkeypatch):
        from repro.core.batch_engine import BatchRefinementEngine

        renderer = self.make_renderer()
        fitted = renderer.get_method("quad")
        original = BatchRefinementEngine.query_eps_bounds
        calls = {"n": 0}

        def flaky(self, queries, eps, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("tile exploded")
            return original(self, queries, eps, **kwargs)

        monkeypatch.setattr(BatchRefinementEngine, "query_eps_bounds", flaky)
        fitted.stats.reset()
        with pytest.raises(RuntimeError, match="tile exploded"):
            self.render_tiled(renderer, 4)

    def test_no_stats_merged_on_failure(self, monkeypatch):
        from repro.core.batch_engine import BatchRefinementEngine

        renderer = self.make_renderer()
        fitted = renderer.get_method("quad")
        original = BatchRefinementEngine.query_eps_bounds
        calls = {"n": 0}

        def fail_third(self, queries, eps, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("boom")
            return original(self, queries, eps, **kwargs)

        monkeypatch.setattr(BatchRefinementEngine, "query_eps_bounds", fail_third)
        fitted.stats.reset()
        with pytest.raises(RuntimeError):
            self.render_tiled(renderer, 4)
        # All-or-nothing: the two tiles refined before the failure must
        # not leak their work into the method's ledger.
        assert fitted.stats.as_dict() == {
            key: 0 for key in fitted.stats.as_dict()
        }
        monkeypatch.setattr(BatchRefinementEngine, "query_eps_bounds", original)
        image = self.render_tiled(renderer, 4)
        direct = renderer.render_eps(0.05, "quad")
        exact = renderer.render_exact()
        assert np.all(np.abs(image - exact) <= 0.05 * exact + 1e-9 * renderer.weight)
        assert np.all(np.abs(direct - exact) <= 0.05 * exact + 1e-9 * renderer.weight)

    def test_remaining_tiles_stop_after_failure(self, monkeypatch):
        from repro.core.batch_engine import BatchRefinementEngine

        renderer = self.make_renderer()
        renderer.get_method("quad")
        calls = {"n": 0}

        def always_fail(self, queries, eps, **kwargs):
            calls["n"] += 1
            raise RuntimeError("boom")

        monkeypatch.setattr(BatchRefinementEngine, "query_eps_bounds", always_fail)
        with pytest.raises(RuntimeError):
            self.render_tiled(renderer, 2)
        # 16x12 grid at tile_size=2 is 48 tiles; the first failure ends
        # the render before any further tile starts.
        assert calls["n"] == 1


class TestZOrderSampleCache:
    def test_float_noise_eps_keys_collide(self):
        method = create_method("zorder").fit(small_points())
        first = method.sample_for(0.3)
        second = method.sample_for(0.1 + 0.2)  # 0.30000000000000004
        assert first[0] is second[0]
        assert len(method._samples) == 1

    def test_cache_is_bounded_lru(self):
        from repro.methods.zorder import SAMPLE_CACHE_SIZE

        method = create_method("zorder").fit(small_points())
        eps_values = [0.1 + 0.05 * i for i in range(SAMPLE_CACHE_SIZE + 3)]
        for eps in eps_values:
            method.sample_for(eps)
        assert len(method._samples) == SAMPLE_CACHE_SIZE
        # Oldest entries were evicted, newest survive.
        surviving = list(method._samples)
        assert surviving[-1] == pytest.approx(eps_values[-1])

    def test_lru_touch_on_hit(self):
        from repro.methods.zorder import SAMPLE_CACHE_SIZE

        method = create_method("zorder").fit(small_points())
        for i in range(SAMPLE_CACHE_SIZE):
            method.sample_for(0.1 + 0.05 * i)
        kept = method.sample_for(0.1)  # touch the oldest entry
        method.sample_for(0.9)  # evicts the LRU entry, not 0.1
        assert method.sample_for(0.1)[0] is kept[0]

    def test_invalid_eps_still_rejected(self):
        method = create_method("zorder").fit(small_points())
        with pytest.raises(InvalidParameterError):
            method.sample_for(0.0)
