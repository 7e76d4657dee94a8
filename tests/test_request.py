"""Tests for the unified RenderRequest/RenderOptions API.

Pins down the three contracts the tile service is built on:

* fingerprint correctness — value-shaping fields split the key,
  execution knobs (except ``tile_size``) do not;
* ``render(request)`` is bit-identical to the bare ``render_eps`` /
  ``render_tau`` shorthands;
* the shorthands stay silent and take no execution keywords (those
  live on :class:`RenderOptions`).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.resilience.result import RenderOutcome
from repro.visual.grid import PixelGrid
from repro.visual.kdv import KDVRenderer
from repro.visual.request import OP_EPS, OP_TAU, RenderOptions, RenderRequest


@pytest.fixture(scope="module")
def renderer(small_points):
    return KDVRenderer(small_points, resolution=(48, 36))


@pytest.fixture(scope="module")
def tau_value(renderer):
    mu, sigma = renderer.density_stats()
    return mu + 0.2 * sigma


class TestValidation:
    def test_op_must_be_known(self):
        with pytest.raises(InvalidParameterError):
            RenderRequest(op="both", eps=0.1)

    def test_eps_render_requires_eps(self):
        with pytest.raises(InvalidParameterError):
            RenderRequest(op=OP_EPS)

    def test_eps_render_rejects_tau(self):
        with pytest.raises(InvalidParameterError):
            RenderRequest(op=OP_EPS, eps=0.1, tau=1.0)

    def test_tau_render_requires_finite_tau(self):
        with pytest.raises(InvalidParameterError):
            RenderRequest(op=OP_TAU, tau=float("nan"))

    def test_eps_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            RenderRequest.for_eps(-0.5)

    def test_options_validate_tile_size(self):
        with pytest.raises(InvalidParameterError):
            RenderOptions(tile_size=0)

    def test_options_validate_workers(self):
        with pytest.raises(InvalidParameterError):
            RenderOptions(workers=0)


class TestFingerprint:
    def test_unresolved_request_cannot_fingerprint(self):
        with pytest.raises(InvalidParameterError):
            RenderRequest.for_eps(0.1).fingerprint()

    def test_method_instance_cannot_fingerprint(self, renderer):
        request = RenderRequest.for_eps(0.1, renderer.get_method("quad"))
        with pytest.raises(InvalidParameterError):
            request.resolve(renderer).fingerprint()

    def test_equal_requests_hash_equal(self, renderer):
        a = RenderRequest.for_eps(0.05).resolve(renderer)
        b = RenderRequest.for_eps(0.05).resolve(renderer)
        assert a.fingerprint() == b.fingerprint()

    def test_value_fields_split_the_key(self, renderer, tau_value):
        base = RenderRequest.for_eps(0.05).resolve(renderer)
        prints = {
            base.fingerprint(),
            RenderRequest.for_eps(0.06).resolve(renderer).fingerprint(),
            RenderRequest.for_eps(0.05, "karl").resolve(renderer).fingerprint(),
            RenderRequest.for_tau(tau_value).resolve(renderer).fingerprint(),
        }
        assert len(prints) == 4

    def test_grid_geometry_splits_the_key(self, renderer):
        base = RenderRequest.for_eps(0.05).resolve(renderer)
        grid = PixelGrid(
            renderer.grid.width,
            renderer.grid.height,
            renderer.grid.low,
            renderer.grid.high + 0.25,
        )
        moved = RenderRequest.for_eps(0.05, grid=grid).resolve(renderer)
        assert base.fingerprint() != moved.fingerprint()

    def test_tile_size_participates(self, renderer):
        plain = RenderRequest.for_eps(0.05).resolve(renderer)
        tiled = RenderRequest.for_eps(
            0.05, options=RenderOptions(tile_size=16)
        ).resolve(renderer)
        assert plain.fingerprint() != tiled.fingerprint()

    def test_tile_size_int_and_pair_are_one_key(self, renderer):
        square = RenderRequest.for_eps(
            0.05, options=RenderOptions(tile_size=16)
        ).resolve(renderer)
        pair = RenderRequest.for_eps(
            0.05, options=RenderOptions(tile_size=(16, 16))
        ).resolve(renderer)
        assert square.fingerprint() == pair.fingerprint()

    def test_execution_knobs_do_not_participate(self, renderer):
        from repro.resilience import Budget

        plain = RenderRequest.for_eps(0.05).resolve(renderer)
        busy = RenderRequest.for_eps(
            0.05,
            options=RenderOptions(
                workers=4, budget=Budget.from_deadline_ms(1000), anytime=True
            ),
        ).resolve(renderer)
        assert plain.fingerprint() == busy.fingerprint()

    def test_extra_context_splits_the_key(self, renderer):
        resolved = RenderRequest.for_eps(0.05).resolve(renderer)
        assert resolved.fingerprint(
            extra={"tile": [1, 0, 0]}
        ) != resolved.fingerprint(extra={"tile": [1, 0, 1]})

    def test_resolve_rejects_mismatched_kernel(self, renderer):
        with pytest.raises(InvalidParameterError):
            RenderRequest.for_eps(0.05, kernel="epanechnikov").resolve(renderer)

    def test_resolve_rejects_mismatched_gamma(self, renderer):
        with pytest.raises(InvalidParameterError):
            RenderRequest.for_eps(
                0.05, gamma=float(renderer.gamma) * 2.0
            ).resolve(renderer)

    def test_resolve_fills_defaults(self, renderer):
        resolved = RenderRequest.for_eps(0.05).resolve(renderer)
        assert resolved.kernel == renderer.kernel.name
        assert resolved.gamma == pytest.approx(float(renderer.gamma))
        assert resolved.grid is renderer.grid
        assert resolved.atol == pytest.approx(1e-9 * float(renderer.weight))


class TestRenderEntrypoint:
    def test_eps_request_matches_legacy(self, renderer):
        via_request = renderer.render(RenderRequest.for_eps(0.02))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # shim must stay silent here
            legacy = renderer.render_eps(0.02)
        np.testing.assert_array_equal(via_request, legacy)

    def test_tau_request_matches_legacy(self, renderer, tau_value):
        via_request = renderer.render(RenderRequest.for_tau(tau_value))
        legacy = renderer.render_tau(tau_value)
        np.testing.assert_array_equal(via_request, legacy)

    def test_anytime_returns_outcome(self, renderer):
        outcome = renderer.render(
            RenderRequest.for_eps(
                0.05, options=RenderOptions(tile_size=16, anytime=True)
            )
        )
        assert isinstance(outcome, RenderOutcome)
        assert outcome.degraded is None

    def test_different_grid_renders_through_clone(self, renderer):
        grid = PixelGrid(24, 18, renderer.grid.low, renderer.grid.high)
        image = renderer.render(RenderRequest.for_eps(0.05, grid=grid))
        assert image.shape == (18, 24)


class TestDeprecationShim:
    """The bare ``render_eps`` / ``render_tau`` shorthands."""

    def test_bare_legacy_calls_stay_silent(self, renderer, tau_value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            renderer.render_eps(0.05)
            renderer.render_tau(tau_value)

    def test_execution_kwargs_rejected(self, renderer, tau_value):
        with pytest.raises(TypeError, match="tile_size"):
            renderer.render_eps(0.05, tile_size=16)
        with pytest.raises(TypeError, match="tile_size"):
            renderer.render_tau(tau_value, tile_size=16)
        assert not hasattr(renderer, "render_eps_anytime")
        assert not hasattr(renderer, "render_tau_anytime")

    def test_workers_kwarg_rejected(self, renderer, tau_value):
        with pytest.raises(TypeError, match="workers"):
            renderer.render_eps(0.05, workers=2)
        with pytest.raises(TypeError, match="workers"):
            renderer.render_tau(tau_value, workers=2)

    def test_shim_result_equals_request_result(self, renderer):
        legacy = renderer.render_eps(0.03, "quad", atol=0.0)
        via_request = renderer.render(RenderRequest.for_eps(0.03, "quad", atol=0.0))
        np.testing.assert_array_equal(legacy, via_request)
