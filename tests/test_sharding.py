"""Tests for shards (repro.serve.sharding).

The load-bearing property: a dataset registered with K shards renders
exactly as the unsharded dataset — one refinement per tile, so ε and τ
tile bytes are identical for K in {1, 2, 4}, across kernels, with and
without a coreset pyramid, and ε tiles satisfy the K = 1
``|F_hat - F| <= eps*F + atol`` envelope against ground truth. Shards
only pick each tile's circuit breaker: rendezvous tile→shard routing,
per-shard breakers in ``/readyz``, the tier δ ``/stats`` publishes, and
append invalidation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exact import exact_density
from repro.errors import InvalidParameterError
from repro.serve import (
    RenderConfig,
    ServiceConfig,
    ShardingConfig,
    TileService,
)
from repro.serve.sharding import (
    ShardedDatasetRegistry,
    rendezvous_shard,
    tile_extent_key,
)

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"

TILES = [(0, 0, 0), (1, 1, 0), (2, 3, 2)]


def _service(shards: int, *, tile_px: int = 16, eps: float = 0.1) -> TileService:
    return TileService(
        config=ServiceConfig(
            render=RenderConfig(
                tile_px=tile_px, eps=eps, workers=1, deadline_ms=None
            ),
            sharding=ShardingConfig(shards=shards, min_points_per_shard=1),
        )
    )


def _tau_between_density_levels(service: TileService, dataset: str) -> float:
    """A τ that no pixel's density ties exactly (midpoint of two levels)."""
    plan = service.plan_tile(dataset, 0, 0, 0)
    centers = np.asarray(plan.resolved.grid.centers())
    renderer = service.registry.get(dataset).renderer
    values = np.unique(
        np.asarray(
            exact_density(
                renderer.points,
                centers,
                renderer.kernel,
                renderer.gamma,
                renderer.weight,
            )
        )
    )
    positive = values[values > 0]
    assert positive.size >= 2
    middle = positive.size // 2
    return float((positive[middle - 1] + positive[middle]) / 2.0)


class TestRendezvousRouting:
    def test_deterministic_and_in_range(self, small_points):
        svc = _service(4)
        try:
            svc.registry.register("crime", small_points)
            for tile in TILES:
                first = svc.plan_tile("crime", *tile)
                second = svc.plan_tile("crime", *tile)
                assert first.home_shard == second.home_shard
                assert 0 <= first.home_shard < 4
                assert first.breaker_id == f"crime#s{first.home_shard}"
        finally:
            svc.close()

    def test_single_shard_routes_to_zero(self):
        assert rendezvous_shard("crime", 1, "anything") == 0

    def test_spreads_over_shards(self, small_points):
        svc = _service(4)
        try:
            svc.registry.register("crime", small_points)
            homes = set()
            for z in (2, 3):
                for x in range(2**z):
                    for y in range(2**z):
                        homes.add(svc.plan_tile("crime", z, x, y).home_shard)
            assert homes == {0, 1, 2, 3}
        finally:
            svc.close()

    def test_extent_key_distinguishes_tiles(self, small_points):
        svc = _service(2)
        try:
            svc.registry.register("crime", small_points)
            keys = {
                tile_extent_key(svc.plan_tile("crime", *tile).resolved.grid)
                for tile in TILES
            }
            assert len(keys) == len(TILES)
        finally:
            svc.close()


class TestShardedEqualsUnsharded:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
    def test_tau_masks_bit_identical(self, small_points, shards, kernel):
        baseline = _service(1)
        sharded = _service(shards)
        try:
            baseline.registry.register("crime", small_points, kernel=kernel)
            sharded.registry.register("crime", small_points, kernel=kernel)
            assert sharded.registry.get("crime").shards == shards
            tau = _tau_between_density_levels(baseline, "crime")
            for tile in TILES:
                expected, _ = baseline.get_tile("crime", *tile, tau=tau)
                actual, _ = sharded.get_tile("crime", *tile, tau=tau)
                assert expected.startswith(PNG_SIGNATURE)
                assert actual == expected, f"τ tile {tile} differs at K={shards}"
        finally:
            baseline.close()
            sharded.close()

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
    def test_tau_masks_bit_identical_with_coreset(self, small_points, shards, kernel):
        # z0 and z1 decide against the coreset tier's density, z2 against
        # the exact tree's; neither may depend on the shard count.
        baseline = _service(1)
        sharded = _service(shards)
        try:
            for svc in (baseline, sharded):
                svc.registry.register(
                    "crime", small_points, kernel=kernel, coreset_zoom=2
                )
            tau = _tau_between_density_levels(baseline, "crime")
            for tile in TILES:
                expected, _ = baseline.get_tile("crime", *tile, tau=tau)
                actual, _ = sharded.get_tile("crime", *tile, tau=tau)
                assert actual == expected, f"τ tile {tile} differs at K={shards}"
        finally:
            baseline.close()
            sharded.close()

    @pytest.mark.parametrize("coreset_zoom", [None, 2])
    def test_eps_tile_bytes_identical_across_shard_counts(
        self, small_points, coreset_zoom
    ):
        services = {shards: _service(shards) for shards in (1, 2, 4)}
        try:
            for svc in services.values():
                svc.registry.register("crime", small_points, coreset_zoom=coreset_zoom)
            for tile in TILES:
                tiles = {
                    shards: svc.get_tile("crime", *tile)[0]
                    for shards, svc in services.items()
                }
                assert tiles[2] == tiles[1], f"ε tile {tile} differs at K=2"
                assert tiles[4] == tiles[1], f"ε tile {tile} differs at K=4"
        finally:
            for svc in services.values():
                svc.close()

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
    def test_eps_tiles_stay_in_envelope(self, small_points, shards, kernel):
        eps = 0.1
        svc = _service(shards, eps=eps)
        try:
            svc.registry.register("crime", small_points, kernel=kernel)
            renderer = svc.registry.get("crime").renderer
            for tile in TILES:
                plan = svc.plan_tile("crime", *tile)
                values = np.asarray(svc._compute_values(plan)).ravel()
                centers = np.asarray(plan.resolved.grid.centers())
                truth = np.asarray(
                    exact_density(
                        renderer.points,
                        centers,
                        renderer.kernel,
                        renderer.gamma,
                        renderer.weight,
                    )
                ).ravel()
                atol = float(plan.resolved.atol)
                slack = eps * truth + atol + 1e-12
                assert np.all(np.abs(values - truth) <= slack), (
                    f"ε envelope violated on tile {tile} at K={shards}"
                )
        finally:
            svc.close()

    def test_small_dataset_clamps_to_monolithic(self, small_points):
        svc = TileService(
            config=ServiceConfig(
                render=RenderConfig(tile_px=16, workers=1, deadline_ms=None),
                sharding=ShardingConfig(shards=8, min_points_per_shard=400),
            )
        )
        try:
            entry = svc.registry.register("crime", small_points)
            # 600 points // 400 per shard -> 1 effective shard: a plain entry
            assert entry.shards == 1
            plan = svc.plan_tile("crime", 0, 0, 0)
            assert plan.shards == 1
            assert plan.breaker_id == "crime"
        finally:
            svc.close()


class TestCoresetFolding:
    def test_low_zoom_tiles_fold_shard_deltas_into_eps(self, small_points):
        eps = 0.1
        svc = _service(2, eps=eps)
        try:
            svc.registry.register(
                "crime",
                small_points,
                coreset_zoom=2,
                coreset_delta_cap=0.01,
                leaf_size=32,
            )
            plan = svc.plan_tile("crime", 0, 0, 0)
            assert plan.resolved.tier == "coreset-z0"
            assert plan.tier_delta_z is not None and plan.tier_delta_z > 0.0
            # the guarantee is against the exact density, with the
            # tier's coreset error folded into ε as at K = 1
            values = np.asarray(svc._compute_values(plan)).ravel()
            renderer = svc.registry.get("crime").renderer
            truth = np.asarray(
                exact_density(
                    renderer.points,
                    np.asarray(plan.resolved.grid.centers()),
                    renderer.kernel,
                    renderer.gamma,
                    renderer.weight,
                )
            ).ravel()
            slack = eps * truth + float(plan.resolved.atol) + 1e-12
            assert np.all(np.abs(values - truth) <= slack)
        finally:
            svc.close()


    def test_stats_publish_the_tier_delta_tiles_carry(self, small_points):
        svc = _service(2)
        try:
            entry = svc.registry.register(
                "crime", small_points, coreset_zoom=2, coreset_delta_cap=0.01
            )
            snapshot = svc.stats()["datasets"]["crime"]
            assert snapshot["sharding"] == {"shards": 2}
            assert not snapshot["sharding"].get("per_shard")
            tiers = {tier["zoom"]: tier for tier in snapshot["coreset"]["tiers"]}
            assert sorted(tiers) == [0, 1]
            cap = float(entry.renderer.weight) * entry.points.shape[0]
            for zoom in (0, 1):
                plan = svc.plan_tile("crime", zoom, 0, 0)
                assert plan.tier_delta_z is not None
                assert tiers[zoom]["delta_abs"] == pytest.approx(
                    plan.tier_delta_z * cap, rel=1e-12
                )
        finally:
            svc.close()


class TestAppendInvalidation:
    def test_append_rebuilds_shards_and_invalidates_tiles(self, small_points, rng):
        svc = _service(2)
        try:
            entry = svc.registry.register("crime", small_points)
            before_version = entry.version
            before_png, before_info = svc.get_tile("crime", 0, 0, 0)
            assert before_info["cache"] == "miss"

            extra = small_points[:64] + rng.normal(scale=0.3, size=(64, 2))
            svc.registry.append("crime", extra)

            assert entry.version == before_version + 1
            assert entry.points.shape[0] == small_points.shape[0] + 64
            assert entry.shards == 2
            assert entry.as_dict()["sharding"] == {"shards": 2}

            after_png, after_info = svc.get_tile("crime", 0, 0, 0)
            assert after_info["cache"] == "miss"  # versioned keys: no stale hit
            assert after_png != before_png
        finally:
            svc.close()


class TestObservability:
    def test_readiness_reports_per_shard_breakers(self, small_points):
        svc = _service(2)
        try:
            svc.registry.register("crime", small_points)
            ready = svc.readiness()
            assert ready["status"] == "ready"
            crime = ready["datasets"]["crime"]
            assert crime["shards"] == 2
            assert crime["breakers"] == {"crime#s0": "closed", "crime#s1": "closed"}
        finally:
            svc.close()

    def test_stats_exposes_sharding_config(self, small_points):
        svc = _service(2)
        try:
            svc.registry.register("crime", small_points)
            config = svc.stats()["config"]
            assert config["sharding"] == {"shards": 2, "min_points_per_shard": 1}
        finally:
            svc.close()

    def test_registry_effective_shards(self):
        registry = ShardedDatasetRegistry(default_shards=4, min_points_per_shard=100)
        assert registry.effective_shards(1000, None) == 4
        assert registry.effective_shards(250, None) == 2
        assert registry.effective_shards(50, None) == 1
        assert registry.effective_shards(1000, 2) == 2
        with pytest.raises(InvalidParameterError):
            registry.effective_shards(1000, 0)
