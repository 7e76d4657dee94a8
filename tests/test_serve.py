"""Tests for the tile service stack (repro.serve).

Covers tile addressing (seam-free pyramids), the dataset registry
(shared indexes, versioned appends, invalidation), the service itself
(cache hit byte-identity verified through the obs counters, cache-on vs
cache-off identity, the root-bounds short-circuit, single-flight dedup
under real concurrency, backpressure, deadlines) and the asyncio HTTP
layer end to end on an ephemeral port.
"""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.errors import (
    DatasetNotFoundError,
    DeadlineExceededError,
    InvalidParameterError,
    ServiceOverloadedError,
)
from repro.serve import (
    DatasetRegistry,
    RenderConfig,
    ResilienceConfig,
    ServiceConfig,
    TileServer,
    TileService,
    tile_count,
    tile_grid,
    validate_tile,
)

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


@pytest.fixture(scope="module")
def service(small_points):
    svc = TileService(
        config=ServiceConfig(
            render=RenderConfig(tile_px=32, eps=0.1, workers=2, deadline_ms=None),
        )
    )
    svc.registry.register("crime", small_points)
    yield svc
    svc.close()


class TestTileMath:
    def test_tile_count_doubles_per_zoom(self):
        assert [tile_count(z) for z in range(4)] == [1, 2, 4, 8]

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            validate_tile(-1, 0, 0)
        with pytest.raises(InvalidParameterError):
            validate_tile(1, 2, 0)
        with pytest.raises(InvalidParameterError):
            validate_tile(1, 0, -1)
        with pytest.raises(InvalidParameterError):
            validate_tile(3, 0, 0, max_zoom=2)

    def test_zoom_zero_covers_the_base_viewport(self, small_points):
        from repro.visual.grid import PixelGrid

        base = PixelGrid(64, 64, np.array([0.0, 0.0]), np.array([4.0, 2.0]))
        tile = tile_grid(base, 0, 0, 0, tile_px=32)
        np.testing.assert_array_equal(tile.low, base.low)
        np.testing.assert_array_equal(tile.high, base.high)
        assert tile.width == tile.height == 32

    def test_adjacent_tiles_share_edges_exactly(self):
        from repro.visual.grid import PixelGrid

        base = PixelGrid(
            64, 64, np.array([0.1, -3.7]), np.array([7.3, 11.9])
        )
        for z in (1, 2, 3):
            for x in range(tile_count(z) - 1):
                left = tile_grid(base, z, x, 0, tile_px=8)
                right = tile_grid(base, z, x + 1, 0, tile_px=8)
                assert left.high[0] == right.low[0]  # lint: allow-float-eq -- seam identity is the contract
        top_row = tile_grid(base, 2, 0, 3, tile_px=8)
        assert top_row.high[1] == base.high[1]  # lint: allow-float-eq -- seam identity is the contract


class TestDatasetRegistry:
    def test_register_get_roundtrip(self, small_points):
        registry = DatasetRegistry()
        entry = registry.register("demo", small_points)
        assert registry.get("demo") is entry
        assert entry.versioned_id() == "demo@v1"
        assert "demo" in registry and len(registry) == 1

    def test_unknown_dataset_raises(self):
        with pytest.raises(DatasetNotFoundError):
            DatasetRegistry().get("nope")

    def test_duplicate_and_bad_ids_rejected(self, small_points):
        registry = DatasetRegistry()
        registry.register("demo", small_points)
        with pytest.raises(InvalidParameterError):
            registry.register("demo", small_points)
        with pytest.raises(InvalidParameterError):
            registry.register("a/b", small_points)

    def test_append_bumps_version_and_invalidates(self, small_points):
        invalidated = []
        registry = DatasetRegistry(on_invalidate=invalidated.append)
        entry = registry.register("demo", small_points)
        base_grid = entry.base_grid
        count = registry.append("demo", small_points[:50])
        assert count == small_points.shape[0] + 50
        assert entry.versioned_id() == "demo@v2"
        assert invalidated == ["demo"]
        # Tile addressing must stay stable across appends.
        assert entry.base_grid is base_grid

    def test_append_validates_shape(self, small_points):
        registry = DatasetRegistry()
        registry.register("demo", small_points)
        with pytest.raises(InvalidParameterError):
            registry.append("demo", np.zeros((4, 3)))


class TestTileService:
    def test_cold_miss_then_warm_hit_byte_identical(self, service):
        before = service.metrics.counter("tile_cache.png.hits").value
        cold, cold_info = service.get_tile("crime", 1, 0, 1)
        warm, warm_info = service.get_tile("crime", 1, 0, 1)
        assert cold_info["cache"] == "miss"
        assert warm_info["cache"] == "hit"
        assert warm == cold
        assert cold.startswith(PNG_SIGNATURE)
        assert service.metrics.counter("tile_cache.png.hits").value == before + 1

    def test_cache_off_renders_identical_bytes(self, service, small_points):
        warm, _ = service.get_tile("crime", 1, 1, 0)
        # A fresh service with an empty cache must produce the same bytes.
        fresh = TileService(
            config=ServiceConfig(
                render=RenderConfig(tile_px=32, eps=0.1, workers=2, deadline_ms=None),
            )
        )
        try:
            fresh.registry.register("crime", small_points)
            cold, info = fresh.get_tile("crime", 1, 1, 0)
            assert info["cache"] == "miss"
            assert cold == warm
        finally:
            fresh.close()

    def test_cleared_cache_rerenders_identical_bytes(self, service):
        first, _ = service.get_tile("crime", 2, 1, 1)
        service.cache.clear()
        second, info = service.get_tile("crime", 2, 1, 1)
        assert info["cache"] == "miss"
        assert second == first

    def test_density_level_survives_colormap_change(self, service):
        service.cache.clear()
        service.get_tile("crime", 1, 0, 0, colormap="density")
        renders_before = service.metrics.counter("tiles.renders").value
        recoloured, info = service.get_tile("crime", 1, 0, 0, colormap="heat")
        assert info["cache"] == "miss"  # different PNG key...
        # ...but the density level fed it: no new refinement happened.
        assert service.metrics.counter("tiles.renders").value == renders_before + 1
        hits = service.metrics.counter("tile_cache.density.hits").value
        assert hits >= 1
        assert recoloured.startswith(PNG_SIGNATURE)

    def test_bounds_shortcircuit_is_bit_identical(self, service):
        # A very high tau: every root upper bound sits below it, so the
        # whole tile is decided at the root without refinement.
        tau_cold = 1e9
        before = service.metrics.counter("tiles.bounds_shortcircuit").value
        png, _ = service.get_tile("crime", 0, 0, 0, tau=tau_cold)
        assert service.metrics.counter("tiles.bounds_shortcircuit").value == before + 1
        # Bit-identity against the full engine render, bypassing every
        # cache level.
        plan = service.plan_tile("crime", 0, 0, 0, tau=tau_cold)
        full = service._render_full(plan)
        shortcut = service.cache.get_density(plan.density_key)
        np.testing.assert_array_equal(np.asarray(shortcut), np.asarray(full))

    def test_bounds_level_reused_across_parameters(self, service):
        from repro.core.exact import exact_density

        service.cache.clear()
        plan = service.plan_tile("crime", 1, 1, 1, eps=0.2)
        service.get_tile("crime", 1, 1, 1, eps=0.2)
        lower, upper = (
            np.array(bound) for bound in service.cache.get_bounds(plan.bounds_key)
        )
        # L3 holds the render's final envelope: inside the root bounds,
        # tighter somewhere, and still enclosing the exact density.
        renderer = plan.renderer
        centers = plan.resolved.grid.centers()
        root_lower, root_upper = renderer.get_method("quad").batch_engine.root_envelope(
            centers
        )
        assert np.all(lower >= root_lower) and np.all(upper <= root_upper)
        assert np.any(upper - lower < root_upper - root_lower)
        truth = exact_density(
            renderer.points, centers, renderer.kernel, renderer.gamma, renderer.weight
        )
        slack = 1e-9 * truth + 1e-15 * float(truth.max())
        assert np.all(lower <= truth + slack) and np.all(upper >= truth - slack)
        misses = service.metrics.counter("tile_cache.bounds.misses").value
        hits = service.metrics.counter("tile_cache.bounds.hits").value
        inserts = service.metrics.counter("tile_cache.bounds.inserts").value
        # Same viewport, different epsilon: the bounds key is identical,
        # and the second render only narrows the entry, in place.
        service.get_tile("crime", 1, 1, 1, eps=0.3)
        assert service.metrics.counter("tile_cache.bounds.misses").value == misses
        assert service.metrics.counter("tile_cache.bounds.hits").value == hits + 1
        assert service.metrics.counter("tile_cache.bounds.inserts").value == inserts
        narrowed_lower, narrowed_upper = service.cache.get_bounds(plan.bounds_key)
        assert np.all(narrowed_lower >= lower) and np.all(narrowed_upper <= upper)

    def test_single_flight_dedups_concurrent_identical_requests(self, service):
        service.cache.clear()
        renders_before = service.metrics.counter("tiles.renders").value
        plan = service.plan_tile("crime", 2, 2, 2)
        n_threads = 6
        barrier = threading.Barrier(n_threads)
        results: list[bytes] = []
        lock = threading.Lock()

        def worker():
            barrier.wait(timeout=10.0)
            data = service.render_tile(plan)
            with lock:
                results.append(data)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)

        assert len(results) == n_threads
        assert len(set(results)) == 1
        assert service.metrics.counter("tiles.renders").value == renders_before + 1

    def test_colour_range_probe_runs_once_for_concurrent_first_tiles(
        self, small_points, monkeypatch
    ):
        from repro.serve.registry import DatasetEntry

        svc = TileService(
            config=ServiceConfig(
                render=RenderConfig(tile_px=16, eps=0.1, workers=2, deadline_ms=None)
            )
        )
        try:
            svc.registry.register("crime", small_points)
            probes = []
            probe_lock = threading.Lock()
            original = DatasetEntry.coarse_density

            def slow_probe(entry, centers):
                with probe_lock:
                    probes.append(entry.versioned_id())
                # Hold the probe open long enough that the second first
                # tile arrives while it runs.
                threading.Event().wait(0.3)
                return original(entry, centers)

            monkeypatch.setattr(DatasetEntry, "coarse_density", slow_probe)
            used = []
            entry_vmax = svc._entry_vmax

            def recording_vmax(entry):
                value = entry_vmax(entry)
                with probe_lock:
                    used.append(value)
                return value

            monkeypatch.setattr(svc, "_entry_vmax", recording_vmax)
            barrier = threading.Barrier(2)
            tiles = []

            def worker(x, y):
                barrier.wait(timeout=10.0)
                data, info = svc.get_tile("crime", 1, x, y)
                with probe_lock:
                    tiles.append((info["cache"], data))

            threads = [
                threading.Thread(target=worker, args=(0, 0)),
                threading.Thread(target=worker, args=(1, 1)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)

            assert len(tiles) == 2 and all(cache == "miss" for cache, __ in tiles)
            assert probes == [svc.registry.get("crime").versioned_id()]
            assert len(used) == 2 and used[0] == used[1]
        finally:
            svc.close()

    def test_colour_range_invalidation_matches_whole_ids(self, small_points):
        # Registration allows "@v" inside ids, so a versioned key must be
        # split at its last "@v" only.
        svc = TileService(
            config=ServiceConfig(
                render=RenderConfig(tile_px=8, eps=0.1, workers=1, deadline_ms=None)
            )
        )
        try:
            for name in ("a", "a@vb"):
                svc.registry.register(name, small_points)
                svc.get_tile(name, 0, 0, 0)
            assert set(svc._vmax) == {"a@v1", "a@vb@v1"}
            svc.append_points("a@vb", small_points[:20])
            assert set(svc._vmax) == {"a@v1"}
            svc.get_tile("a@vb", 0, 0, 0)
            svc.append_points("a", small_points[:20])
            assert set(svc._vmax) == {"a@vb@v2"}
        finally:
            svc.close()

    @pytest.mark.parametrize("method, coreset_zoom", [("quad", None), ("quad", 2), ("exact", None)])
    def test_colour_probe_bounds_the_exact_peak(self, small_points, method, coreset_zoom):
        from repro.core.exact import exact_density
        from repro.serve.service import _VMAX_GRID_WIDTH

        svc = TileService(
            config=ServiceConfig(
                render=RenderConfig(tile_px=8, eps=0.1, workers=1, deadline_ms=None)
            )
        )
        try:
            entry = svc.registry.register(
                "crime", small_points, method=method, coreset_zoom=coreset_zoom
            )
            # Registration fits the method the probe refines (akde when
            # the serving method has no index), so no request fits one
            # outside the entry lock.
            fitted = dict(entry.renderer._methods)
            assert ("akde" in fitted) == (method == "exact")
            vmax = svc._entry_vmax(entry)
            assert entry.renderer._methods == fitted
            base = entry.base_grid
            coarse = base.scaled(_VMAX_GRID_WIDTH / float(base.width))
            renderer = entry.renderer
            exact_peak = float(
                exact_density(
                    renderer.points,
                    coarse.centers(),
                    renderer.kernel,
                    renderer.gamma,
                    renderer.weight,
                ).max()
            )
            assert exact_peak <= vmax <= 1.01 * exact_peak
        finally:
            svc.close()

    def test_cold_eps_tile_scans_no_point_set(self, small_points, monkeypatch):
        import sys

        import repro.core.exact as exact_module
        from repro.contracts import checking

        calls = []
        original = exact_module.exact_density

        def counting(*args, **kwargs):
            calls.append(np.asarray(args[1]).shape[0])
            return original(*args, **kwargs)

        svc = TileService(
            config=ServiceConfig(
                render=RenderConfig(tile_px=32, eps=0.1, workers=1, deadline_ms=None)
            )
        )
        try:
            svc.registry.register("crime", small_points, coreset_zoom=1)
            for name, module in list(sys.modules.items()):
                if name.startswith("repro") and getattr(module, "exact_density", None) is original:
                    monkeypatch.setattr(module, "exact_density", counting)
            # The eps-agreement contract check scans every point on
            # purpose; the serving path itself must not.
            with checking(False):
                for tile in [(0, 0, 0), (1, 1, 1)]:  # coreset tier, exact
                    __, info = svc.get_tile("crime", *tile)
                    assert info["cache"] == "miss"
            assert svc._vmax  # the colour probe ran inside the first tile
            assert calls == []
        finally:
            svc.close()

    def test_colour_probe_runs_once_per_dataset_version(self, small_points, monkeypatch):
        from repro.serve.registry import DatasetEntry

        svc = TileService(
            config=ServiceConfig(
                render=RenderConfig(tile_px=8, eps=0.1, workers=1, deadline_ms=None)
            )
        )
        try:
            svc.registry.register("crime", small_points)
            probes = []
            original = DatasetEntry.coarse_density

            def recording_probe(entry, centers):
                probes.append(entry.versioned_id())
                return original(entry, centers)

            monkeypatch.setattr(DatasetEntry, "coarse_density", recording_probe)
            for tile in [(0, 0, 0), (1, 0, 0), (1, 1, 1)]:
                svc.get_tile("crime", *tile)
            svc.append_points("crime", small_points[:20] + 0.01)
            for tile in [(0, 0, 0), (1, 0, 0)]:
                svc.get_tile("crime", *tile)
            assert probes == ["crime@v1", "crime@v2"]
        finally:
            svc.close()

    def test_backpressure_rejects_when_queue_full(self, small_points):
        svc = TileService(
            config=ServiceConfig(
                render=RenderConfig(tile_px=32, workers=1),
                resilience=ResilienceConfig(queue_limit=2),
            )
        )
        try:
            assert svc.try_acquire_slot() and svc.try_acquire_slot()
            assert svc.try_acquire_slot() is False
            with pytest.raises(ServiceOverloadedError):
                svc.acquire_slot()
            assert svc.metrics.counter("tiles.rejected").value == 2
            svc.release_slot()
            assert svc.try_acquire_slot() is True
        finally:
            svc.release_slot()
            svc.release_slot()
            svc.close()

    def test_deadline_trips_and_nothing_is_cached(self, small_points):
        svc = TileService(
            config=ServiceConfig(render=RenderConfig(tile_px=48, eps=0.001, workers=1))
        )
        try:
            svc.registry.register("crime", small_points)
            plan = svc.plan_tile("crime", 0, 0, 0, deadline_ms=1e-6)
            with pytest.raises(DeadlineExceededError):
                svc.render_tile(plan)
            assert svc.metrics.counter("tiles.degraded").value == 1
            assert svc.cached_png(plan) is None
            assert svc.cache.get_density(plan.density_key) is None
        finally:
            svc.close()

    def test_append_invalidates_and_rekeys(self, service, small_points):
        _, before_info = service.get_tile("crime", 1, 0, 0)
        assert before_info["dataset"].startswith("crime@v")
        invalidations = service.metrics.counter("tiles.invalidations").value
        service.append_points("crime", small_points[:25])
        assert service.metrics.counter("tiles.invalidations").value == invalidations + 1
        _, after_info = service.get_tile("crime", 1, 0, 0)
        assert after_info["cache"] == "miss"
        assert after_info["dataset"] != before_info["dataset"]
        assert after_info["fingerprint"] != before_info["fingerprint"]

    def test_plan_rejects_unknown_colormap_and_dataset(self, service):
        from repro.errors import UnknownNameError

        with pytest.raises(UnknownNameError):
            service.plan_tile("crime", 0, 0, 0, colormap="nope")
        with pytest.raises(DatasetNotFoundError):
            service.plan_tile("missing", 0, 0, 0)

    def test_stats_shape(self, service):
        stats = service.stats()
        assert set(stats) == {
            "uptime_s", "datasets", "cache", "metrics", "load", "config",
            "resilience",
        }
        assert "crime" in stats["datasets"]
        assert stats["load"]["queue_limit"] == 32
        resilience = stats["resilience"]
        assert resilience["draining"] is False
        assert resilience["degraded_serving"] is True
        assert isinstance(resilience["breakers"], dict)
        # Process-lifetime counters: other tests in this process may have
        # broken pools on purpose, so only assert shape and sanity.
        assert resilience["pool_breaks"] >= 0
        assert resilience["pool_rebuilds"] >= 0
        json.dumps(stats)  # must be JSON-serialisable for /stats


def _request_bookkeeping(svc):
    """The per-request counters and latency count a service recorded."""
    metrics = svc.metrics.as_dict()
    counters = {
        name: value
        for name, value in metrics["counters"].items()
        if name in ("tiles.requests", "tiles.l1_hits", "tiles.renders")
    }
    latency = metrics["histograms"].get("tiles.request_s", {"count": 0})
    return counters, latency["count"]


class TestHttpServer:
    def test_http_requests_keep_get_tile_bookkeeping(self, small_points):
        """HTTP tile requests record what the same get_tile calls record."""
        paths = ["/tile/crime/1/0/1.png"] * 3 + ["/tile/crime/1/1/1.png"]
        config = ServiceConfig(
            render=RenderConfig(tile_px=32, eps=0.1, workers=2, deadline_ms=None)
        )
        direct = TileService(config=config)
        served = TileService(config=config)
        try:
            direct.registry.register("crime", small_points)
            served.registry.register("crime", small_points)
            for path in paths:
                z, x, y = (int(part) for part in path[12:-4].split("/"))
                direct.get_tile("crime", z, x, y)

            def fetch(url):
                with urllib.request.urlopen(url, timeout=30) as response:
                    return response.status

            async def scenario():
                server = await TileServer(served, port=0).start()
                loop = asyncio.get_running_loop()
                try:
                    for path in paths:
                        status = await loop.run_in_executor(
                            None, fetch, server.url + path
                        )
                        assert status == 200
                finally:
                    await server.stop()

            asyncio.run(scenario())
            counters, latencies = _request_bookkeeping(served)
            assert latencies == len(paths)
            assert counters == {
                "tiles.requests": 4, "tiles.l1_hits": 2, "tiles.renders": 2,
            }
            assert (counters, latencies) == _request_bookkeeping(direct)
        finally:
            direct.close()
            served.close()

    def test_end_to_end(self, small_points):
        svc = TileService(
            config=ServiceConfig(
                render=RenderConfig(tile_px=32, eps=0.1, workers=2, deadline_ms=None),
            )
        )
        svc.registry.register("crime", small_points)

        def fetch(url, path):
            try:
                response = urllib.request.urlopen(url + path, timeout=30)
                return response.status, dict(response.headers), response.read()
            except urllib.error.HTTPError as error:
                return error.code, dict(error.headers), error.read()

        async def scenario():
            server = await TileServer(svc, port=0).start()
            url = server.url
            loop = asyncio.get_running_loop()

            async def get(path):
                return await loop.run_in_executor(None, fetch, url, path)

            status, headers, body = await get("/tile/crime/1/0/1.png")
            assert status == 200
            assert headers["X-Cache"] == "miss"
            assert body.startswith(PNG_SIGNATURE)

            status2, headers2, body2 = await get("/tile/crime/1/0/1.png")
            assert status2 == 200
            assert headers2["X-Cache"] == "hit"
            assert body2 == body

            status3, _, stats_body = await get("/stats")
            assert status3 == 200
            stats = json.loads(stats_body)
            assert "crime" in stats["datasets"]

            for path, expected in [
                ("/tile/ghost/0/0/0.png", 404),
                ("/tile/crime/1/7/0.png", 400),
                ("/tile/crime/0/0/0.png?eps=abc", 400),
                ("/nothing", 404),
            ]:
                status_err, _, _ = await get(path)
                assert status_err == expected, path

            status4, _, health = await get("/healthz")
            assert status4 == 200 and json.loads(health) == {"status": "ok"}
            await server.stop()

        try:
            asyncio.run(scenario())
        finally:
            svc.close()
