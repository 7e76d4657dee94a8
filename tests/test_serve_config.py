"""Tests for the nested ServiceConfig groups.

Covers nested construction, rejection of flat keywords, validation
errors, the ``to_dict`` / ``from_dict`` / ``from_env`` round trips, and
the shard count that is accepted and changes nothing.
"""

from __future__ import annotations

import asyncio
import json
import urllib.request

import pytest

from repro.errors import InvalidParameterError
from repro.serve import (
    CacheConfig,
    RenderConfig,
    ResilienceConfig,
    ServiceConfig,
    ShardingConfig,
    TileServer,
    TileService,
)


class TestNestedConstruction:
    def test_defaults_match_group_defaults(self):
        config = ServiceConfig()
        assert config.render == RenderConfig()
        assert config.cache == CacheConfig()
        assert config.resilience == ResilienceConfig()
        assert config.sharding == ShardingConfig()

    def test_groups_pass_through(self):
        render = RenderConfig(tile_px=64, eps=0.2, workers=1)
        sharding = ShardingConfig(shards=4)
        config = ServiceConfig(render=render, sharding=sharding)
        assert config.render is render
        assert config.sharding is sharding
        assert config.cache == CacheConfig()

    def test_wrong_group_type_rejected(self):
        with pytest.raises(InvalidParameterError, match="render="):
            ServiceConfig(render=CacheConfig())

    def test_immutable(self):
        config = ServiceConfig()
        with pytest.raises(AttributeError):
            config.render = RenderConfig()

    def test_eq_and_hash(self):
        a = ServiceConfig(render=RenderConfig(eps=0.1))
        b = ServiceConfig(render=RenderConfig(eps=0.1))
        c = ServiceConfig(render=RenderConfig(eps=0.2))
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_replace_swaps_whole_groups(self):
        base = ServiceConfig()
        swapped = base.replace(sharding=ShardingConfig(shards=2))
        assert swapped.sharding.shards == 2
        assert swapped.render == base.render
        with pytest.raises(InvalidParameterError):
            base.replace(eps=0.1)


class TestFlatKwargShim:
    def test_unknown_kwarg_rejected(self):
        # Only the four groups are keywords; flat names are unknown.
        with pytest.raises(TypeError, match="nope"):
            ServiceConfig(nope=1)
        with pytest.raises(TypeError, match="eps"):
            ServiceConfig(eps=0.1)
        assert not hasattr(ServiceConfig(), "eps")


class TestValidation:
    def test_invalid_values_raise(self):
        with pytest.raises(InvalidParameterError):
            RenderConfig(tile_px=0)
        with pytest.raises(InvalidParameterError):
            RenderConfig(workers=0)
        with pytest.raises(InvalidParameterError):
            RenderConfig(render_workers=0)
        # The render defaults fail at construction, naming the field,
        # instead of on every tile.
        for field, value in (
            ("colormap", "bogus"),
            ("colormap", None),
            ("eps", 0),
            ("eps", float("nan")),
            ("tau", float("inf")),
            ("deadline_ms", -5),
        ):
            with pytest.raises(InvalidParameterError, match=field):
                RenderConfig(**{field: value})
        with pytest.raises(InvalidParameterError):
            CacheConfig(png_bytes=0)
        with pytest.raises(InvalidParameterError):
            CacheConfig(ttl_s=0.0)
        with pytest.raises(InvalidParameterError):
            ResilienceConfig(queue_limit=0)
        with pytest.raises(InvalidParameterError):
            ResilienceConfig(breaker_threshold=0)
        with pytest.raises(InvalidParameterError):
            ShardingConfig(shards=0)


class TestSerialisation:
    def test_to_dict_from_dict_round_trip(self):
        config = ServiceConfig(
            render=RenderConfig(tile_px=64, eps=0.1, tau=0.25),
            cache=CacheConfig(png_bytes=1 << 20, ttl_s=60.0),
            resilience=ResilienceConfig(queue_limit=9, degraded_serving=False),
            sharding=ShardingConfig(shards=4),
        )
        payload = config.to_dict()
        assert set(payload) == {"render", "cache", "resilience", "sharding"}
        assert payload["sharding"] == {"shards": 4}
        assert ServiceConfig.from_dict(payload) == config

    def test_from_dict_partial_groups_keep_defaults(self):
        config = ServiceConfig.from_dict({"sharding": {"shards": 2}})
        assert config.sharding.shards == 2
        assert config.render == RenderConfig()

    def test_from_dict_unknown_group_rejected(self):
        with pytest.raises(InvalidParameterError):
            ServiceConfig.from_dict({"renderer": {}})

    def test_from_dict_unknown_field_rejected_by_name(self):
        # The path a snapshot takes that still carries a field this
        # version dropped (such as 4.x's shard clamp).
        with pytest.raises(InvalidParameterError, match=r"render\.bogus"):
            ServiceConfig.from_dict({"render": {"bogus": 1}})
        with pytest.raises(InvalidParameterError, match=r"sharding\.clamp"):
            ServiceConfig.from_dict({"sharding": {"shards": 2, "clamp": 64}})

    def test_from_env_round_trip(self):
        environ = {
            "REPRO_SERVE_RENDER_EPS": "0.1",
            "REPRO_SERVE_RENDER_TILE_PX": "64",
            "REPRO_SERVE_RENDER_DEADLINE_MS": "none",
            "REPRO_SERVE_CACHE_PNG_BYTES": "1048576",
            "REPRO_SERVE_RESILIENCE_DEGRADED_SERVING": "false",
            "REPRO_SERVE_SHARDING_SHARDS": "4",
            "UNRELATED": "ignored",
        }
        config = ServiceConfig.from_env(environ)
        assert config.render.eps == 0.1
        assert config.render.tile_px == 64
        assert config.render.deadline_ms is None
        assert config.cache.png_bytes == 1048576
        assert config.resilience.degraded_serving is False
        assert config.sharding.shards == 4
        # the env snapshot and the dict snapshot agree
        assert ServiceConfig.from_dict(config.to_dict()) == config

    def test_from_env_empty_is_default(self):
        assert ServiceConfig.from_env({}) == ServiceConfig()

    def test_from_env_bad_values_raise(self):
        with pytest.raises(InvalidParameterError):
            ServiceConfig.from_env({"REPRO_SERVE_RENDER_TILE_PX": "lots"})
        with pytest.raises(InvalidParameterError, match="colormap"):
            ServiceConfig.from_env({"REPRO_SERVE_RENDER_COLORMAP": "none"})
        with pytest.raises(InvalidParameterError):
            ServiceConfig.from_env(
                {"REPRO_SERVE_RESILIENCE_DEGRADED_SERVING": "maybe"}
            )


class TestShardsAreANoOp:
    """``ShardingConfig(shards=)`` and ``register(..., shards=)`` change nothing."""

    def test_shards_change_nothing(self, small_points):
        render = RenderConfig(tile_px=16, eps=0.1, workers=1, deadline_ms=None)
        plain = TileService(config=ServiceConfig(render=render))
        sharded = TileService(
            config=ServiceConfig(render=render, sharding=ShardingConfig(shards=4))
        )

        def fetch(url):
            with urllib.request.urlopen(url, timeout=30) as response:
                return dict(response.headers), response.read()

        async def served(svc, paths):
            server = await TileServer(svc, port=0).start()
            loop = asyncio.get_running_loop()
            try:
                return [
                    await loop.run_in_executor(None, fetch, server.url + path)
                    for path in paths
                ]
            finally:
                await server.stop()

        try:
            plain.registry.register("crime", small_points, coreset_zoom=2)
            sharded.registry.register("crime", small_points, coreset_zoom=2, shards=4)
            tiles = ["/tile/crime/0/0/0.png", "/tile/crime/2/3/2.png?tau=0.001"]
            expected = asyncio.run(served(plain, tiles))
            got = asyncio.run(served(sharded, tiles + ["/readyz", "/stats"]))
            for (headers, body), (plain_headers, plain_body) in zip(got, expected):
                assert body == plain_body
                assert set(headers) == set(plain_headers)  # no shard header
            ready, stats = (json.loads(body) for __, body in got[2:])
            assert ready["datasets"] == {"crime": {"breaker": "closed"}}
            assert list(stats["resilience"]["breakers"]) == ["crime"]
            assert "sharding" not in stats["config"]
            assert "sharding" not in stats["datasets"]["crime"]
            # Both still reject a shard count below 1.
            with pytest.raises(InvalidParameterError, match="shards"):
                ShardingConfig(shards=0)
            with pytest.raises(InvalidParameterError, match="shards"):
                plain.registry.register("other", small_points, shards=0)
            assert "other" not in plain.registry
        finally:
            plain.close()
            sharded.close()
