"""Tests for the nested ServiceConfig groups.

Covers nested construction, rejection of flat keywords, validation
errors, and the ``to_dict`` / ``from_dict`` / ``from_env`` round trips.
"""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError
from repro.serve import (
    CacheConfig,
    RenderConfig,
    ResilienceConfig,
    ServiceConfig,
    ShardingConfig,
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
        sharding = ShardingConfig(shards=4, min_points_per_shard=8)
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
        with pytest.raises(InvalidParameterError):
            ShardingConfig(min_points_per_shard=0)


class TestSerialisation:
    def test_to_dict_from_dict_round_trip(self):
        config = ServiceConfig(
            render=RenderConfig(tile_px=64, eps=0.1, tau=0.25),
            cache=CacheConfig(png_bytes=1 << 20, ttl_s=60.0),
            resilience=ResilienceConfig(queue_limit=9, degraded_serving=False),
            sharding=ShardingConfig(shards=4, min_points_per_shard=16),
        )
        payload = config.to_dict()
        assert set(payload) == {"render", "cache", "resilience", "sharding"}
        assert payload["sharding"] == {"shards": 4, "min_points_per_shard": 16}
        assert ServiceConfig.from_dict(payload) == config

    def test_from_dict_partial_groups_keep_defaults(self):
        config = ServiceConfig.from_dict({"sharding": {"shards": 2}})
        assert config.sharding.shards == 2
        assert config.render == RenderConfig()

    def test_from_dict_unknown_group_rejected(self):
        with pytest.raises(InvalidParameterError):
            ServiceConfig.from_dict({"renderer": {}})

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
