"""Tests for the self-healing stack (supervision, breakers, degraded serving).

Covers the :mod:`repro.resilience.supervisor` state machines under an
injectable clock, worker-kill recovery through the supervised process
pool (bit-identical to the fault-free render), the
:meth:`~repro.serve.TileService.serve_tile` degrade ladder (partial,
stale, circuit-open), the SingleFlight poison regression, drain-on-close
semantics, and the HTTP error contract (stable ``code`` fields,
``Retry-After`` on every 503/504, degradation headers, no leaked
internals) through the real asyncio server.
"""

from __future__ import annotations

import asyncio
import gc
import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    InvalidParameterError,
    WorkerPoolBrokenError,
)
from repro.resilience.faults import FAULT_WORKER_KILL, FaultPlan, fault_fires
from repro.resilience.supervisor import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    PoolSupervisor,
)
from repro.serve import (
    RenderConfig,
    ResilienceConfig,
    ServiceConfig,
    TileServer,
    TileService,
)
from repro.visual.executors import close_render_pools, render_pool

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"

KILL_RATE = 0.3
#: A seed whose worker_kill roll provably fires for batch index 0 on
#: attempt 1, so a supervised render deterministically breaks the pool
#: at least once (replays roll with attempt 2, 3, ... and converge).
KILL_SEED = next(
    s for s in range(1000) if fault_fires(s, FAULT_WORKER_KILL, 0, 1, KILL_RATE)
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestCircuitBreaker:
    def test_trips_open_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=10.0, clock=clock)
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()
        assert breaker.rejections_total == 1
        assert breaker.retry_after_s() == pytest.approx(10.0)
        clock.advance(4.0)
        assert breaker.retry_after_s() == pytest.approx(6.0)

    def test_success_resets_the_failure_run(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.allow()  # the probe slot
        assert not breaker.allow()  # everyone else still rejected

    def test_probe_outcome_decides_close_or_reopen(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()  # probe failed: straight back to open
        assert breaker.state == BREAKER_OPEN
        assert breaker.retry_after_s() == pytest.approx(5.0)
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()  # probe succeeded: circuit closes
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_transition_callback_and_snapshot(self):
        clock = FakeClock()
        seen: list = []
        breaker = CircuitBreaker(
            failure_threshold=1,
            reset_timeout_s=5.0,
            clock=clock,
            on_transition=lambda old, new: seen.append((old, new)),
        )
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()
        assert seen == [
            (BREAKER_CLOSED, BREAKER_OPEN),
            (BREAKER_OPEN, BREAKER_HALF_OPEN),
            (BREAKER_HALF_OPEN, BREAKER_CLOSED),
        ]
        snapshot = breaker.as_dict()
        assert snapshot["state"] == BREAKER_CLOSED
        assert snapshot["failures_total"] == 1
        assert snapshot["successes_total"] == 1
        assert snapshot["transitions_total"] == 3
        json.dumps(snapshot)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(InvalidParameterError):
            CircuitBreaker(reset_timeout_s=-1.0)


class TestPoolSupervisor:
    def test_backoff_doubles_then_denies(self):
        supervisor = PoolSupervisor(
            max_consecutive_rebuilds=5, backoff_s=0.05, backoff_factor=2.0,
            max_backoff_s=2.0,
        )
        grants = [supervisor.grant() for _ in range(5)]
        assert grants == [
            pytest.approx(0.05),
            pytest.approx(0.1),
            pytest.approx(0.2),
            pytest.approx(0.4),
            pytest.approx(0.8),
        ]
        assert supervisor.grant() is None
        assert supervisor.total_rebuilds == 5
        assert supervisor.total_denied == 1

    def test_backoff_is_capped(self):
        supervisor = PoolSupervisor(
            max_consecutive_rebuilds=10, backoff_s=0.5, max_backoff_s=1.0
        )
        grants = [supervisor.grant() for _ in range(4)]
        assert grants == [
            pytest.approx(0.5),
            pytest.approx(1.0),
            pytest.approx(1.0),
            pytest.approx(1.0),
        ]

    def test_progress_resets_the_storm_counter(self):
        supervisor = PoolSupervisor(max_consecutive_rebuilds=2, backoff_s=0.05)
        assert supervisor.grant() is not None
        assert supervisor.grant() is not None
        assert supervisor.grant() is None
        supervisor.note_progress()
        assert supervisor.consecutive_rebuilds == 0
        assert supervisor.grant() == pytest.approx(0.05)  # backoff restarts
        assert supervisor.total_rebuilds == 3
        json.dumps(supervisor.as_dict())

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            PoolSupervisor(max_consecutive_rebuilds=0)
        with pytest.raises(InvalidParameterError):
            PoolSupervisor(backoff_factor=0.5)


def _process_render(renderer, faults=None):
    from repro.visual.request import RenderOptions, RenderRequest

    request = RenderRequest(
        op="eps",
        eps=0.1,
        options=RenderOptions(tile_size=8, workers=2, anytime=True, faults=faults),
    )
    return renderer.render(request)


class TestSupervisedRecovery:
    def test_worker_kill_recovers_bit_identical(self, small_points):
        from repro.visual.executors import pool_supervision_totals
        from repro.visual.kdv import KDVRenderer

        renderer = KDVRenderer(np.asarray(small_points), resolution=(24, 20), leaf_size=16)
        try:
            baseline = _process_render(renderer)
            assert baseline.degraded is None
            before = pool_supervision_totals()["breaks"]
            plan = FaultPlan({FAULT_WORKER_KILL: KILL_RATE}, seed=KILL_SEED)
            healed = _process_render(renderer, faults=plan)
            after = pool_supervision_totals()
            assert after["breaks"] > before  # the pool really broke
            assert after["rebuilds"] >= 1
            # Full recovery: the replayed render is not degraded and its
            # image matches the fault-free baseline bit for bit.
            assert healed.degraded is None
            np.testing.assert_array_equal(
                np.asarray(healed.image), np.asarray(baseline.image)
            )
        finally:
            close_render_pools()

    def test_unsupervised_break_raises_typed_error(self, small_points):
        from repro.visual.kdv import KDVRenderer

        renderer = KDVRenderer(np.asarray(small_points), resolution=(24, 20), leaf_size=16)
        try:
            render_pool(2).supervisor = None
            plan = FaultPlan({FAULT_WORKER_KILL: KILL_RATE}, seed=KILL_SEED)
            with pytest.raises(WorkerPoolBrokenError, match="supervision is disabled"):
                _process_render(renderer, faults=plan)
        finally:
            close_render_pools()


@pytest.fixture
def svc(small_points):
    service = TileService(
        config=ServiceConfig(
            render=RenderConfig(tile_px=32, eps=0.1, workers=2, deadline_ms=None),
            resilience=ResilienceConfig(breaker_threshold=2, breaker_reset_s=0.05),
        )
    )
    service.registry.register("crime", small_points)
    yield service
    service.close()


class TestDegradeLadder:
    def test_partial_served_on_deadline_and_never_cached(self, small_points):
        service = TileService(
            config=ServiceConfig(render=RenderConfig(tile_px=48, eps=0.001, workers=1))
        )
        try:
            service.registry.register("crime", small_points)
            plan = service.plan_tile("crime", 0, 0, 0, deadline_ms=1e-6)
            data, info = service.serve_tile(plan)
            assert data.startswith(PNG_SIGNATURE)
            assert info["degraded"] == "partial"
            assert info["degrade_reason"] == "deadline"
            assert 0 <= info["pixels_resolved"] < info["pixels_total"]
            # A stop-gap tile must never land in the fresh cache.
            assert service.cached_png(plan) is None
            assert service.metrics.counter("tiles.partial_served").value == 1
            assert service.metrics.counter("tiles.degraded_served").value == 1
        finally:
            service.close()

    def test_stale_fallback_on_render_failure(self, svc, monkeypatch):
        fresh, info = svc.serve_tile(svc.plan_tile("crime", 1, 0, 0))
        assert info == {"degraded": None}
        # The dataset changes (version bump drops the fresh caches), the
        # render starts failing — the stale tile still answers.
        svc.invalidate_dataset("crime")

        def boom(plan):
            raise RuntimeError("render exploded")

        monkeypatch.setattr(svc, "_compute_values", boom)
        plan = svc.plan_tile("crime", 1, 0, 0)
        assert svc.cached_png(plan) is None
        data, info = svc.serve_tile(plan)
        assert data == fresh  # last known-good bytes, across the version bump
        assert info["degraded"] == "stale"
        assert info["degrade_reason"] == "render_failed"
        assert svc.cached_png(plan) is None  # stale never re-enters fresh cache
        assert svc.metrics.counter("tiles.stale_served").value == 1

    def test_degraded_serving_off_keeps_strict_semantics(self, small_points, monkeypatch):
        service = TileService(
            config=ServiceConfig(
                render=RenderConfig(tile_px=32, eps=0.1, workers=2, deadline_ms=None),
                resilience=ResilienceConfig(degraded_serving=False),
            )
        )
        try:
            service.registry.register("crime", small_points)
            service.serve_tile(service.plan_tile("crime", 1, 0, 0))
            assert service.stale_png(service.plan_tile("crime", 1, 0, 0)) is None
            service.invalidate_dataset("crime")

            def boom(plan):
                raise RuntimeError("render exploded")

            monkeypatch.setattr(service, "_compute_values", boom)
            with pytest.raises(RuntimeError, match="render exploded"):
                service.serve_tile(service.plan_tile("crime", 1, 0, 0))
        finally:
            service.close()

    def test_breaker_trips_serves_stale_then_recovers(self, svc, monkeypatch):
        fresh, _ = svc.serve_tile(svc.plan_tile("crime", 1, 0, 0))
        svc.invalidate_dataset("crime")
        real_compute = svc._compute_values

        def boom(plan):
            raise RuntimeError("render exploded")

        monkeypatch.setattr(svc, "_compute_values", boom)
        # Failures degrade to stale while the breaker counts them...
        for _ in range(svc.config.resilience.breaker_threshold):
            data, info = svc.serve_tile(svc.plan_tile("crime", 1, 0, 0))
            assert data == fresh and info["degraded"] == "stale"
        breaker = svc._breaker(svc.registry.get("crime"))
        assert breaker.state == BREAKER_OPEN
        # ...and once open, requests short-circuit to stale upfront.
        data, info = svc.serve_tile(svc.plan_tile("crime", 1, 0, 0))
        assert data == fresh
        assert info["degrade_reason"] == "circuit_open"
        assert svc.metrics.counter("breaker.to_open").value == 1
        # After the reset timeout the probe render closes the circuit.
        monkeypatch.setattr(svc, "_compute_values", real_compute)
        time.sleep(svc.config.resilience.breaker_reset_s + 0.01)
        data, info = svc.serve_tile(svc.plan_tile("crime", 1, 0, 0))
        assert info == {"degraded": None}
        assert breaker.state == BREAKER_CLOSED
        assert svc.metrics.counter("breaker.to_closed").value == 1

    def test_breaker_open_without_stale_raises_circuit_open(self, svc, monkeypatch):
        def boom(plan):
            raise RuntimeError("render exploded")

        monkeypatch.setattr(svc, "_compute_values", boom)
        for _ in range(svc.config.resilience.breaker_threshold):
            with pytest.raises(RuntimeError):
                svc.serve_tile(svc.plan_tile("crime", 1, 1, 0))
        with pytest.raises(CircuitOpenError, match="breaker is open"):
            svc.serve_tile(svc.plan_tile("crime", 1, 1, 0))
        assert svc.stats()["resilience"]["breakers"]["crime"]["state"] == BREAKER_OPEN

    def test_client_errors_do_not_trip_the_breaker(self, svc):
        from repro.errors import UnknownNameError

        for _ in range(svc.config.resilience.breaker_threshold + 1):
            with pytest.raises(UnknownNameError):
                svc.plan_tile("crime", 1, 0, 0, colormap="no-such-map")
            with pytest.raises(InvalidParameterError):
                svc.plan_tile("crime", 1, 9, 0)
        assert svc._breaker(svc.registry.get("crime")).state == BREAKER_CLOSED

    def test_removed_dataset_takes_its_breaker_along(self, small_points, monkeypatch):
        service = TileService(
            config=ServiceConfig(
                render=RenderConfig(tile_px=16, eps=0.1, workers=1, deadline_ms=None),
                resilience=ResilienceConfig(breaker_threshold=2),
            )
        )
        try:
            service.registry.register("crime", small_points[:500])
            real_compute = service._compute_values

            def boom(plan):
                raise RuntimeError("render exploded")

            monkeypatch.setattr(service, "_compute_values", boom)
            for _ in range(2):
                with pytest.raises(RuntimeError):
                    service.get_tile("crime", 0, 0, 0)
            monkeypatch.setattr(service, "_compute_values", real_compute)
            # An append keeps the dataset, and so its open breaker.
            service.append_points("crime", small_points[500:520])
            with pytest.raises(CircuitOpenError, match="'crime'"):
                service.get_tile("crime", 0, 0, 0)
            assert service.readiness()["datasets"] == {"crime": {"breaker": "open"}}

            # A re-registration races the remove: it lands between the
            # remove's pop and the service hearing of it.
            published = threading.Event()

            def register_again():
                while not published.is_set():
                    try:
                        service.registry.register("crime", small_points[100:])
                    except InvalidParameterError:  # the remove has not popped yet
                        time.sleep(0.001)
                    else:
                        published.set()

            invalidate = service.invalidate_dataset

            def invalidate_after_the_race(dataset_id):
                assert published.wait(30.0)
                invalidate(dataset_id)

            monkeypatch.setattr(
                service.registry, "_on_invalidate", invalidate_after_the_race
            )
            racer = threading.Thread(target=register_again)
            racer.start()
            assert service.registry.remove("crime")
            racer.join(timeout=30.0)
            assert not racer.is_alive()
            monkeypatch.setattr(service.registry, "_on_invalidate", invalidate)

            # New data, new index, new breaker: closed.
            data, info = service.get_tile("crime", 0, 0, 0)
            assert data.startswith(PNG_SIGNATURE) and info["degraded"] is None
            assert service.readiness()["datasets"] == {"crime": {"breaker": "closed"}}
            stats = service.stats()["resilience"]["breakers"]
            assert stats["crime"]["state"] == BREAKER_CLOSED

            # Removed for good: listed nowhere, and held nowhere.
            assert service.registry.remove("crime")
            assert service.readiness()["datasets"] == {}
            assert service.stats()["resilience"]["breakers"] == {}
            gc.collect()
            assert len(service._breakers) == 0
        finally:
            service.close()

    def test_singleflight_survives_a_failed_leader(self, svc, monkeypatch):
        calls = {"n": 0}
        real_compute = svc._compute_values

        def flaky(plan):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return real_compute(plan)

        monkeypatch.setattr(svc, "_compute_values", flaky)
        plan = svc.plan_tile("crime", 1, 1, 1)
        with pytest.raises(RuntimeError):
            svc.render_tile(plan)
        # The failed flight must not poison the key: the retry renders.
        assert svc.render_tile(plan).startswith(PNG_SIGNATURE)
        assert svc._flight.in_flight() == 0


class TestDrainOnClose:
    def test_close_waits_for_in_flight_renders(self, small_points, monkeypatch):
        service = TileService(
            config=ServiceConfig(
                render=RenderConfig(tile_px=32, eps=0.1, workers=2, deadline_ms=None),
                resilience=ResilienceConfig(drain_s=5.0),
            )
        )
        service.registry.register("crime", small_points)
        real_compute = service._compute_values
        started = threading.Event()

        def slow(plan):
            started.set()
            time.sleep(0.25)
            return real_compute(plan)

        monkeypatch.setattr(service, "_compute_values", slow)
        plan = service.plan_tile("crime", 1, 0, 0)
        result: dict = {}

        def render():
            result["data"] = service.render_tile(plan)

        worker = threading.Thread(target=render)
        worker.start()
        assert started.wait(5.0)
        t0 = time.perf_counter()
        service.close()
        drained_after = time.perf_counter() - t0
        worker.join(5.0)
        # close() must not yank resources from under the in-flight
        # render: it drains first, and the render completes cleanly.
        assert result["data"].startswith(PNG_SIGNATURE)
        assert drained_after < service.config.resilience.drain_s
        assert service.draining
        assert not service.try_acquire_slot()  # draining admits nothing new
        assert service.metrics.counter("tiles.rejected").value >= 1


def _fetch(url, path):
    try:
        response = urllib.request.urlopen(url + path, timeout=30)
        return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


class TestHttpErrorContract:
    def test_error_matrix_and_degradation_headers(self, small_points, monkeypatch):
        svc = TileService(
            config=ServiceConfig(
                render=RenderConfig(tile_px=32, eps=0.1, workers=2, deadline_ms=None),
            )
        )
        svc.registry.register("crime", small_points)

        def assert_error(status, headers, body, expect_status, expect_code):
            assert status == expect_status
            payload = json.loads(body)
            assert payload["status"] == expect_status
            assert payload["code"] == expect_code
            assert isinstance(payload["message"], str) and payload["message"]
            if expect_status in (503, 504):
                assert "Retry-After" in headers

        async def scenario():
            server = await TileServer(svc, port=0).start()
            url = server.url
            loop = asyncio.get_running_loop()

            async def get(path):
                return await loop.run_in_executor(None, _fetch, url, path)

            status, _, body = await get("/readyz")
            ready = json.loads(body)
            assert status == 200 and ready["status"] == "ready"
            assert ready["datasets"] == {"crime": {"breaker": "closed"}}

            status, _, fresh = await get("/tile/crime/1/0/0.png")
            assert status == 200 and fresh.startswith(PNG_SIGNATURE)

            assert_error(*(await get("/tile/ghost/0/0/0.png")), 404, "dataset_not_found")
            assert_error(*(await get("/tile/crime/1/7/0.png")), 400, "invalid_parameter")
            assert_error(*(await get("/tile/crime/1/0/0.png?eps=abc")), 400, "invalid_parameter")
            assert_error(*(await get("/missing")), 404, "no_route")

            # The serve_tile exception matrix, each through the real
            # server. Uncached path required: invalidate between probes.
            def raising(error):
                def fail(plan):
                    raise error
                return fail

            cases = [
                (DeadlineExceededError("deadline tripped"), 504, "deadline_exceeded"),
                (CircuitOpenError("dataset 'crime' breaker is open"), 503, "circuit_open"),
                (WorkerPoolBrokenError("pool broke: secret-internal-detail"), 503, "worker_pool_broken"),
                (RuntimeError("secret-internal-detail"), 500, "internal"),
            ]
            for error, expect_status, expect_code in cases:
                svc.invalidate_dataset("crime")
                monkeypatch.setattr(svc, "serve_tile", raising(error))
                status, headers, body = await get("/tile/crime/1/0/0.png")
                assert_error(status, headers, body, expect_status, expect_code)
                # 5xx messages are generic: internals never leak.
                assert b"secret-internal-detail" not in body

            # Degraded 200s are explicitly marked and uncacheable.
            monkeypatch.setattr(
                svc,
                "serve_tile",
                lambda plan: (fresh, {"degraded": "stale", "degrade_reason": "render_failed"}),
            )
            svc.invalidate_dataset("crime")
            status, headers, body = await get("/tile/crime/1/0/0.png")
            assert status == 200 and body == fresh
            assert headers["X-Repro-Degraded"] == "stale;render_failed"
            assert headers["Warning"] == '110 - "response is stale"'
            assert headers["Cache-Control"] == "no-store"

            monkeypatch.setattr(
                svc,
                "serve_tile",
                lambda plan: (fresh, {"degraded": "partial", "degrade_reason": "deadline"}),
            )
            svc.invalidate_dataset("crime")
            status, headers, _ = await get("/tile/crime/1/0/0.png")
            assert status == 200
            assert headers["X-Repro-Degraded"] == "partial;deadline"
            assert headers["Warning"] == '214 - "partial render"'
            assert headers["Cache-Control"] == "no-store"

            # Queue full without a stale tile: a structured 503.
            monkeypatch.setattr(svc, "try_acquire_slot", lambda: False)
            monkeypatch.setattr(svc, "stale_png", lambda plan: None)
            svc.invalidate_dataset("crime")
            assert_error(*(await get("/tile/crime/1/0/0.png")), 503, "overloaded")

            # Queue full with a stale tile: degrade instead of failing.
            monkeypatch.setattr(svc, "stale_png", lambda plan: fresh)
            status, headers, body = await get("/tile/crime/1/0/0.png")
            assert status == 200 and body == fresh
            assert headers["X-Repro-Degraded"] == "stale;overloaded"
            assert headers["Cache-Control"] == "no-store"

            # A draining service stops admitting and flips /readyz.
            monkeypatch.setattr(svc, "stale_png", lambda plan: None)
            monkeypatch.setattr(svc, "_closing", True)
            assert_error(*(await get("/readyz")), 503, "draining")
            assert_error(*(await get("/tile/crime/1/0/0.png")), 503, "draining")
            monkeypatch.setattr(svc, "_closing", False)

            await server.stop()

        try:
            asyncio.run(scenario())
        finally:
            svc.close()
