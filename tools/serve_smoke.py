#!/usr/bin/env python
"""CI smoke tests for the tile server.

Default mode — cache effectiveness + byte identity. Starts the real
asyncio server on an ephemeral port, requests a 2x2 pyramid (z=0 plus
the four z=1 tiles) twice over HTTP, and asserts:

* every response is a valid PNG with status 200;
* the second pass is served from cache (>= 90% X-Cache: hit);
* second-pass bytes are identical to the first pass, tile for tile;
* the warm pass is at least MIN_SPEEDUP x faster than the cold pass
  (the multi-level cache actually short-circuits the render);
* the /stats counters agree with what was observed on the wire;
* every warm hit reused its cold request's plan (``tiles.plans_reused``
  equals the warm hits), so a change that silently re-plans fails;
* a second dataset's pyramid renders on the same pool: ``/stats`` lists
  one render pool, with at most ``os.cpu_count()`` workers;
* an append to a dataset while one of its cold tiles renders leaves
  that tile answering 200 within its deadline.

``--chaos`` mode — self-healing under worker loss. Boots the service
with a supervised process pool, renders a fault-free baseline, then
injects deterministic ``worker_kill`` faults via ``REPRO_FAULTS`` while
firing bursts of tile requests, and asserts:

* every chaos-phase response is well-formed: a PNG 200 or a structured
  JSON error carrying a stable ``code`` field (no hangs, no half-written
  bodies);
* degraded 200s carry ``X-Repro-Degraded`` + ``Cache-Control: no-store``
  (each chaos-phase response's status and degrade reason is printed);
* the pool actually broke and was rebuilt (``resilience.pool_breaks`` and
  ``resilience.pool_rebuilds`` >= 1 in ``/stats``);
* after the faults are cleared, tiles render fresh again and are
  bit-identical to the fault-free baseline;
* every break without a rebuild failed a render: ``/stats``
  ``pool_breaks`` exceeds ``pool_rebuilds`` by at most the number of
  chaos-phase requests whose render failed (degraded ``render_failed``
  or an error status). The pool takes one recovery step per broken
  generation, so a break left unrebuilt is a denied rebuild, and each
  denial fails the render that asked for it.

Exits 0 on success, 1 on any violated expectation. Run as::

    PYTHONPATH=src python tools/serve_smoke.py [--chaos]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _client import PNG_SIGNATURE, check_wellformed  # noqa: E402
from _client import fetch as _fetch  # noqa: E402

__all__ = ["main"]

TILES: List[Tuple[int, int, int]] = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)]
MIN_HIT_RATE = 0.9
MIN_SPEEDUP = 10.0
DATASET = "crime"
N_POINTS = 8_000
TILE_PX = 256
#: The second dataset of the cache pass, served on the same pool.
SECOND_DATASET = "home"
#: A tile of DATASET neither pass rendered: the append lands while it renders.
APPEND_TILE = (2, 1, 1)
APPEND_POINTS = 200

# Chaos mode: smaller tiles keep the render (and its replay rounds)
# fast. The kill rate is paired with a scanned seed whose roll provably
# fires for batch index 0 at attempt 1, so every fresh render breaks the
# pool at least once — deterministically, not probabilistically.
CHAOS_TILE_PX = 128
CHAOS_N_POINTS = 4_000
CHAOS_KILL_RATE = 0.3
CHAOS_ROUNDS = 2
RECOVERY_ATTEMPTS = 40
RECOVERY_SLEEP_S = 0.25


def _fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


async def _run_cache() -> None:
    from repro.data.synthetic import load_dataset
    from repro.serve import RenderConfig, ServiceConfig, TileServer, TileService

    service = TileService(
        config=ServiceConfig(
            render=RenderConfig(tile_px=TILE_PX, eps=0.05, workers=2)
        )
    )
    service.registry.register(DATASET, load_dataset(DATASET, n=N_POINTS, seed=0))
    service.registry.register(
        SECOND_DATASET, load_dataset(SECOND_DATASET, n=N_POINTS, seed=0)
    )
    server = await TileServer(service, port=0).start()
    loop = asyncio.get_running_loop()
    print(
        f"serve_smoke: server on {server.url}, datasets {DATASET} and "
        f"{SECOND_DATASET} n={N_POINTS}"
    )

    async def fetch(
        dataset: str, tile: Tuple[int, int, int]
    ) -> Tuple[int, Dict[str, str], bytes]:
        z, x, y = tile
        return await loop.run_in_executor(
            None, _fetch, f"{server.url}/tile/{dataset}/{z}/{x}/{y}.png"
        )

    async def pass_over_pyramid(
        label: str, dataset: str = DATASET
    ) -> Tuple[Dict[Tuple[int, int, int], bytes], int, float]:
        blobs: Dict[Tuple[int, int, int], bytes] = {}
        hits = 0
        started = time.perf_counter()
        for z, x, y in TILES:
            status, headers, body = await fetch(dataset, (z, x, y))
            if status != 200:
                _fail(f"{label}: tile {z}/{x}/{y} returned {status}: {body[:200]!r}")
            if not body.startswith(PNG_SIGNATURE):
                _fail(f"{label}: tile {z}/{x}/{y} is not a PNG")
            if headers.get("X-Cache") == "hit":
                hits += 1
            blobs[(z, x, y)] = body
        return blobs, hits, time.perf_counter() - started

    try:
        cold, cold_hits, cold_s = await pass_over_pyramid("cold")
        warm, warm_hits, warm_s = await pass_over_pyramid("warm")
        counters = service.metrics.as_dict()["counters"]
        __, second_hits, second_s = await pass_over_pyramid("second", SECOND_DATASET)
        if second_hits != 0:
            _fail(f"{SECOND_DATASET}: cold pass unexpectedly hit cache ({second_hits} hits)")
        print(f"serve_smoke: {SECOND_DATASET} cold {second_s:.3f}s")
        pools = await _pools_on_stats(loop, server.url)
        await _append_during_render(service, loop, fetch)
    finally:
        await server.stop()
        service.close()

    print(
        f"serve_smoke: cold {cold_s:.3f}s ({cold_hits} hits), "
        f"warm {warm_s:.3f}s ({warm_hits}/{len(TILES)} hits), "
        f"speedup {cold_s / max(warm_s, 1e-9):.1f}x"
    )

    if cold_hits != 0:
        _fail(f"cold pass unexpectedly hit cache ({cold_hits} hits)")
    hit_rate = warm_hits / len(TILES)
    if hit_rate < MIN_HIT_RATE:
        _fail(f"warm hit rate {hit_rate:.0%} < {MIN_HIT_RATE:.0%}")
    for key in TILES:
        if cold[key] != warm[key]:
            _fail(f"tile {key} bytes differ between passes")
    if cold_s < MIN_SPEEDUP * warm_s:
        _fail(
            f"warm pass only {cold_s / max(warm_s, 1e-9):.1f}x faster "
            f"(need >= {MIN_SPEEDUP}x)"
        )

    # Cross-check the wire observations against the service's own
    # counters, as they stood after the first dataset's two passes.
    if counters.get("tiles.renders", 0) != len(TILES):
        _fail(
            f"expected exactly {len(TILES)} renders, "
            f"counters say {counters.get('tiles.renders', 0)}"
        )
    if counters.get("tile_cache.png.hits", 0) < warm_hits:
        _fail("png cache hit counter disagrees with observed X-Cache headers")
    if counters.get("tiles.plans_reused", 0) != warm_hits:
        _fail(
            f"tiles.plans_reused is {counters.get('tiles.plans_reused', 0)}, "
            f"expected one reused plan per warm hit ({warm_hits})"
        )
    print("serve_smoke: counters agree:", json.dumps(
        {k: v for k, v in sorted(counters.items()) if k.startswith("tiles.")}
    ))
    print(f"serve_smoke: one render pool for both datasets: {json.dumps(pools)}")
    print("serve_smoke: OK")


async def _pools_on_stats(loop: asyncio.AbstractEventLoop, url: str) -> List[Dict[str, object]]:
    """``/stats`` must list one render pool with at most ``os.cpu_count()`` workers."""
    status, _, body = await loop.run_in_executor(None, _fetch, f"{url}/stats")
    if status != 200:
        _fail(f"/stats returned {status}")
    pools = json.loads(body.decode("utf-8"))["resilience"]["pools"]
    cpus = os.cpu_count() or 1
    if len(pools) != 1:
        _fail(f"/stats lists {len(pools)} render pools for two datasets, expected one")
    [pool] = pools
    if not 1 <= int(pool["workers"]) <= cpus or len(pool["pids"]) > int(pool["workers"]):
        _fail(f"the render pool runs {pool['pids']} of {pool['workers']} workers on {cpus} CPUs")
    return [{key: pool[key] for key in ("workers", "pids", "trees")}]


async def _append_during_render(
    service: Any,
    loop: asyncio.AbstractEventLoop,
    fetch: Callable[[str, Tuple[int, int, int]], Awaitable[Tuple[int, Dict[str, str], bytes]]],
) -> None:
    """Append to DATASET while APPEND_TILE renders; the tile must answer 200."""
    from repro.data.synthetic import load_dataset

    deadline_s = float(service.config.render.deadline_ms) / 1000.0
    started = time.perf_counter()
    request = asyncio.ensure_future(fetch(DATASET, APPEND_TILE))
    while service.stats()["load"]["in_flight_renders"] == 0 and not request.done():
        if time.perf_counter() - started > deadline_s:
            _fail(f"tile {APPEND_TILE} never started rendering")
        await asyncio.sleep(0.005)
    extra = load_dataset(DATASET, n=APPEND_POINTS, seed=1)
    await loop.run_in_executor(None, service.append_points, DATASET, extra)
    landed_in_flight = not request.done()
    try:
        status, _, body = await asyncio.wait_for(request, timeout=deadline_s)
    except asyncio.TimeoutError:
        _fail(f"tile {APPEND_TILE} did not answer within its {deadline_s:.0f}s deadline "
              "after an append landed during its render")
    elapsed = time.perf_counter() - started
    if status != 200 or not body.startswith(PNG_SIGNATURE):
        _fail(f"tile {APPEND_TILE} returned {status} after an append: {body[:200]!r}")
    if not landed_in_flight:
        _fail(f"tile {APPEND_TILE} finished before the append landed; nothing was checked")
    print(f"serve_smoke: append during the render of {APPEND_TILE}: 200 in {elapsed:.3f}s")


def _check_wellformed(
    label: str, tile: Tuple[int, int, int], status: int, headers: Dict[str, str], body: bytes
) -> None:
    """Every on-the-wire response must be a PNG 200 or a structured error."""
    z, x, y = tile
    violation = check_wellformed(status, headers, body)
    if violation is not None:
        _fail(f"{label}: tile {z}/{x}/{y}: {violation}")


async def _run_chaos() -> None:
    from repro.data.synthetic import load_dataset
    from repro.serve import (
        RenderConfig,
        ResilienceConfig,
        ServiceConfig,
        TileServer,
        TileService,
    )
    from repro.visual.executors import pool_supervision_totals

    os.environ.pop("REPRO_FAULTS", None)
    service = TileService(
        config=ServiceConfig(
            render=RenderConfig(
                tile_px=CHAOS_TILE_PX,
                eps=0.05,
                workers=4,
                render_workers=2,
            ),
            resilience=ResilienceConfig(breaker_reset_s=0.5),
        )
    )
    service.registry.register(DATASET, load_dataset(DATASET, n=CHAOS_N_POINTS, seed=0))
    server = await TileServer(service, port=0).start()
    loop = asyncio.get_running_loop()
    print(f"serve_smoke[chaos]: server on {server.url}, dataset {DATASET} n={CHAOS_N_POINTS}")

    def url_for(tile: Tuple[int, int, int]) -> str:
        z, x, y = tile
        return f"{server.url}/tile/{DATASET}/{z}/{x}/{y}.png"

    async def fetch(tile: Tuple[int, int, int]) -> Tuple[int, Dict[str, str], bytes]:
        return await loop.run_in_executor(None, _fetch, url_for(tile))

    try:
        status, _, body = await loop.run_in_executor(None, _fetch, f"{server.url}/readyz")
        if status != 200:
            _fail(f"/readyz returned {status} on a healthy service: {body[:120]!r}")

        # Phase 1: fault-free baseline, records the ground-truth bytes.
        baseline: Dict[Tuple[int, int, int], bytes] = {}
        for tile in TILES:
            status, headers, body = await fetch(tile)
            _check_wellformed("baseline", tile, status, headers, body)
            if status != 200:
                _fail(f"baseline: tile {tile} returned {status}")
            if headers.get("X-Repro-Degraded"):
                _fail(f"baseline: tile {tile} unexpectedly degraded")
            baseline[tile] = body
        print(f"serve_smoke[chaos]: baseline rendered {len(baseline)} tiles")

        # Phase 2: worker-kill chaos. The fault rolls are deterministic
        # (pure functions of seed + batch index + attempt), so scan for
        # a seed whose roll fires for batch index 0 on the first attempt
        # — every fresh render then provably kills a worker at least
        # once, and the replay rounds (attempt 2, 3, ...) roll anew.
        from repro.resilience.faults import FAULT_WORKER_KILL, fault_fires

        seed = next(
            s for s in range(1000)
            if fault_fires(s, FAULT_WORKER_KILL, 0, 1, CHAOS_KILL_RATE)
        )
        breaks_before = pool_supervision_totals()["breaks"]
        degraded_seen = 0
        error_seen = 0
        render_failed = 0
        os.environ["REPRO_FAULTS"] = f"worker_kill:{CHAOS_KILL_RATE},seed:{seed}"
        for chaos_round in range(CHAOS_ROUNDS):
            service.invalidate_dataset(DATASET)  # force real renders
            results = await asyncio.gather(*(fetch(tile) for tile in TILES))
            for tile, (status, headers, body) in zip(TILES, results):
                _check_wellformed("chaos", tile, status, headers, body)
                degraded = headers.get("X-Repro-Degraded")
                print(
                    f"serve_smoke[chaos]: round {chaos_round} tile {tile}: "
                    f"{status} {degraded or 'fresh'}"
                )
                if status != 200:
                    error_seen += 1
                    render_failed += 1
                elif degraded:
                    degraded_seen += 1
                    if degraded.endswith(";render_failed"):
                        render_failed += 1
        os.environ.pop("REPRO_FAULTS", None)

        totals = pool_supervision_totals()
        print(
            f"serve_smoke[chaos]: breaks={totals['breaks']} rebuilds={totals['rebuilds']} "
            f"degraded_responses={degraded_seen} error_responses={error_seen} "
            f"failed_renders={render_failed}"
        )
        if totals["breaks"] <= breaks_before:
            _fail("chaos phase never broke the worker pool (fault injection inert?)")
        if totals["rebuilds"] < 1:
            _fail("pool broke but was never rebuilt (supervision inert?)")

        # Phase 3: recovery. With faults cleared, every tile must render
        # fresh (not degraded) and match the baseline bit for bit.
        service.invalidate_dataset(DATASET)
        for tile in TILES:
            fresh: Optional[bytes] = None
            for _ in range(RECOVERY_ATTEMPTS):
                status, headers, body = await fetch(tile)
                _check_wellformed("recovery", tile, status, headers, body)
                if status == 200 and not headers.get("X-Repro-Degraded"):
                    fresh = body
                    break
                await asyncio.sleep(RECOVERY_SLEEP_S)
            if fresh is None:
                _fail(f"recovery: tile {tile} never served fresh after chaos")
            if fresh != baseline[tile]:
                _fail(f"recovery: tile {tile} bytes differ from fault-free baseline")
        print("serve_smoke[chaos]: post-recovery tiles bit-identical to baseline")

        # Phase 4: the /stats payload exposes what happened.
        status, _, body = await loop.run_in_executor(None, _fetch, f"{server.url}/stats")
        if status != 200:
            _fail(f"/stats returned {status}")
        resilience = json.loads(body.decode("utf-8")).get("resilience", {})
        if resilience.get("pool_breaks", 0) < 1:
            _fail(f"/stats resilience.pool_breaks < 1: {resilience!r}")
        if resilience.get("pool_rebuilds", 0) < 1:
            _fail(f"/stats resilience.pool_rebuilds < 1: {resilience!r}")
        unrebuilt = resilience["pool_breaks"] - resilience["pool_rebuilds"]
        if unrebuilt > render_failed:
            _fail(
                f"{unrebuilt} pool break(s) were never rebuilt but only {render_failed} "
                "chaos-phase render(s) failed: a break was counted more than once, "
                "or a rebuild was denied without failing a render"
            )
        print(
            "serve_smoke[chaos]: /stats resilience:",
            json.dumps({k: resilience[k] for k in ("pool_breaks", "pool_rebuilds", "draining")}),
        )
    finally:
        os.environ.pop("REPRO_FAULTS", None)
        await server.stop()
        service.close()
    print("serve_smoke[chaos]: OK")


def main(argv: Optional[List[str]] = None) -> int:
    """Run the smoke scenario; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="run the self-healing chaos scenario instead of the cache smoke",
    )
    args = parser.parse_args(argv)
    asyncio.run(_run_chaos() if args.chaos else _run_cache())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
