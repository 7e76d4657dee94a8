"""The serving render pool: default size, fork safety, one pool per server.

``repro serve`` renders cold tiles on a supervised process pool by
default (``RenderConfig.render_workers=None`` resolves to the CPUs the
process may use). The pool belongs to the process
(:func:`repro.visual.executors.render_pool`), not to a dataset or a
method. These tests pin its contract:

* workers start from a fork server, so a pool starts even while another
  thread of the parent holds the stdin lock;
* concurrent first renders start one pool, fit each method once and
  publish each tree once;
* every dataset, zoom and kd-tree method renders on that one pool, with
  the bytes of an in-process render;
* register, append and remove never start or stop a worker; a replaced
  or removed tree's shared-memory segment is unlinked once nothing
  holds the tree, and a render in flight holds it until it returns;
* ``TileService.close`` tears the pool down without leaving a worker
  process or a segment behind, and a worker kill leaks no segment;
* each worker runs numpy's OpenBLAS on one thread.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.exact import exact_density
from repro.serve import RenderConfig, ServiceConfig, TileService
from repro.visual import executors
from repro.visual.executors import close_render_pools, render_pool, render_pools
from repro.visual.kdv import KDVRenderer
from repro.visual.request import RenderOptions, RenderRequest

#: The tiles the lifecycle tests serve: coreset zooms 0 and 2, exact zoom 3.
TIER_TILES = [(0, 0, 0), (2, 1, 1), (3, 2, 2)]

#: Tiles of this size render in 16 batches (``RENDER_TILE_SIZE`` 64),
#: more than two workers hold at once, so some wait in the pool's queue.
BATCHED_TILE_PX = 256

#: Each batch sleeps this long in its worker, so a tile is caught mid-render.
SLOW_MS = 100


@pytest.fixture(autouse=True)
def _no_pool_before_or_after():
    close_render_pools()
    yield
    close_render_pools()


def _service(tile_px=32, **render):
    return TileService(
        config=ServiceConfig(
            render=RenderConfig(tile_px=tile_px, eps=0.05, deadline_ms=None, **render)
        )
    )


def _alive(pid):
    return Path(f"/proc/{pid}").exists()


def _segment_exists(name):
    return Path("/dev/shm", name.lstrip("/")).exists()


def _the_pool():
    [pool] = render_pools()
    return pool


def _stats_pools(svc):
    return svc.stats()["resilience"]["pools"]


# -- fork safety -------------------------------------------------------------

#: A render on a two-worker pool while another thread blocks reading
#: stdin. A worker forked from this process would inherit the held
#: stdin lock and hang in ``multiprocessing.util._close_stdin``.
_STDIN_READER_SCRIPT = """
import os, sys, threading, time
import numpy as np
from repro.visual.executors import close_render_pools
from repro.visual.kdv import KDVRenderer
from repro.visual.request import RenderOptions, RenderRequest

threading.Thread(target=sys.stdin.readline, daemon=True).start()
time.sleep(0.5)  # let the reader block inside readline, holding the lock
points = np.random.default_rng(0).normal(size=(80, 2))
renderer = KDVRenderer(points, resolution=(12, 10), leaf_size=16)
options = RenderOptions(tile_size=4, workers=2)
renderer.render(RenderRequest.for_eps(0.05, "quad", options=options))
close_render_pools()
print("rendered", flush=True)
os._exit(0)  # the reader still holds stdin: skip interpreter teardown
"""


def test_pool_starts_while_another_thread_reads_stdin(tmp_path):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    log = tmp_path / "render.log"
    with open(log, "wb") as out:
        process = subprocess.Popen(
            [sys.executable, "-c", _STDIN_READER_SCRIPT],
            stdin=subprocess.PIPE,
            stdout=out,
            stderr=subprocess.STDOUT,
            env=env,
            start_new_session=True,
        )
        try:
            code = process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            pytest.fail("a workers=2 render hung while another thread read stdin")
        finally:
            process.stdin.close()
    output = log.read_text()
    assert code == 0, output
    assert "rendered" in output


# -- one pool, each tree published once ---------------------------------------


#: Threads racing for the first pool: more than a two-CPU host runs at once.
RACERS = 4


def _race(work):
    """Run ``work(i)`` on RACERS threads released at once."""
    barrier = threading.Barrier(RACERS)
    errors = []

    def run(i):
        barrier.wait(timeout=10.0)
        try:
            work(i)
        except BaseException as error:
            errors.append(error)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(RACERS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


@pytest.fixture
def published(monkeypatch):
    """Names of the segments published while the test runs."""
    names = []
    publish = executors.publish_tree

    def slow_publish(tree):
        # Widen the window between the first lookup and the publication.
        threading.Event().wait(0.2)
        handle = publish(tree)
        names.append(handle.name)
        return handle

    monkeypatch.setattr(executors, "publish_tree", slow_publish)
    return names


def test_concurrent_first_renders_build_one_executor(published):
    points = np.random.default_rng(3).normal(size=(120, 2))
    renderer = KDVRenderer(points, resolution=(8, 8), leaf_size=16)
    renderer.get_method("quad")  # one fitted tree for every racer
    request = RenderRequest.for_eps(
        0.05, "quad", options=RenderOptions(tile_size=4, workers=2)
    )
    pools = []
    _race(lambda i: (renderer.render(request), pools.append(render_pool(2))))
    assert len(pools) == RACERS and all(pool is pools[0] for pool in pools)
    assert render_pools() == [pools[0]]
    assert len(published) == 1 and pools[0].segments == published
    close_render_pools()
    assert not any(_segment_exists(name) for name in published)


def test_concurrent_first_tiles_share_the_dataset_pool(small_points, published):
    svc = _service(render_workers=2)
    try:
        svc.registry.register("crime", small_points, coreset_zoom=3)
        # Four exact tiles of zoom 3: one tree.
        _race(lambda i: svc.get_tile("crime", 3, i, 2))
        [health] = _stats_pools(svc)
        assert health["trees"] == 1 and len(published) == 1
        assert _the_pool().segments == published
    finally:
        svc.close()
    assert not any(_segment_exists(name) for name in published)


def test_concurrent_first_method_tiles_fit_and_publish_once(
    small_points, published, monkeypatch
):
    from repro.visual import kdv

    fits = []
    create = kdv.create_method

    def slow_create(name, **options):
        fits.append(name)
        threading.Event().wait(0.2)  # widen the window between lookup and fill
        return create(name, **options)

    monkeypatch.setattr(kdv, "create_method", slow_create)
    svc = _service(render_workers=2)
    try:
        svc.registry.register("crime", small_points, coreset_zoom=3)
        fits.clear()  # registration fits the serving method
        # Four first ?method=akde tiles of zoom 3: one fit, one tree.
        _race(lambda i: svc.get_tile("crime", 3, i, 2, method="akde"))
        assert fits == ["akde"]
        assert len(published) == 1 and _the_pool().segments == published
    finally:
        svc.close()


def test_two_datasets_share_one_pool(small_points, smooth_points):
    svc = _service(render_workers=2)
    try:
        svc.registry.register("crime", small_points, coreset_zoom=2)
        svc.registry.register("home", smooth_points)
        assert render_pools() == []  # registration starts no worker
        for dataset in ("crime", "home"):
            for tile in TIER_TILES:
                svc.get_tile(dataset, *tile)
        [health] = _stats_pools(svc)
        assert health["workers"] == 2
        assert 1 <= len(health["pids"]) <= 2
        assert set(health["pids"]) == set(_the_pool().worker_pids())
    finally:
        svc.close()


# -- the default -------------------------------------------------------------


def test_default_resolves_to_usable_cpus(small_points, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    svc = _service()
    try:
        assert svc.render_workers == 2
        assert svc.stats()["config"]["render_workers"] == 2
        svc.registry.register("crime", small_points)
        svc.get_tile("crime", 1, 0, 0)
        [health] = _stats_pools(svc)
        assert health["workers"] == 2 and health["trees"] == 1
    finally:
        svc.close()


@pytest.mark.parametrize("render_workers, cpus", [(None, {0}), (1, {0, 1})])
def test_one_cpu_or_one_worker_renders_in_process(
    small_points, monkeypatch, render_workers, cpus
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    svc = _service(render_workers=render_workers)
    try:
        assert svc.render_workers == 1
        assert svc.stats()["config"]["render_workers"] == 1
        svc.registry.register("crime", small_points)
        svc.get_tile("crime", 1, 0, 0)
        svc.get_tile("crime", 1, 0, 0, method="akde")
        assert render_pools() == [] and _stats_pools(svc) == []
    finally:
        svc.close()


def test_tile_bytes_match_in_process_rendering(small_points, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pooled = _service()  # the default: a pool of two
    inline = _service(render_workers=1)
    try:
        entry = pooled.registry.register("crime", small_points, coreset_zoom=2)
        inline.registry.register("crime", small_points, coreset_zoom=2)
        r = entry.renderer
        centers = entry.base_grid.scaled(0.25).centers()
        tau = float(np.median(exact_density(r.points, centers, r.kernel, r.gamma, r.weight)))
        for tile in [(0, 0, 0), (2, 1, 1)]:  # a coreset tier tile, an exact tile
            for params in ({"eps": 0.05}, {"tau": tau}):
                assert (
                    pooled.get_tile("crime", *tile, **params)[0]
                    == inline.get_tile("crime", *tile, **params)[0]
                )
        [health] = _stats_pools(pooled)
        assert health["trees"] == 2
    finally:
        pooled.close()
        inline.close()


# -- every kd-tree on the one pool --------------------------------------------


def test_every_zoom_renders_on_one_pool(small_points):
    svc = _service(render_workers=2)
    try:
        entry = svc.registry.register("crime", small_points, coreset_zoom=3)
        for tile in TIER_TILES:
            svc.get_tile("crime", *tile)
        tiers = {id(entry.coreset_tier(z).renderer) for z in (0, 2)}
        [health] = _stats_pools(svc)
        assert health["workers"] == 2
        assert health["trees"] == 1 + len(tiers)  # only trees a tile rendered on
        assert 1 <= len(health["pids"]) <= 2
    finally:
        svc.close()


def test_other_methods_render_on_the_pool(small_points):
    svc = _service(render_workers=2)
    inline = _service(render_workers=1)
    try:
        entry = svc.registry.register("crime", small_points, coreset_zoom=3)
        inline.registry.register("crime", small_points, coreset_zoom=3)
        for tile in TIER_TILES:
            assert (
                svc.get_tile("crime", *tile, method="akde")[0]
                == inline.get_tile("crime", *tile, method="akde")[0]
            )
        tiers = {id(entry.coreset_tier(z).renderer) for z in (0, 2)}
        [health] = _stats_pools(svc)
        # aKDE's exact and tier trees, and no serving-method tree.
        assert health["trees"] == 1 + len(tiers)
    finally:
        svc.close()
        inline.close()


# -- register, append and remove keep the workers -----------------------------


def test_append_keeps_the_workers_and_unlinks_the_replaced_trees(small_points):
    svc = _service(render_workers=2)
    try:
        svc.registry.register("crime", small_points, coreset_zoom=2)
        for tile in TIER_TILES:
            svc.get_tile("crime", *tile)
        pool = _the_pool()
        pids, segments = pool.worker_pids(), pool.segments
        assert pids and all(_segment_exists(name) for name in segments)
        svc.append_points("crime", small_points[:50] + 0.01)
        assert not any(_segment_exists(name) for name in segments)
        assert pool.segments == [] and not pool.closed
        for tile in TIER_TILES:
            svc.get_tile("crime", *tile)
        assert _the_pool() is pool and pool.worker_pids() == pids
        assert len(pool.segments) == len(segments)
        assert not set(pool.segments) & set(segments)
    finally:
        svc.close()


def test_remove_keeps_the_workers_and_unlinks_its_trees(small_points, smooth_points):
    svc = _service(render_workers=2)
    try:
        svc.registry.register("crime", small_points)
        svc.registry.register("home", smooth_points)
        svc.get_tile("crime", 1, 0, 0)
        pool = _the_pool()
        [crime] = pool.segments
        svc.get_tile("home", 1, 0, 0)
        pids = pool.worker_pids()
        assert svc.registry.remove("crime")
        assert not _segment_exists(crime) and crime not in pool.segments
        assert len(pool.segments) == 1 and not pool.closed
        svc.get_tile("home", 1, 1, 0)
        assert _the_pool() is pool and pool.worker_pids() == pids
    finally:
        svc.close()


@pytest.mark.parametrize("change", ["append", "remove"])
def test_render_in_flight_keeps_its_segment_until_it_returns(
    small_points, monkeypatch, change
):
    fresh = _service(BATCHED_TILE_PX, render_workers=1)
    svc = _service(BATCHED_TILE_PX, render_workers=2)
    try:
        fresh.registry.register("crime", small_points)
        expected = fresh.get_tile("crime", 1, 0, 0)[0]
        svc.registry.register("crime", small_points)
        svc.get_tile("crime", 1, 1, 1)  # start the pool, publish the tree
        [segment] = _the_pool().segments
        pids = _the_pool().worker_pids()
        plan = svc.plan_tile("crime", 1, 0, 0)
        monkeypatch.setenv("REPRO_FAULTS", f"slow_response:1,slow_ms:{SLOW_MS}")
        rendered = []
        thread = threading.Thread(
            target=lambda: rendered.append(svc.render_tile(plan)), daemon=True
        )
        thread.start()
        threading.Event().wait(3 * SLOW_MS / 1000.0)
        if change == "append":
            svc.append_points("crime", small_points[:50] + 0.01)
        else:
            svc.registry.remove("crime")
        assert thread.is_alive()  # still rendering on the old tree...
        assert _segment_exists(segment)  # ...whose segment it holds
        thread.join(timeout=30.0)
        assert not thread.is_alive(), f"a render across an {change} hung"
        assert _the_pool().worker_pids() == pids
        # The old version's bytes, kept at no cache level.
        assert rendered == [expected]
        assert svc.cache.get_png(plan.png_key) is None
        assert svc.cache.get_density(plan.density_key) is None
        assert svc.cache.get_bounds(plan.bounds_key) is None
        assert "crime@v1" not in svc._vmax
        del plan
        assert not _segment_exists(segment)
    finally:
        fresh.close()
        svc.close()


def test_close_during_a_render_fails_it_instead_of_hanging(small_points, monkeypatch):
    from repro.errors import TransientTileError
    from repro.serve import ResilienceConfig

    svc = TileService(
        config=ServiceConfig(
            render=RenderConfig(
                tile_px=BATCHED_TILE_PX, deadline_ms=None, render_workers=2
            ),
            resilience=ResilienceConfig(drain_s=0.1),
        )
    )
    svc.registry.register("crime", small_points)
    svc.get_tile("crime", 1, 1, 1)  # start the pool
    plan = svc.plan_tile("crime", 1, 0, 0)
    monkeypatch.setenv("REPRO_FAULTS", f"slow_response:1,slow_ms:{SLOW_MS}")
    failures = []

    def render():
        try:
            svc.render_tile(plan)
        except TransientTileError as error:
            failures.append(error)

    thread = threading.Thread(target=render, daemon=True)
    thread.start()
    threading.Event().wait(3 * SLOW_MS / 1000.0)
    svc.close()  # drains for 0.1 s, then closes the pool under the render
    thread.join(timeout=30.0)
    assert not thread.is_alive(), "a render hung after the service closed"
    [error] = failures
    lost = int(str(error).split(" lost ")[1].split()[0])
    assert 1 <= lost < 16  # the batches that never started
    assert render_pools() == []


# -- no worker or segment outlives the pool -----------------------------------


def test_close_leaves_no_worker_or_segment(small_points):
    svc = _service(render_workers=2)
    svc.registry.register("crime", small_points, coreset_zoom=3)
    for tile in TIER_TILES:
        svc.get_tile("crime", *tile)
    pool = _the_pool()
    pids, segments = pool.worker_pids(), pool.segments
    assert pids and all(_alive(pid) for pid in pids)
    assert segments and all(_segment_exists(name) for name in segments)
    svc.close()
    assert pool.closed and render_pools() == []
    assert not any(_alive(pid) for pid in pids)
    assert not any(_segment_exists(name) for name in segments)


def test_worker_kill_leaks_no_segment(small_points):
    from repro.resilience.faults import FAULT_WORKER_KILL, FaultPlan, fault_fires

    before = set(os.listdir("/dev/shm"))
    renderer = KDVRenderer(small_points, resolution=(24, 20), leaf_size=16)
    seed = next(s for s in range(1000) if fault_fires(s, FAULT_WORKER_KILL, 0, 1, 0.3))
    options = RenderOptions(
        tile_size=8, workers=2, faults=FaultPlan({FAULT_WORKER_KILL: 0.3}, seed=seed)
    )
    outcome = renderer.render(RenderRequest.for_eps(0.05, "quad", options=options))
    assert outcome is not None
    pool = _the_pool()
    assert pool.rebuilds >= 1
    [segment] = pool.segments
    assert _segment_exists(segment)
    close_render_pools()
    assert set(os.listdir("/dev/shm")) - before == set()


# -- one BLAS thread per worker ----------------------------------------------


def test_worker_runs_one_openblas_thread():
    parent_threads = executors._blas_threads()
    if parent_threads is None:
        pytest.skip("numpy is not linked against its bundled OpenBLAS")
    pool = render_pool(2)
    assert pool._box.pool.submit(executors._blas_threads).result(timeout=60) == 1
    close_render_pools()
    assert executors._blas_threads() == parent_threads
