"""The serving render pool: default size, fork safety, one pool per dataset.

``repro serve`` renders cold tiles on a supervised process pool by
default (``RenderConfig.render_workers=None`` resolves to the CPUs the
process may use). These tests pin the pool's contract:

* workers start from a fork server, so a pool starts even while another
  thread of the parent holds the stdin lock;
* concurrent first renders build one pool, not one per thread;
* a dataset's exact tree and its coreset tiers share one pool, which an
  append replaces and ``TileService.close`` tears down without leaving a
  worker process or a shared-memory segment behind;
* a method other than the serving one (``?method=``), and a method an
  append replaced, render in-process instead of starting pools;
* each worker runs numpy's OpenBLAS on one thread;
* tile bytes do not depend on where the tile rendered.
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
from repro.serve import RenderConfig, ServiceConfig, TileService
from repro.visual import executors
from repro.visual.kdv import KDVRenderer

#: The tiles the lifecycle tests serve: coreset zooms 0 and 2, exact zoom 3.
TIER_TILES = [(0, 0, 0), (2, 1, 1), (3, 2, 2)]


def _service(**render):
    return TileService(
        config=ServiceConfig(
            render=RenderConfig(tile_px=32, eps=0.05, deadline_ms=None, **render)
        )
    )


def _alive(pid):
    return Path(f"/proc/{pid}").exists()


def _segment_exists(name):
    return Path("/dev/shm", name.lstrip("/")).exists()


def _pool(entry):
    assert entry._pool is not None
    return entry._pool


# -- fork safety -------------------------------------------------------------

#: A render on a two-worker pool while another thread blocks reading
#: stdin. A worker forked from this process would inherit the held
#: stdin lock and hang in ``multiprocessing.util._close_stdin``.
_STDIN_READER_SCRIPT = """
import os, sys, threading, time
import numpy as np
from repro.visual.kdv import KDVRenderer
from repro.visual.request import RenderOptions, RenderRequest

threading.Thread(target=sys.stdin.readline, daemon=True).start()
time.sleep(0.5)  # let the reader block inside readline, holding the lock
points = np.random.default_rng(0).normal(size=(80, 2))
renderer = KDVRenderer(points, resolution=(12, 10), leaf_size=16)
options = RenderOptions(tile_size=4, workers=2)
renderer.render(RenderRequest.for_eps(0.05, "quad", options=options))
renderer.get_method("quad").close_executors()
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


# -- one pool per cache, built once ------------------------------------------


#: Threads racing for the first pool: more than a two-CPU host runs at once.
RACERS = 4


def _race_first_pools(fitted):
    """``fitted.process_executor(2)`` from RACERS threads released at once."""
    barrier = threading.Barrier(RACERS)
    pools = []
    lock = threading.Lock()

    def first_render():
        barrier.wait(timeout=10.0)
        pool = fitted.process_executor(2)
        with lock:
            pools.append(pool)

    threads = [threading.Thread(target=first_render) for _ in range(RACERS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return pools


def test_concurrent_first_renders_build_one_executor(monkeypatch):
    points = np.random.default_rng(3).normal(size=(120, 2))
    fitted = KDVRenderer(points, resolution=(8, 8), leaf_size=16).get_method("quad")
    published = []
    publish = executors.publish_tree

    def slow_publish(tree):
        # Widen the window between the cache miss and the cache fill.
        threading.Event().wait(0.2)
        handle = publish(tree)
        published.append(handle.name)
        return handle

    monkeypatch.setattr(executors, "publish_tree", slow_publish)
    try:
        pools = _race_first_pools(fitted)
        assert len(pools) == RACERS and all(pool is pools[0] for pool in pools)
        assert len(published) == 1
        assert len(fitted.executor_health()) == 1
    finally:
        fitted.close_executors()
    assert not any(_segment_exists(name) for name in published)


def test_concurrent_first_tiles_share_the_dataset_pool(small_points):
    svc = _service(render_workers=2)
    try:
        entry = svc.registry.register("crime", small_points, coreset_zoom=3)
        pools = _race_first_pools(entry.renderer.get_method("quad"))
        assert len(pools) == RACERS and all(pool is pools[0] for pool in pools)
        assert len(entry.executor_health()) == 1
    finally:
        svc.close()


# -- the default -------------------------------------------------------------


def test_default_resolves_to_usable_cpus(small_points, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    svc = _service()
    try:
        assert svc.render_workers == 2
        assert svc.stats()["config"]["render_workers"] == 2
        entry = svc.registry.register("crime", small_points)
        svc.get_tile("crime", 1, 0, 0)
        [health] = entry.executor_health()
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
        entry = svc.registry.register("crime", small_points)
        svc.get_tile("crime", 1, 0, 0)
        assert entry.executor_health() == []
    finally:
        svc.close()


def test_tile_bytes_match_in_process_rendering(small_points, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pooled = _service()  # the default: a pool of two
    inline = _service(render_workers=1)
    try:
        entry = pooled.registry.register("crime", small_points, coreset_zoom=2)
        inline_entry = inline.registry.register("crime", small_points, coreset_zoom=2)
        tau = float(np.median(entry.coarse_density(entry.base_grid.centers())))
        for tile in [(0, 0, 0), (2, 1, 1)]:  # a coreset tier tile, an exact tile
            for params in ({"eps": 0.05}, {"tau": tau}):
                assert (
                    pooled.get_tile("crime", *tile, **params)[0]
                    == inline.get_tile("crime", *tile, **params)[0]
                )
        assert len(entry.executor_health()) == 1
        assert inline_entry.executor_health() == []
    finally:
        pooled.close()
        inline.close()


# -- one pool per dataset ----------------------------------------------------


def test_every_zoom_renders_on_one_pool(small_points):
    svc = _service(render_workers=2)
    try:
        entry = svc.registry.register("crime", small_points, coreset_zoom=3)
        for tile in TIER_TILES:
            svc.get_tile("crime", *tile)
        tiers = {id(entry.coreset_tier(z).renderer) for z in range(3)}
        [health] = entry.executor_health()
        assert health["workers"] == 2
        assert health["trees"] == 1 + len(tiers)
        assert 1 <= len(health["pids"]) <= 2
    finally:
        svc.close()


def test_other_methods_render_in_process(small_points):
    svc = _service(render_workers=2)
    try:
        entry = svc.registry.register("crime", small_points, coreset_zoom=3)
        for tile in TIER_TILES:
            svc.get_tile("crime", *tile)
            svc.get_tile("crime", *tile, method="akde")
        [health] = entry.executor_health()
        assert health["trees"] == 1 + len({id(entry.coreset_tier(z).renderer) for z in range(3)})
        renderers = [entry.renderer] + [entry.coreset_tier(z).renderer for z in range(3)]
        assert all(renderer.get_method("akde").executor_health() == [] for renderer in renderers)
    finally:
        svc.close()


def test_append_replaces_the_pool_and_unlinks_its_trees(small_points):
    svc = _service(render_workers=2)
    try:
        entry = svc.registry.register("crime", small_points, coreset_zoom=2)
        svc.get_tile("crime", 0, 0, 0)
        old = _pool(entry)
        stale = entry.renderer.get_method("quad")
        segments = old.segments
        assert all(_segment_exists(name) for name in segments)
        svc.append_points("crime", small_points[:50] + 0.01)
        assert old.closed
        assert not any(_segment_exists(name) for name in segments)
        assert entry.executor_health() == []  # the next pool starts lazily
        # A render still holding the replaced method runs in-process.
        assert stale.process_executor(2) is None
        assert stale.executor_health() == []
        svc.get_tile("crime", 0, 0, 0)
        assert _pool(entry) is not old
        assert len(entry.executor_health()) == 1
    finally:
        svc.close()


def test_close_leaves_no_worker_or_segment(small_points):
    svc = _service(render_workers=2)
    entry = svc.registry.register("crime", small_points, coreset_zoom=3)
    for tile in TIER_TILES:
        svc.get_tile("crime", *tile)
    pool = _pool(entry)
    pids, segments = pool.worker_pids(), pool.segments
    assert pids and all(_alive(pid) for pid in pids)
    assert segments and all(_segment_exists(name) for name in segments)
    svc.close()
    assert pool.closed
    assert not any(_alive(pid) for pid in pids)
    assert not any(_segment_exists(name) for name in segments)


def test_remove_closes_the_pool(small_points):
    svc = _service(render_workers=2)
    try:
        entry = svc.registry.register("crime", small_points)
        svc.get_tile("crime", 1, 0, 0)
        pool = _pool(entry)
        svc.registry.remove("crime")
        assert pool.closed
        assert not any(_segment_exists(name) for name in pool.segments)
    finally:
        svc.close()


# -- one BLAS thread per worker ----------------------------------------------


def test_worker_runs_one_openblas_thread(small_points):
    parent_threads = executors._blas_threads()
    if parent_threads is None:
        pytest.skip("numpy is not linked against its bundled OpenBLAS")
    fitted = KDVRenderer(small_points, resolution=(8, 8)).get_method("quad")
    try:
        pool = fitted.process_executor(2)
        assert pool._box.pool.submit(executors._blas_threads).result(timeout=60) == 1
    finally:
        fitted.close_executors()
    assert executors._blas_threads() == parent_threads
