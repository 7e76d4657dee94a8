"""Compute seam, shared-memory tree transport, process tile executor.

Unit tests for the GIL-escape layer: the ``publish_tree``/``attach_tree``
lifecycle (including leak-free teardown), the
:class:`ProcessTileExecutor` contract (per-tile bit-identity through
the renderer's ``store`` hook, the same ``TileRunReport`` as the
in-process executor, stats merge, cancellation, idempotent close, one
recovery step per broken pool generation), the renderer-facing plumbing
(``RenderOptions`` validation, in-process vs pool parity, one tile
failure rule for both executors, ``ServiceConfig`` knobs), the
``ComputeBackend`` seam the benchmark's traced run wraps, and the
linter rule that keeps batched evaluations on that seam.
"""

import dataclasses
import functools
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.contracts.runtime import checking
from repro.core import stopping
from repro.core.backends import ComputeBackend
from repro.core.bounds import make_bound_provider
from repro.core.engine import QueryStats
from repro.data.synthetic import load_dataset
from repro.errors import InvalidParameterError, WorkerPoolBrokenError
from repro.index.kdtree import KDTree
from repro.index.shared import attach_tree, publish_tree
from repro.resilience.budget import Budget, CancellationToken
from repro.resilience.faults import (
    FAULT_SLOW_RESPONSE,
    FAULT_WORKER_KILL,
    FaultPlan,
    fault_fires,
)
from repro.resilience.runner import run_tiles
from repro.resilience.supervisor import PoolSupervisor
from repro.visual.executors import (
    ProcessTileExecutor,
    TileJob,
    close_render_pools,
    pool_supervision_totals,
    render_pool,
    render_pools,
)
from repro.visual.grid import PixelGrid
from repro.visual.kdv import KDVRenderer
from repro.visual.request import RenderOptions, RenderRequest
from tests.test_kdtree import build_inputs


def make_points(n=80, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 2)) * np.array([1.5, 0.8]) + np.array([3.0, -1.0])


@pytest.fixture
def renderer():
    return KDVRenderer(make_points(), resolution=(12, 10), leaf_size=16)


# -- shared-memory tree transport --------------------------------------------


def test_publish_attach_round_trip():
    points = make_points(n=120, seed=8)
    weights = np.linspace(0.5, 2.0, 120)
    tree = KDTree(points, leaf_size=16, weights=weights)
    handle = publish_tree(tree)
    try:
        clone = attach_tree(handle.meta)
        try:
            assert clone.num_nodes == tree.num_nodes
            assert clone.num_leaves == tree.num_leaves
            assert clone.height() == tree.height()
            for ours, theirs in zip(tree.nodes(), clone.nodes()):
                np.testing.assert_array_equal(ours.rect.low, theirs.rect.low)
                np.testing.assert_array_equal(ours.rect.high, theirs.rect.high)
                assert ours.is_leaf == theirs.is_leaf
                if ours.is_leaf:
                    np.testing.assert_array_equal(ours.points, theirs.points)
                    np.testing.assert_array_equal(ours.weights, theirs.weights)
        finally:
            clone.close()
    finally:
        handle.close()


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(build_inputs())
def test_attached_tree_has_the_published_arrays_bit_for_bit(inputs):
    points, leaf_size, weights = inputs
    tree = KDTree(points, leaf_size=leaf_size, weights=weights)
    handle = publish_tree(tree)
    try:
        clone = attach_tree(handle.meta)
        try:
            assert list(clone.arrays) == list(tree.arrays)
            for name, array in tree.arrays.items():
                assert clone.arrays[name].dtype == array.dtype
                np.testing.assert_array_equal(clone.arrays[name], array)
            for ours, theirs in zip(tree.nodes(), clone.nodes(), strict=True):
                assert (ours.node_id, ours.depth, ours.size) == (
                    theirs.node_id, theirs.depth, theirs.size
                )
                assert ours.agg.total_weight == theirs.agg.total_weight
                for field in ("center", "a", "b", "v", "h", "c"):
                    assert getattr(ours.agg, field) == getattr(theirs.agg, field)
                if ours.is_leaf:
                    np.testing.assert_array_equal(ours.indices, theirs.indices)
                else:
                    assert ours.left.node_id == theirs.left.node_id
                    assert ours.right.node_id == theirs.right.node_id
        finally:
            clone.close()
    finally:
        handle.close()


def test_publish_close_is_idempotent_and_releases_segment():
    tree = KDTree(make_points(n=40, seed=9), leaf_size=16)
    handle = publish_tree(tree)
    name = handle.name
    assert not handle.closed
    handle.close()
    assert handle.closed
    handle.close()  # idempotent
    # The segment is gone: attaching by name must fail.
    from multiprocessing import shared_memory

    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


def test_attached_tree_bounds_match_original():
    points = make_points(n=100, seed=10)
    tree = KDTree(points, leaf_size=16)
    provider = make_bound_provider("quad", "gaussian", 0.9, 1.0 / 100)
    queries = points[:5]
    queries_sq = np.einsum("ij,ij->i", queries, queries)
    handle = publish_tree(tree)
    try:
        clone = attach_tree(handle.meta)
        try:
            for ours, theirs in zip(tree.nodes(), clone.nodes()):
                ref = provider.node_bounds_batch(ours, queries, queries_sq)
                got = provider.node_bounds_batch(theirs, queries, queries_sq)
                np.testing.assert_array_equal(got[0], ref[0])
                np.testing.assert_array_equal(got[1], ref[1])
        finally:
            clone.close()
    finally:
        handle.close()


# -- process tile executor ---------------------------------------------------


def _tile_jobs(renderer, tile_size=4):
    centers = renderer.grid.centers()
    return [
        TileJob(index, tile, centers[tile])
        for index, tile in enumerate(renderer.grid.tiles(tile_size))
    ]


EPS_PARAMS = {"eps": 0.05, "atol": 0.0}


class RecordingStore:
    """A ``store`` hook like the renderer's, keeping each tile's envelopes.

    Returns whether every pixel met the ε stopping rule, as the
    renderer's hook does.
    """

    def __init__(self, eps=EPS_PARAMS["eps"], atol=EPS_PARAMS["atol"]):
        self.eps, self.atol = eps, atol
        self.stored = {}

    def __call__(self, index, pixels, lower, upper):
        assert index not in self.stored, f"tile {index} stored twice"
        self.stored[index] = (pixels, lower, upper)
        return bool(stopping.eps_stop_mask(lower, upper, 1.0 + self.eps, 0.0, self.atol).all())


def _ran(report):
    return set(report.completed) | set(report.partial)


def test_process_executor_values_match_sequential_per_tile(renderer):
    fitted = renderer.get_method("quad")
    jobs = _tile_jobs(renderer)
    store = RecordingStore()
    with ProcessTileExecutor(2) as pool:
        report = pool.run(jobs, store, method=fitted, op="eps", params=EPS_PARAMS)
    assert not report.failed and not report.unprocessed and not report.partial
    assert report.completed == [job.index for job in jobs]
    assert sorted(store.stored) == [job.index for job in jobs]
    for job in jobs:
        reference = fitted.make_batch_engine().query_eps_bounds(
            job.centers, 0.05, atol=0.0
        )
        pixels, lower, upper = store.stored[job.index]
        np.testing.assert_array_equal(pixels, job.pixels)
        np.testing.assert_array_equal(lower, reference[0])
        np.testing.assert_array_equal(upper, reference[1])


def test_process_executor_merges_worker_stats(renderer):
    fitted = renderer.get_method("quad")
    jobs = _tile_jobs(renderer)
    sequential = QueryStats()
    engine = fitted.make_batch_engine(sequential)
    for job in jobs:
        engine.query_eps_bounds(job.centers, 0.05, atol=0.0)
    stats = QueryStats()
    with ProcessTileExecutor(2) as pool:
        report = pool.run(
            jobs, RecordingStore(), method=fitted, op="eps", params=EPS_PARAMS, stats=stats
        )
    assert stats.as_dict() == sequential.as_dict()
    assert len(report.worker_busy) == 2 and max(report.worker_busy) > 0.0


def test_process_executor_precancelled_token_runs_nothing(renderer):
    fitted = renderer.get_method("quad")
    jobs = _tile_jobs(renderer)
    token = CancellationToken()
    token.cancel("test-cancel")
    store = RecordingStore()
    with ProcessTileExecutor(2) as pool:
        report = pool.run(
            jobs, store, method=fitted, op="eps", params=EPS_PARAMS, token=token
        )
    # Like the in-process executor, a run whose token tripped before it
    # started evaluates no tile: none is stored, none may error.
    assert not report.failed
    assert not _ran(report) and store.stored == {}
    assert report.unprocessed == [job.index for job in jobs]


def test_process_executor_close_is_idempotent(renderer):
    fitted = renderer.get_method("quad")
    pool = ProcessTileExecutor(1)
    jobs = _tile_jobs(renderer)
    pool.run(jobs, RecordingStore(), method=fitted, op="eps", params=EPS_PARAMS)
    [segment] = pool.segments
    assert not pool.closed
    pool.close()
    assert pool.closed and pool.segments == []
    assert not Path("/dev/shm", segment.lstrip("/")).exists()
    pool.close()
    # A run on a closed pool runs nothing: a resilient run lists every
    # tile as unprocessed, a fail-fast one raises.
    store = RecordingStore()
    report = pool.run(
        jobs, store, method=fitted, op="eps", params=EPS_PARAMS, fail_fast=False
    )
    assert report.unprocessed == [job.index for job in jobs] and not store.stored
    with pytest.raises(WorkerPoolBrokenError, match="unrun"):
        pool.run(jobs, store, method=fitted, op="eps", params=EPS_PARAMS)
    assert not store.stored


def test_process_executor_rejects_bad_workers():
    with pytest.raises(InvalidParameterError):
        ProcessTileExecutor(0)


def test_worker_attaches_on_first_job_and_drops_what_leaves_the_live_list(
    renderer, monkeypatch
):
    from repro.visual import executors

    # This process stands in for a worker: _attached is the job's first step.
    trees = {}
    monkeypatch.setattr(executors, "_WORKER_STATE", {"trees": trees})
    pool = ProcessTileExecutor(1)
    try:
        quad = pool._publish(renderer.get_method("quad"))
        before_akde = pool._live()
        akde = pool._publish(renderer.get_method("akde"))
        tree, __ = executors._attached(quad, pool._live())
        assert executors._attached(quad, pool._live())[0] is tree  # attached once
        executors._attached(akde, pool._live())
        # A job submitted before aKDE's tree was published keeps it.
        executors._attached(quad, before_akde)
        assert set(trees) == {quad.meta["name"], akde.meta["name"]}
        del renderer._methods["akde"]  # the tree is gone: its segment is unlinked
        assert pool.segments == [quad.meta["name"]]
        executors._attached(quad, pool._live())
        assert set(trees) == {quad.meta["name"]}
    finally:
        for held in trees.values():
            held[1].close()
        pool.close()


def test_render_pool_is_one_per_size_until_closed():
    close_render_pools()
    first = render_pool(1)
    assert render_pool(1) is first
    two = render_pool(2)
    assert render_pools() == [first, two]
    close_render_pools()
    assert first.closed and render_pools() == []
    # A fresh pool is built after close.
    second = render_pool(1)
    assert second is not first and not second.closed
    close_render_pools()


# -- renderer plumbing -------------------------------------------------------


def test_render_options_rejects_unknown_executor():
    # workers=N selects the executor; there is no executor or backend
    # option left.
    names = {f.name for f in dataclasses.fields(RenderOptions)}
    assert "executor" not in names
    assert "backend" not in names
    with pytest.raises(TypeError):
        RenderOptions(executor="process")
    with pytest.raises(TypeError):
        RenderOptions(backend="numpy")


def test_executor_does_not_change_fingerprint(renderer):
    """Execution knobs must not fragment the serve-layer cache."""
    plain = RenderRequest.for_eps(
        0.05, "quad", options=RenderOptions(tile_size=4)
    ).resolve(renderer)
    tuned = RenderRequest.for_eps(
        0.05, "quad", options=RenderOptions(tile_size=4, workers=2)
    ).resolve(renderer)
    assert plain.fingerprint() == tuned.fingerprint()


def test_strict_pool_render_matches_in_process_render(renderer):
    in_process_opts = RenderOptions(tile_size=4)
    pool_opts = RenderOptions(tile_size=4, workers=2)
    try:
        for request in (
            RenderRequest.for_eps(0.05, "quad"),
            RenderRequest.for_tau(0.02, "quad"),
        ):
            in_process = renderer.render(request.replace(options=in_process_opts))
            pooled = renderer.render(request.replace(options=pool_opts))
            np.testing.assert_array_equal(in_process, pooled)
    finally:
        close_render_pools()


def test_anytime_pool_render_matches_in_process_render(renderer):
    in_process_opts = RenderOptions(tile_size=4, anytime=True)
    pool_opts = RenderOptions(tile_size=4, workers=2, anytime=True)
    try:
        in_process = renderer.render(
            RenderRequest.for_eps(0.05, "quad", options=in_process_opts)
        )
        pooled = renderer.render(
            RenderRequest.for_eps(0.05, "quad", options=pool_opts)
        )
        np.testing.assert_array_equal(in_process.image, pooled.image)
        np.testing.assert_array_equal(in_process.lower, pooled.lower)
        np.testing.assert_array_equal(in_process.upper, pooled.upper)
        assert not in_process.degraded and not pooled.degraded
    finally:
        close_render_pools()


def _break_tile_one(monkeypatch, renderer, tile_size):
    """Make tile 1's job carry malformed data: a 3-D centre array.

    Only the parent is patched: the tile driver ships each tile's
    centres to the worker, and the worker's engine rejects the
    malformed batch (``InvalidParameterError``) like any bad input.
    Every other tile is untouched.
    """
    tiles = list(renderer.grid.tiles(tile_size))
    tiles[1] = tiles[1].reshape(1, -1)
    monkeypatch.setattr(renderer.grid, "tiles", lambda size: iter(tiles))


def test_strict_pool_render_reraises_tile_error_and_keeps_stats(
    renderer, monkeypatch
):
    fitted = renderer.get_method("quad")
    close_render_pools()
    _break_tile_one(monkeypatch, renderer, 4)
    before = fitted.stats.as_dict()
    options = RenderOptions(tile_size=4, workers=2)
    try:
        with pytest.raises(InvalidParameterError, match=r"queries must be an \(m, d\)"):
            renderer.render(RenderRequest.for_eps(0.05, "quad", options=options))
        assert fitted.stats.as_dict() == before
    finally:
        close_render_pools()


def test_anytime_pool_render_lists_failed_tile(renderer, monkeypatch):
    fitted = renderer.get_method("quad")
    close_render_pools()
    reference = renderer.render(
        RenderRequest.for_eps(
            0.05, "quad", options=RenderOptions(tile_size=4, anytime=True)
        )
    )
    _break_tile_one(monkeypatch, renderer, 4)
    options = RenderOptions(tile_size=4, workers=2, anytime=True)
    try:
        outcome = renderer.render(
            RenderRequest.for_eps(0.05, "quad", options=options)
        )
    finally:
        close_render_pools()
    degraded = outcome.degraded
    assert degraded is not None
    assert [entry["tile"] for entry in degraded.tiles_failed] == [1]
    assert "queries must be an (m, d)" in degraded.tiles_failed[0]["error"]
    failed = np.zeros(renderer.grid.num_pixels, dtype=bool)
    failed[list(PixelGrid.tiles(renderer.grid, 4))[1]] = True
    failed = renderer.grid.to_image(failed)
    assert np.all(outcome.lower <= outcome.upper)
    # Every other tile carries the in-process render's envelopes.
    np.testing.assert_array_equal(outcome.lower[~failed], reference.lower[~failed])
    np.testing.assert_array_equal(outcome.upper[~failed], reference.upper[~failed])


def _capture_reports(monkeypatch):
    """Record the ``TileRunReport`` every executor run returns."""
    from repro.visual import kdv

    reports = []

    def capture(run):
        @functools.wraps(run)
        def wrapper(*args, **kwargs):
            reports.append(run(*args, **kwargs))
            return reports[-1]

        return wrapper

    monkeypatch.setattr(kdv, "run_tiles", capture(run_tiles))
    monkeypatch.setattr(ProcessTileExecutor, "run", capture(ProcessTileExecutor.run))
    return reports


def _report_fields(report):
    return report.completed, report.partial, report.failed, report.unprocessed


@pytest.mark.parametrize("workers", [None, 2], ids=["in-process", "pool"])
def test_one_failure_rule_for_both_executors(renderer, monkeypatch, workers):
    """Both executors fail a tile once, under the same rule.

    A resilient render lists the failed tile and finishes every other
    one (and a strict one then raises); a fail-fast render re-raises
    the tile's own exception and leaves ``stats`` unchanged; a
    non-finite envelope fails its tile like an exception does, and a
    non-finite centre is rejected before any tile starts. A kernel
    budget spent before the tiles start leaves every tile unprocessed.
    Each rule yields the same report on both executors.
    """
    from repro.errors import TransientTileError

    fitted = renderer.get_method("quad")
    close_render_pools()
    reference = renderer.render(
        RenderRequest.for_eps(
            0.05, "quad", options=RenderOptions(tile_size=4, anytime=True)
        )
    )
    _break_tile_one(monkeypatch, renderer, 4)
    reports = _capture_reports(monkeypatch)
    n_tiles = len(list(renderer.grid.tiles(4)))
    fifo = KDVRenderer(make_points(), resolution=(12, 10), leaf_size=16, ordering="fifo")
    centers = fifo.grid.centers()
    # Pixel (5, 0), in tile 1: finite, but so far out that its bounds
    # overflow to NaN.
    centers[5] = 1e308
    monkeypatch.setattr(fifo.grid, "centers", lambda: centers)
    try:
        outcome = renderer.render(
            RenderRequest.for_eps(
                0.05, "quad",
                options=RenderOptions(tile_size=4, workers=workers, anytime=True),
            )
        )
        [failure_report] = reports
        spent = {}
        for executor in (None, workers):
            token = Budget(max_kernel_evals=1).token()
            token.charge(1)  # the budget is spent before any tile starts
            spent[executor] = renderer.render(
                RenderRequest.for_eps(
                    0.05, "quad",
                    options=RenderOptions(
                        tile_size=4, workers=executor, anytime=True, cancel=token
                    ),
                )
            ), reports[-1]
        with pytest.raises(TransientTileError, match="lost 1 tile"):
            renderer.render(
                RenderRequest.for_eps(
                    0.05, "quad",
                    options=RenderOptions(
                        tile_size=4, workers=workers, budget=Budget(deadline_s=600.0)
                    ),
                )
            )
        before = fitted.stats.as_dict()
        with pytest.raises(InvalidParameterError, match=r"queries must be an \(m, d\)"):
            renderer.render(
                RenderRequest.for_eps(
                    0.05, "quad", options=RenderOptions(tile_size=4, workers=workers)
                )
            )
        assert fitted.stats.as_dict() == before
        # Invariant checking would reject the NaN root bounds before any
        # tile runs; the finite check is what catches them without it.
        # Fifo order ends when the frontier is empty whatever the gaps.
        fifo_request = RenderRequest.for_eps(
            0.05, "quad",
            options=RenderOptions(tile_size=4, workers=workers, anytime=True),
        )
        with checking(False), np.errstate(all="ignore"):
            nan_outcome = fifo.render(fifo_request)
        centers[5] = np.nan
        with pytest.raises(InvalidParameterError, match="finite"):
            fifo.render(fifo_request)
    finally:
        close_render_pools()
    degraded = outcome.degraded
    assert degraded is not None and degraded.reason == "tile-failures"
    assert [entry["tile"] for entry in degraded.tiles_failed] == [1]
    assert "queries must be an (m, d)" in degraded.tiles_failed[0]["error"]
    failed = np.zeros(renderer.grid.num_pixels, dtype=bool)
    failed[list(PixelGrid.tiles(renderer.grid, 4))[1]] = True
    failed = renderer.grid.to_image(failed)
    assert np.all(outcome.lower <= outcome.upper)
    # Every other tile carries the fault-free render's envelopes.
    np.testing.assert_array_equal(outcome.lower[~failed], reference.lower[~failed])
    np.testing.assert_array_equal(outcome.upper[~failed], reference.upper[~failed])
    assert [entry["tile"] for entry in nan_outcome.degraded.tiles_failed] == [1]
    assert "non-finite bound envelope" in nan_outcome.degraded.tiles_failed[0]["error"]
    # The reports behind those outcomes are the same on both executors.
    assert _report_fields(failure_report) == (
        [index for index in range(n_tiles) if index != 1],
        [],
        {1: failure_report.failed[1]},
        [],
    )
    assert failure_report.failed[1].startswith("InvalidParameterError: queries must be")
    for spent_outcome, spent_report in spent.values():
        assert spent_outcome.degraded.reason == "kernel-budget"
        assert spent_outcome.degraded.tiles_completed == 0
        np.testing.assert_array_equal(spent_outcome.lower, spent[None][0].lower)
        np.testing.assert_array_equal(spent_outcome.upper, spent[None][0].upper)
    assert _report_fields(spent[workers][1]) == _report_fields(spent[None][1])
    assert _report_fields(spent[None][1]) == ([], [], {}, list(range(n_tiles)))


def test_anytime_process_deadline_degrades_with_valid_envelope():
    from repro.resilience.budget import Budget

    points = make_points(n=400, seed=11)
    renderer = KDVRenderer(points, resolution=(48, 40), leaf_size=16)
    options = RenderOptions(
        tile_size=8,
        workers=2,
        anytime=True,
        budget=Budget(deadline_s=1e-4),
    )
    try:
        outcome = renderer.render(RenderRequest.for_eps(0.01, "quad", options=options))
        assert outcome.degraded
        assert np.all(np.isfinite(outcome.lower))
        assert np.all(outcome.lower <= outcome.upper)
    finally:
        close_render_pools()


# -- a pool closed under a run -----------------------------------------------

#: Every tile sleeps in its worker, so a run of many tiles on two workers
#: is still draining when its pool closes.
SLOW_MS = 200.0
SLOW = FaultPlan({FAULT_SLOW_RESPONSE: 1.0}, slow_ms=SLOW_MS)


def _drain_in_thread(
    pool, renderer, results, name, faults=SLOW, tile_size=2, params=EPS_PARAMS, **run
):
    """Start a resilient ``pool.run`` over ``renderer``'s tiles on a daemon thread.

    ``results[name]`` gets the report (or the exception) and
    ``results[name + "_store"]`` the recording ``store``.
    """
    fitted = renderer.get_method("quad")
    jobs = _tile_jobs(renderer, tile_size)
    store = results[name + "_store"] = RecordingStore(params["eps"], params["atol"])

    def drain():
        try:
            results[name] = pool.run(jobs, store, method=fitted, op="eps",
                                     params=params, faults=faults, fail_fast=False,
                                     **run)
        except BaseException as error:
            results[name] = error
        results[name + "_at"] = time.monotonic()

    thread = threading.Thread(target=drain, daemon=True)
    thread.start()
    return thread, {job.index for job in jobs}


@pytest.mark.parametrize("closer", ["close", "close_render_pools"])
def test_run_returns_when_its_pool_closes_under_it(renderer, closer):
    pool = render_pool(2)
    results = {}
    thread, indices = _drain_in_thread(pool, renderer, results, "run")
    try:
        time.sleep(0.5)  # the workers start and take the first tiles
        closed_at = time.monotonic()
        pool.close() if closer == "close" else close_render_pools()
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "the run hung after its pool closed"
    finally:
        close_render_pools()
    report = results["run"]
    assert results["run_at"] - closed_at < 1.0
    assert not report.failed and report.unprocessed
    assert _ran(report) | set(report.unprocessed) == indices
    assert not _ran(report) & set(report.unprocessed)
    assert set(results["run_store"].stored) == _ran(report)


class _GrantOnceThenDeny(PoolSupervisor):
    """Grants the first rebuild and denies the second, slowly.

    The denial waits a moment first, so the other run is waiting on
    the recovery step (or draining) when the denial closes the pool.
    """

    def __init__(self):
        super().__init__(max_consecutive_rebuilds=1, backoff_s=0.0)
        self.asked = 0
        self.denied_at = None

    def grant(self):
        self.asked += 1
        if self.asked == 1:
            return 0.0
        time.sleep(0.3)
        self.denied_at = time.monotonic()
        return None


def test_run_returns_when_a_concurrent_denial_closes_its_pool(renderer):
    # Tile 0's first attempt kills its worker, breaking generation 0
    # under both runs; one grant rebuilds it, and one of the first
    # tiles' replays kills a worker again, breaking generation 1. Every
    # tile is slow, so both runs are still draining.
    seed = next(
        s for s in range(100_000)
        if fault_fires(s, FAULT_WORKER_KILL, 0, 1, 0.2)
        and not fault_fires(s, FAULT_WORKER_KILL, 0, 2, 0.2)
        and any(fault_fires(s, FAULT_WORKER_KILL, i, 2, 0.2) for i in range(1, 4))
    )
    faults = FaultPlan({FAULT_WORKER_KILL: 0.2, FAULT_SLOW_RESPONSE: 1.0}, seed=seed,
                       slow_ms=SLOW_MS)
    pool = ProcessTileExecutor(2)
    supervisor = pool.supervisor = _GrantOnceThenDeny()
    results = {}
    threads = []
    try:
        for name in ("a", "b"):
            threads.append(_drain_in_thread(pool, renderer, results, name, faults)[0])
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads), "a run hung"
    finally:
        pool.close()
    denied = [name for name in "ab" if isinstance(results[name], WorkerPoolBrokenError)]
    assert len(denied) == 1 and "rebuild budget is exhausted" in str(results[denied[0]])
    [granted] = [name for name in "ab" if name not in denied]
    report = results[granted]
    # One grant per broken generation: two breaks, one rebuild, one denial.
    assert supervisor.asked == 2 and pool.breaks == 2
    assert pool.rebuilds == 1 and report.unprocessed and not report.failed
    assert results[granted + "_at"] - supervisor.denied_at < 1.0


def test_concurrent_runs_recover_a_broken_pool_once_per_generation():
    """Four runs on one pool share each recovery step instead of each taking one.

    Every run sees every break of the pool it shares. Were each run to
    take a grant for the break it saw, four runs would spend the
    supervisor's storm cap four times as fast and the later ones would
    sleep ever longer backoffs: the pool would close and tiles would
    fail that recover when the runs go one at a time. At a 30 % kill
    rate a run of six breaks without a finished tile between them is
    likely enough, even for one run alone, that the default storm cap
    would decide the test by luck; the cap is raised so that what is
    checked is the accounting: one break, one grant and one rebuild per
    broken generation.
    """
    renderer = KDVRenderer(load_dataset("crime", n=4_000, seed=0), resolution=(64, 64))
    renderer.get_method("quad")
    seed = next(s for s in range(100_000) if fault_fires(s, FAULT_WORKER_KILL, 0, 1, 0.3))
    faults = FaultPlan({FAULT_WORKER_KILL: 0.3}, seed=seed)
    pool = ProcessTileExecutor(2)
    pool.supervisor = PoolSupervisor(max_consecutive_rebuilds=1_000, backoff_s=0.0)
    before = pool_supervision_totals()
    results = {}
    names = "abcd"
    try:
        threads = [
            _drain_in_thread(pool, renderer, results, name, faults, tile_size=16)[0]
            for name in names
        ]
        for thread in threads:
            thread.join(timeout=120.0)
        assert not any(thread.is_alive() for thread in threads), "a run hung"
        assert not pool.closed
    finally:
        pool.close()
    tiles = list(range(len(_tile_jobs(renderer, 16))))
    for name in names:
        assert _report_fields(results[name]) == (tiles, [], {}, [])
    after = pool_supervision_totals()
    assert pool.breaks >= 1
    assert pool.breaks == pool.rebuilds == pool.supervisor.total_rebuilds
    assert after["breaks"] - before["breaks"] == pool.breaks
    assert after["rebuilds"] - before["rebuilds"] == pool.rebuilds


def test_cancel_from_another_thread_stops_tiles_mid_refinement():
    """The run loop itself copies a cancelled token into the workers' slot.

    Every tile takes seconds to refine. The token is cancelled while
    both workers are inside their first tiles: those stop at their next
    frontier pop, the queued ones stop before their first, and the run
    returns within a few poll intervals, listing them all as partial. No
    thread watches the token.
    """
    renderer = KDVRenderer(load_dataset("crime", n=40_000, seed=0), resolution=(128, 128))
    fitted = renderer.get_method("quad")
    jobs = _tile_jobs(renderer, 64)
    params = {"eps": 1e-6, "atol": 0.0}
    pool = ProcessTileExecutor(2)
    token = CancellationToken()
    results = {}
    try:
        # Start the workers and attach the tree, so the timed run refines at once.
        pool.run(jobs[:1], RecordingStore(), method=fitted, op="eps",
                 params={"eps": 0.5, "atol": 0.0})
        thread, indices = _drain_in_thread(
            pool, renderer, results, "run", faults=None, tile_size=64, params=params,
            token=token,
        )
        watchers = set()
        started = time.monotonic()
        while thread.is_alive():
            watchers |= {t.name for t in threading.enumerate() if "watcher" in t.name}
            if not token.triggered and time.monotonic() - started > 0.3:
                cancelled_at = time.monotonic()
                token.cancel()
            time.sleep(0.005)
        thread.join(timeout=30.0)
    finally:
        pool.close()
    report = results["run"]
    assert watchers == set()
    assert results["run_at"] - cancelled_at < 0.5
    assert not report.failed and not report.completed and not report.unprocessed
    assert set(report.partial) == indices
    for pixels, lower, upper in results["run_store"].stored.values():
        assert np.all(np.isfinite(lower)) and np.all(lower <= upper)
        assert not stopping.eps_stop_mask(lower, upper, 1.0 + params["eps"], 0.0, 0.0).all()


def test_fail_fast_render_raises_when_its_pool_closes(renderer, monkeypatch):
    # A plan from the environment keeps the render fail-fast.
    monkeypatch.setenv("REPRO_FAULTS", f"slow_response:1,slow_ms:{SLOW_MS}")
    request = RenderRequest.for_eps(
        0.05, "quad", options=RenderOptions(tile_size=2, workers=2)
    )
    failures = []

    def render():
        try:
            renderer.render(request)
        except BaseException as error:
            failures.append(error)

    thread = threading.Thread(target=render, daemon=True)
    thread.start()
    try:
        time.sleep(0.5)
        close_render_pools()
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "the render hung after its pool closed"
    finally:
        close_render_pools()
    [error] = failures
    assert isinstance(error, WorkerPoolBrokenError) and "unrun" in str(error)


def test_service_config_exposes_executor_knobs():
    from repro.serve.service import RenderConfig, ServiceConfig

    config = ServiceConfig(render=RenderConfig(render_workers=2))
    assert config.render.render_workers == 2
    with pytest.raises(TypeError):
        RenderConfig(executor="process")
    with pytest.raises(TypeError):
        RenderConfig(backend="numpy")
    with pytest.raises(InvalidParameterError):
        RenderConfig(render_workers=0)


# -- the ComputeBackend seam --------------------------------------------------


def test_tile_driver_evaluates_through_the_compute_backend_seam(renderer, monkeypatch):
    """Tiled ε and τ renders call ``ComputeBackend``'s batch methods.

    The benchmark's traced run measures bound evaluation by wrapping
    ``ComputeBackend.node_bounds_batch`` and ``leaf_exact_batch`` on the
    class; this wraps them the same way, so a render path that stopped
    going through the seam would fail here instead of leaving the
    benchmark's ``backend.*`` metrics dark. Invariant checking routes
    through the ``checked_*`` methods instead, and the traced run
    never enables it, so the renders run with it off.
    """
    calls = {"node_bounds_batch": 0, "leaf_exact_batch": 0}

    def wrap(name):
        original = getattr(ComputeBackend, name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(ComputeBackend, name, wrapper)

    for name in calls:
        wrap(name)
    options = RenderOptions(tile_size=4)
    with checking(False):
        for request in (
            RenderRequest.for_eps(0.01, "quad"),
            RenderRequest.for_tau(0.02, "quad"),
        ):
            before = dict(calls)
            renderer.render(request.replace(options=options))
            for name in calls:
                assert calls[name] > before[name], (request.op, name)


# -- custom linter: backend-dispatch rule ------------------------------------


def _lint(tmp_path, source):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
    try:
        import lint_invariants
    finally:
        sys.path.pop(0)
    target = tmp_path / "sample.py"
    target.write_text(source)
    return lint_invariants.lint_file(target)


def test_linter_flags_direct_batch_dispatch(tmp_path):
    source = "def f(provider, node, q, qs):\n    return provider.node_bounds_batch(node, q, qs)\n"
    violations = _lint(tmp_path, source)
    assert any("backend-dispatch" in v.rule for v in violations)


@pytest.mark.parametrize("name", ["node_bounds_stacked", "checked_node_bounds_stacked"])
def test_linter_flags_direct_stacked_dispatch(tmp_path, name):
    source = (
        "def f(provider, tree, nodes, q, qs):\n"
        f"    return provider.{name}(tree, nodes, q, qs)\n"
    )
    violations = _lint(tmp_path, source)
    assert any("backend-dispatch" in v.rule for v in violations)


def test_linter_backend_dispatch_marker_suppresses(tmp_path):
    source = (
        "def f(provider, node, q, qs):\n"
        "    # lint: allow-backend-dispatch -- delegation fallback\n"
        "    return provider.leaf_exact_batch(node, q, qs)\n"
    )
    violations = _lint(tmp_path, source)
    assert not any("backend-dispatch" in v.rule for v in violations)


def test_linter_flags_weighted_kernel_evaluate(tmp_path):
    source = (
        "def f(self, sq):\n"
        "    return self.kernel.evaluate(sq, self.gamma)\n"
        "def g(kernel, sq, gamma):\n"
        "    return kernel.evaluate(sq, gamma)\n"
    )
    violations = _lint(tmp_path, source)
    flagged = [v for v in violations if "backend-dispatch" in v.rule]
    assert len(flagged) == 2


def test_linter_kernel_evaluate_marker_suppresses(tmp_path):
    source = (
        "def f(self, sq):\n"
        "    # lint: allow-backend-dispatch -- unindexed scan\n"
        "    return self.kernel.evaluate(sq, self.gamma)\n"
    )
    violations = _lint(tmp_path, source)
    assert not any("backend-dispatch" in v.rule for v in violations)


def test_linter_ignores_unrelated_evaluate_receivers(tmp_path):
    source = "def f(model, x):\n    return model.evaluate(x)\n"
    violations = _lint(tmp_path, source)
    assert not any("backend-dispatch" in v.rule for v in violations)
