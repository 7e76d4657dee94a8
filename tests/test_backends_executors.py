"""Compute backends, shared-memory tree transport, process tile executor.

Unit tests for the GIL-escape layer: backend registry semantics
(graceful fallback vs strict lookup), formula parity of the numba
kernels run un-jitted, the ``publish_tree``/``attach_tree`` lifecycle
(including leak-free teardown), the :class:`ProcessTileExecutor`
contract (per-tile bit-identity, stats merge, cancellation, idempotent
close), and the renderer-facing plumbing (``RenderOptions`` validation,
in-process vs pool parity, failing tiles on the pool, the in-process
fallback, ``ServiceConfig`` knobs).
"""

import dataclasses
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core.backends import (
    available_backends,
    get_backend,
    resolve_backend,
)
from repro.core.backends.numba_backend import NumbaBackend, numba_available
from repro.core.backends.numpy_backend import NumpyBackend
from repro.core.bounds import make_bound_provider
from repro.errors import InvalidParameterError, UnknownNameError
from repro.index.kdtree import KDTree
from repro.index.shared import attach_tree, publish_tree
from repro.visual.executors import ProcessTileExecutor, TileJob
from repro.visual.grid import PixelGrid
from repro.visual.kdv import KDVRenderer
from repro.visual.request import RenderOptions, RenderRequest


def make_points(n=80, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 2)) * np.array([1.5, 0.8]) + np.array([3.0, -1.0])


@pytest.fixture
def renderer():
    return KDVRenderer(make_points(), resolution=(12, 10), leaf_size=16)


# -- backend registry --------------------------------------------------------


def test_numpy_backend_always_available():
    assert "numpy" in available_backends()
    assert isinstance(resolve_backend(None), NumpyBackend) or numba_available()


def test_resolve_backend_default_is_numpy(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert resolve_backend(None).name == "numpy"


def test_resolve_backend_env_selection(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    assert resolve_backend(None).name == "numpy"


def test_resolve_backend_unknown_name_raises():
    with pytest.raises(UnknownNameError):
        resolve_backend("cuda")
    with pytest.raises(UnknownNameError):
        get_backend("cuda")


def test_resolve_backend_passthrough_instance():
    backend = NumbaBackend(force=True)
    assert resolve_backend(backend) is backend


@pytest.mark.skipif(numba_available(), reason="fallback only without numba")
def test_resolve_backend_unavailable_falls_back_with_warning():
    from repro.core import backends as registry

    registry._WARNED_FALLBACKS.discard("numba")
    with pytest.warns(RuntimeWarning, match=r"\[perf\]"):
        assert resolve_backend("numba").name == "numpy"
    # One-time warning: the second resolution is silent.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_backend("numba").name == "numpy"


@pytest.mark.skipif(numba_available(), reason="strict path only without numba")
def test_numba_backend_strict_constructor_raises_without_numba():
    with pytest.raises(InvalidParameterError, match=r"\[perf\]"):
        NumbaBackend()


def test_get_backend_caches_instances():
    assert get_backend("numpy") is get_backend("numpy")


# -- numba kernel parity (un-jitted on machines without the extra) -----------


def test_numba_node_bounds_match_numpy():
    points = make_points(n=200, seed=3)
    tree = KDTree(points, leaf_size=32)
    provider = make_bound_provider("quad", "gaussian", 0.8, 1.0 / 200)
    backend = NumbaBackend(force=True)
    rng = np.random.default_rng(4)
    queries = rng.normal(size=(16, 2)) * 2 + np.array([3.0, -1.0])
    queries_sq = np.einsum("ij,ij->i", queries, queries)
    for node in tree.nodes():
        ref_lo, ref_hi = provider.node_bounds_batch(node, queries, queries_sq)
        got_lo, got_hi = backend.node_bounds_batch(
            provider, node, queries, queries_sq
        )
        # Scalar accumulation vs numpy pairwise summation: a few ulps.
        np.testing.assert_allclose(got_lo, ref_lo, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(got_hi, ref_hi, rtol=1e-12, atol=1e-300)
        assert np.all(got_lo <= got_hi)


def test_numba_leaf_exact_matches_numpy():
    points = make_points(n=150, seed=5)
    tree = KDTree(points, leaf_size=16)
    provider = make_bound_provider("quad", "gaussian", 1.3, 1.0 / 150)
    backend = NumbaBackend(force=True)
    rng = np.random.default_rng(6)
    queries = rng.normal(size=(9, 2)) * 2 + np.array([3.0, -1.0])
    queries_sq = np.einsum("ij,ij->i", queries, queries)
    for leaf in tree.leaves():
        ref = provider.leaf_exact_batch(leaf, queries, queries_sq)
        got = backend.leaf_exact_batch(provider, leaf, queries, queries_sq)
        np.testing.assert_allclose(got, ref, rtol=1e-12)


def test_numba_backend_delegates_unsupported_kernels():
    """Non-Gaussian kernels fall through to the provider's numpy path."""
    points = make_points(n=60, seed=7)
    tree = KDTree(points, leaf_size=16)
    provider = make_bound_provider("baseline", "triangular", 0.5, 1.0 / 60)
    backend = NumbaBackend(force=True)
    queries = points[:4]
    queries_sq = np.einsum("ij,ij->i", queries, queries)
    node = tree.root
    ref = provider.node_bounds_batch(node, queries, queries_sq)
    got = backend.node_bounds_batch(provider, node, queries, queries_sq)
    np.testing.assert_array_equal(got[0], ref[0])
    np.testing.assert_array_equal(got[1], ref[1])


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


def test_process_executor_values_match_sequential_per_tile(renderer):
    fitted = renderer.get_method("quad")
    jobs = _tile_jobs(renderer)
    with fitted.process_executor(2) as pool:
        outcome = pool.run(jobs, tree=fitted.tree, op="eps", params={"eps": 0.05, "atol": 0.0})
    assert not outcome.errors and not outcome.unrun and not outcome.cancelled
    assert sorted(outcome.payloads) == [job.index for job in jobs]
    for job in jobs:
        reference = fitted.make_batch_engine().query_eps_bounds(
            job.centers, 0.05, atol=0.0
        )
        np.testing.assert_array_equal(outcome.payloads[job.index][0], reference[0])
        np.testing.assert_array_equal(outcome.payloads[job.index][1], reference[1])


def test_process_executor_merges_worker_stats(renderer):
    fitted = renderer.get_method("quad")
    jobs = _tile_jobs(renderer)
    from repro.core.engine import QueryStats

    sequential = QueryStats()
    engine = fitted.make_batch_engine(sequential)
    for job in jobs:
        engine.query_eps_bounds(job.centers, 0.05, atol=0.0)
    with fitted.process_executor(2) as pool:
        outcome = pool.run(jobs, tree=fitted.tree, op="eps", params={"eps": 0.05, "atol": 0.0})
    assert outcome.stats.as_dict() == sequential.as_dict()
    assert len(outcome.worker_seconds) >= 1


def test_process_executor_precancelled_token_runs_nothing(renderer):
    from repro.resilience.budget import CancellationToken

    fitted = renderer.get_method("quad")
    jobs = _tile_jobs(renderer)
    token = CancellationToken()
    token.cancel("test-cancel")
    with fitted.process_executor(2) as pool:
        outcome = pool.run(
            jobs,
            tree=fitted.tree,
            op="eps",
            params={"eps": 0.05, "atol": 0.0},
            token=token,
        )
    # Every tile either never ran or came back flagged cancelled with a
    # valid (possibly loose) envelope; none may error.
    assert not outcome.errors
    assert outcome.cancelled
    accounted = set(outcome.payloads) | outcome.unrun
    assert accounted == {job.index for job in jobs}
    for payload in outcome.payloads.values():
        lower, upper = payload[0], payload[1]
        assert np.all(np.isfinite(lower)) and np.all(lower <= upper)


def test_process_executor_close_is_idempotent(renderer):
    fitted = renderer.get_method("quad")
    pool = ProcessTileExecutor(fitted, 1)
    assert not pool.closed
    pool.close()
    assert pool.closed
    pool.close()


def test_process_executor_spec_ships_resolved_backend(renderer):
    fitted = renderer.get_method("quad")
    pool = ProcessTileExecutor(fitted, 1)
    try:
        assert pool.spec["backend"] in available_backends()
        assert pool.spec["backend"] == resolve_backend(fitted.backend).name
    finally:
        pool.close()


@pytest.mark.skipif(numba_available(), reason="fallback only without numba")
def test_process_executor_fallback_warns_once_per_interpreter(renderer):
    # Regression: the job spec used to ship the *requested* backend
    # name, so every worker re-resolved it against a fresh
    # _WARNED_FALLBACKS set and the one-per-interpreter fallback
    # RuntimeWarning re-fired under executor="process". Resolving in
    # the parent ships the concrete name instead.
    from repro.core import backends as registry

    fitted = renderer.get_method("quad")
    registry._WARNED_FALLBACKS.discard("numba")
    with pytest.warns(RuntimeWarning, match=r"\[perf\]"):
        pool = ProcessTileExecutor(fitted, 1, backend="numba")
    try:
        assert pool.spec["backend"] == "numpy"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            second = ProcessTileExecutor(fitted, 1, backend="numba")
            assert second.spec["backend"] == "numpy"
            second.close()
    finally:
        pool.close()


def test_process_executor_rejects_bad_workers(renderer):
    fitted = renderer.get_method("quad")
    with pytest.raises(InvalidParameterError):
        ProcessTileExecutor(fitted, 0)


def test_method_caches_and_closes_executors(renderer):
    fitted = renderer.get_method("quad")
    first = fitted.process_executor(1)
    assert fitted.process_executor(1) is first
    fitted.close_executors()
    assert first.closed
    # A fresh pool is built after close.
    second = fitted.process_executor(1)
    assert second is not first
    fitted.close_executors()


# -- renderer plumbing -------------------------------------------------------


def test_render_options_rejects_unknown_executor():
    # workers=N selects the executor; there is no executor option left.
    assert "executor" not in {f.name for f in dataclasses.fields(RenderOptions)}
    with pytest.raises(TypeError):
        RenderOptions(executor="process")


def test_backend_and_executor_do_not_change_fingerprint(renderer):
    """Execution knobs must not fragment the serve-layer cache."""
    plain = RenderRequest.for_eps(
        0.05, "quad", options=RenderOptions(tile_size=4)
    ).resolve(renderer)
    tuned = RenderRequest.for_eps(
        0.05,
        "quad",
        options=RenderOptions(tile_size=4, workers=2, backend="numpy"),
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
        renderer.get_method("quad").close_executors()


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
        renderer.get_method("quad").close_executors()


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
    fitted.close_executors()
    _break_tile_one(monkeypatch, renderer, 4)
    before = fitted.stats.as_dict()
    options = RenderOptions(tile_size=4, workers=2)
    try:
        with pytest.raises(InvalidParameterError, match=r"queries must be an \(m, d\)"):
            renderer.render(RenderRequest.for_eps(0.05, "quad", options=options))
        assert fitted.stats.as_dict() == before
    finally:
        fitted.close_executors()


def test_anytime_pool_render_lists_failed_tile(renderer, monkeypatch):
    fitted = renderer.get_method("quad")
    fitted.close_executors()
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
        fitted.close_executors()
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


def test_retry_with_workers_runs_in_process_with_warning(renderer):
    from repro.resilience.retry import RetryPolicy

    fitted = renderer.get_method("quad")
    options = RenderOptions(tile_size=4, workers=2, retry=RetryPolicy())
    with pytest.warns(RuntimeWarning, match="runs in-process"):
        image = renderer.render(RenderRequest.for_eps(0.05, "quad", options=options))
    assert fitted.executor_health() == []  # no pool was started
    reference = renderer.render(
        RenderRequest.for_eps(0.05, "quad", options=RenderOptions(tile_size=4))
    )
    np.testing.assert_array_equal(image, reference)


def test_ball_tree_with_workers_raises_before_any_tile(monkeypatch):
    from repro.core.batch_engine import BatchRefinementEngine

    renderer = KDVRenderer(make_points(), resolution=(12, 10), index="ball")
    ran = []
    monkeypatch.setattr(
        BatchRefinementEngine,
        "query_eps_bounds",
        lambda self, *args, **kwargs: ran.append(1),
    )
    options = RenderOptions(tile_size=4, workers=2)
    with pytest.raises(InvalidParameterError):
        renderer.render(RenderRequest.for_eps(0.05, "quad", options=options))
    assert ran == []


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
        renderer.get_method("quad").close_executors()


def test_service_config_exposes_executor_knobs():
    from repro.serve.service import RenderConfig, ServiceConfig

    config = ServiceConfig(render=RenderConfig(render_workers=2, backend="numpy"))
    assert config.render.render_workers == 2
    assert config.render.backend == "numpy"
    with pytest.raises(TypeError):
        RenderConfig(executor="process")
    with pytest.raises(InvalidParameterError):
        RenderConfig(render_workers=0)


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
