"""Wide τ refinement steps and τ open pixels on every pool worker.

A τ step pops several frontier nodes and bounds all their children in
one stacked call (``repro.core.batch_engine.tau_step_width``). τ masks
do not depend on the refinement schedule, so the wide steps must give
the exact classification, the same masks as one node per step, and
enclosing envelopes — also when a token trips mid-batch and when
invariant checking is on. The tile driver then spreads a τ render's
open pixels over every pool worker.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.contracts.runtime import checking
from repro.core import batch_engine, stopping
from repro.core.backends import ComputeBackend
from repro.core.batch_engine import BatchRefinementEngine, tau_step_width
from repro.core.bounds import make_bound_provider
from repro.core.bounds.quadratic import QuadraticBoundProvider
from repro.core.engine import QueryStats, exhausted_exact
from repro.core.exact import exact_density
from repro.errors import InvariantViolation
from repro.index.kdtree import KDTree
from repro.obs.runtime import trace_to
from repro.resilience.budget import Budget
from repro.visual.executors import ProcessTileExecutor, close_render_pools
from repro.visual.kdv import KDVRenderer
from repro.visual.request import RenderOptions, RenderRequest

#: Knife-edge margin: rows this close to τ may legitimately go either way
#: against the brute-force sum, whose summation order differs.
KNIFE_EDGE = 1e-12


def _workload(seed, n, dims, leaf_size, m, duplicates):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-3.0, 3.0, size=(4, dims))
    points = centers[rng.integers(4, size=n)] + rng.normal(0.0, 0.6, size=(n, dims))
    points[: min(duplicates, n)] = points[0]
    queries = points[rng.integers(n, size=m)] + rng.normal(0.0, 0.4, size=(m, dims))
    queries[: max(m // 10, 1)] += 40.0  # far rows retire at the root
    queries[m - min(2, m) :] = points[0]  # rows on a (duplicated) point
    return KDTree(points, leaf_size=leaf_size), queries


def _engine(tree, provider_name="quad", kernel="gaussian", gamma=0.8):
    provider = make_bound_provider(provider_name, kernel, gamma, 1.0 / tree.n_points)
    return BatchRefinementEngine(tree, provider, stats=QueryStats())


def _exact(engine, queries):
    provider = engine.provider
    return exact_density(
        engine.tree.points, queries, provider.kernel, provider.gamma, provider.weight
    )


def _tau(engine, queries, exact, how):
    """A busy threshold: a density quantile, or exactly one pixel's density."""
    if how == "quantile":
        return float(np.median(exact))
    # The canonical density (the one the tie guard re-decides from) of the
    # median pixel: a tie that must classify hot.
    row = int(np.argsort(exact)[exact.size // 2])
    q = np.ascontiguousarray(queries[row], dtype=np.float64)
    return exhausted_exact(engine.tree, engine.provider.leaf_exact, q, float(q @ q))


def _one_node_steps():
    """Refine τ with one node per step, the ε schedule."""
    return mock.patch.object(batch_engine, "tau_step_width", None)


def _agree_off_the_knife_edge(mask, exact, tau):
    clear = np.abs(exact - tau) > KNIFE_EDGE * max(abs(tau), float(exact.max()))
    np.testing.assert_array_equal(mask[clear], (exact >= tau)[clear])


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 300),
    dims=st.sampled_from([1, 2, 3]),
    leaf_size=st.sampled_from([1, 4, 32]),
    m=st.integers(1, 80),
    duplicates=st.sampled_from([0, 5, 60]),
    gamma=st.sampled_from([0.05, 0.8, 20.0]),
    how=st.sampled_from(["quantile", "on-pixel"]),
    ordering=st.sampled_from(["gap", "fifo"]),
)
def test_wide_steps_classify_exactly(
    seed, n, dims, leaf_size, m, duplicates, gamma, how, ordering
):
    tree, queries = _workload(seed, n, dims, leaf_size, m, duplicates)
    engine = _engine(tree, gamma=gamma)
    engine.ordering = ordering
    exact = _exact(engine, queries)
    tau = _tau(engine, queries, exact, how)
    lower, upper = engine.query_tau_bounds(queries, tau)
    mask = engine.query_tau_batch(queries, tau)
    np.testing.assert_array_equal(mask, stopping.tau_hot_mask(lower, tau))
    _agree_off_the_knife_edge(mask, exact, tau)
    if how == "on-pixel":
        row = int(np.argsort(exact)[exact.size // 2])
        assert mask[row]
    slack = KNIFE_EDGE * float(exact.max())
    assert np.all(lower <= exact + slack) and np.all(exact <= upper + slack)
    with _one_node_steps():
        narrow = _engine(tree, gamma=gamma)
        narrow.ordering = ordering
        np.testing.assert_array_equal(narrow.query_tau_batch(queries, tau), mask)


@pytest.mark.parametrize("provider_name,kernel", [
    ("quad", "gaussian"),
    ("linear", "gaussian"),
    ("baseline", "exponential"),
    ("quad", "triangular"),  # the distance-kernel provider: stacking fallback
])
def test_every_provider_takes_wide_steps(provider_name, kernel):
    tree, queries = _workload(seed=5, n=400, dims=2, leaf_size=16, m=90, duplicates=5)
    engine = _engine(tree, provider_name, kernel)
    exact = _exact(engine, queries)
    tau = float(np.median(exact))
    calls = []
    original = ComputeBackend.node_bounds_stacked

    def counting(self, provider, tree, nodes, queries, queries_sq):
        calls.append(len(nodes))
        return original(self, provider, tree, nodes, queries, queries_sq)

    with mock.patch.object(ComputeBackend, "node_bounds_stacked", counting):
        mask = engine.query_tau_batch(queries, tau)
    assert max(calls) > 2  # several nodes popped in one step
    _agree_off_the_knife_edge(mask, exact, tau)
    with _one_node_steps():
        np.testing.assert_array_equal(
            _engine(tree, provider_name, kernel).query_tau_batch(queries, tau), mask
        )


def test_step_width_rule():
    assert tau_step_width(1) == batch_engine.TAU_STEP_NODES
    assert tau_step_width(256) == batch_engine.TAU_STEP_NODES
    assert tau_step_width(4096) == 2
    assert tau_step_width(100_000) == 1
    for n_active in (300, 1000, 4096):
        assert 2 * n_active * tau_step_width(n_active) <= batch_engine.TAU_STEP_ROWS


def test_wide_steps_count_work_per_popped_node():
    tree, queries = _workload(seed=9, n=300, dims=2, leaf_size=8, m=60, duplicates=0)
    engine = _engine(tree)
    tau = float(np.median(_exact(engine, queries)))
    with trace_to(steps=True) as tracer:
        __, __, observation = engine._refine_batch(
            queries,
            lambda lb, ub: stopping.tau_stop_mask(lb, ub, tau),
            tracer=tracer,
            width=tau_step_width,
        )
        steps = [e for e in tracer.events() if e["event"] == "batch_step"]
    stats = engine.stats
    assert observation["pops"] == len(steps) > 0
    # Every popped node adds its active rows to the iterations and one
    # level to each of their traced depths.
    assert stats.iterations == sum(step["n_active"] for step in steps)
    assert int(observation["depth"].sum()) == stats.iterations
    leaves = sum(1 for step in steps if step["leaf"])
    inner = len(steps) - leaves
    assert stats.node_evaluations == queries.shape[0] + 2 * sum(
        step["n_active"] for step in steps if not step["leaf"]
    )
    assert stats.leaf_evaluations == sum(step["n_active"] for step in steps if step["leaf"])
    assert inner > 0 and leaves > 0


@pytest.mark.parametrize("ordering", ["gap", "fifo"])
def test_token_tripped_mid_batch_leaves_valid_envelopes(ordering):
    tree, queries = _workload(seed=11, n=3000, dims=2, leaf_size=8, m=80, duplicates=5)
    engine = _engine(tree, gamma=4.0)
    engine.ordering = ordering
    exact = _exact(engine, queries)
    tau = float(np.median(exact))
    engine.query_tau_bounds(queries, tau)
    # The token is polled between steps, each of which may scan many
    # leaves: trip it well inside the run.
    budget = engine.stats.point_evaluations // 3
    token = Budget(max_kernel_evals=budget).token()
    cut = _engine(tree, gamma=4.0)
    cut.ordering = ordering
    lower, upper = cut.query_tau_bounds(queries, tau, cancel=token)
    assert token.triggered
    slack = KNIFE_EDGE * float(exact.max())
    assert np.all(lower <= exact + slack) and np.all(exact <= upper + slack)
    undecided = (lower < tau) & (upper >= tau)
    assert undecided.any()
    mask = stopping.tau_hot_mask(lower, tau)
    assert not mask[undecided].any()  # undecided rows read cold
    decided = ~undecided
    _agree_off_the_knife_edge(mask[decided], exact[decided], tau)


def test_invariant_checking_runs_the_wide_path():
    tree, queries = _workload(seed=2, n=200, dims=2, leaf_size=8, m=40, duplicates=5)
    engine = _engine(tree)
    tau = float(np.median(_exact(engine, queries)))
    plain = engine.query_tau_bounds(queries, tau)
    calls = []
    original = ComputeBackend.checked_node_bounds_stacked

    def counting(self, provider, tree, nodes, queries, queries_sq):
        calls.append(len(nodes))
        return original(self, provider, tree, nodes, queries, queries_sq)

    with checking(), mock.patch.object(
        ComputeBackend, "checked_node_bounds_stacked", counting
    ):
        checked = _engine(tree).query_tau_bounds(queries, tau)
    assert max(calls) > 2
    for got, want in zip(checked, plain):
        np.testing.assert_array_equal(got, want)

    class Inverted(QuadraticBoundProvider):
        def node_bounds_stacked(self, tree, nodes, queries, queries_sq):
            lowers, uppers = super().node_bounds_stacked(tree, nodes, queries, queries_sq)
            return uppers + 1.0, lowers

    broken = BatchRefinementEngine(tree, Inverted("gaussian", 0.8, 1.0 / tree.n_points))
    with checking(), pytest.raises(InvariantViolation):
        broken.query_tau_bounds(queries, tau)


# -- τ open pixels on every pool worker ---------------------------------------


def _settled_envelope(renderer):
    """An envelope that settles every pixel, and a τ between two densities."""
    exact = renderer.render_exact().reshape(-1)
    values = np.unique(exact)
    gaps = np.diff(values)
    k = int(np.argmax(gaps[: values.size // 2 + 1]))
    tau = float(0.5 * (values[k] + values[k + 1]))
    return exact.copy(), exact.copy(), tau


@pytest.mark.parametrize("open_count", [0, 1, 2, 5, 300])
def test_pool_tau_render_sends_one_job_per_worker(small_points, monkeypatch, open_count):
    renderer = KDVRenderer(small_points, resolution=(24, 20))
    lower, upper, tau = _settled_envelope(renderer)
    rng = np.random.default_rng(open_count)
    opened = rng.choice(lower.size, size=open_count, replace=False)
    lower[opened] = 0.0
    upper[opened] = 2.0 * float(upper.max())
    jobs_seen = []
    original = ProcessTileExecutor.run

    def recording(self, jobs, store, **kwargs):
        jobs_seen.append([job.pixels for job in jobs])
        return original(self, jobs, store, **kwargs)

    monkeypatch.setattr(ProcessTileExecutor, "run", recording)
    options = {"tile_size": 8, "envelope": (lower, upper)}
    try:
        pooled = renderer.render(
            RenderRequest.for_tau(tau, options=RenderOptions(workers=2, **options))
        )
    finally:
        close_render_pools()
    in_process = renderer.render(RenderRequest.for_tau(tau, options=RenderOptions(**options)))
    np.testing.assert_array_equal(pooled, in_process)
    np.testing.assert_array_equal(pooled, renderer.render(RenderRequest.for_tau(tau)))
    (jobs,) = jobs_seen
    # At most a tile (64 pixels) per job, at least one job per worker,
    # never an empty one; together, the open pixels in row-major order.
    expected = min(max(-(-open_count // 64), 2), open_count)
    assert len(jobs) == expected
    if jobs:
        joined = np.concatenate(jobs)
        np.testing.assert_array_equal(joined, np.sort(opened))
        sizes = [len(pixels) for pixels in jobs]
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= 64
