"""The compacted refinement loop pinned to the masked-update loop it replaced.

``reference_refine_batch`` below is the batched engine's previous
``_refine_batch``, kept verbatim as the test reference: full-width
accumulators updated through the active-row index on every frontier
pop. The current loop keeps the active rows' state compacted instead.
The bookkeeping changed, the arithmetic did not, so with the same bound
provider both loops must return bit-identical ``(lb, ub)`` rows,
identical ``QueryStats``, identical traced depths and pop counts, and
the same sequence of traced frontier pops — for εKDV and τKDV, both
frontier orderings, with and without invariant checking, and when a
cancellation token trips mid-batch.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.contracts.runtime import (
    check_leaf_containment,
    check_monotone_tightening,
    checking,
    invariants_enabled,
)
from repro.core import stopping
from repro.core.batch_engine import BatchRefinementEngine
from repro.core.bounds import make_bound_provider
from repro.core.engine import QueryStats
from repro.core.exact import exact_density
from repro.errors import InvalidParameterError
from repro.index.kdtree import KDTree
from repro.obs.runtime import trace_to
from repro.resilience.budget import Budget

if TYPE_CHECKING:
    from typing import Any

    from repro._types import BoolArray, FloatArray, IntArray
    from repro.index.kdtree import KDTreeNode
    from repro.obs.trace import Tracer
    from repro.resilience.budget import CancellationToken


def reference_refine_batch(
    self,
    queries: FloatArray,
    stop_rows: Callable[[FloatArray, FloatArray], BoolArray],
    tracer: Tracer | None = None,
    cancel: CancellationToken | None = None,
) -> tuple[FloatArray, FloatArray, dict[str, Any] | None]:
    """The masked-update refinement loop the compacted one replaced."""
    provider = self.provider
    stats = self.stats
    batch = np.ascontiguousarray(queries, dtype=np.float64)
    if batch.ndim != 2:
        raise InvalidParameterError(
            f"queries must be an (m, d) array, got shape {batch.shape}"
        )
    m = batch.shape[0]
    stats.queries += m
    batch_sq = np.einsum("ij,ij->i", batch, batch)

    # Like the scalar engine, the checking branch is chosen once per
    # batch; the hot path calls the unchecked batch variants of the
    # active compute backend (numpy delegates to the provider).
    check = invariants_enabled()
    backend = self.backend
    node_bounds = partial(
        backend.checked_node_bounds_batch if check else backend.node_bounds_batch,
        provider,
    )
    leaf_exact = partial(
        backend.checked_leaf_exact_batch if check else backend.leaf_exact_batch,
        provider,
    )
    bound_name = type(provider).__name__

    root = self.tree.root
    root_lb, root_ub = node_bounds(root, batch, batch_sq)
    stats.node_evaluations += m

    # Per-pixel accumulators, Kahan-compensated exactly as in the
    # scalar engine (see RefinementEngine._refine for why plain +=
    # breaks the relative-error contract on low-density pixels).
    exact_acc = np.zeros(m, dtype=np.float64)
    exact_comp = np.zeros(m, dtype=np.float64)
    heap_lb = root_lb.copy()
    heap_lb_comp = np.zeros(m, dtype=np.float64)
    heap_ub = root_ub.copy()
    heap_ub_comp = np.zeros(m, dtype=np.float64)
    lb = root_lb.copy()
    ub = root_ub.copy()

    # Observability state: allocated only when a tracer is active,
    # so the untraced hot path carries no extra arrays or branches
    # beyond one None test per frontier pop.
    depth: IntArray | None = None
    pops = 0
    steps = False
    if tracer is not None:
        depth = np.zeros(m, dtype=np.int64)
        steps = tracer.steps

    active: IntArray = np.flatnonzero(~stop_rows(lb, ub))
    gap_ordered = self.ordering == "gap"
    counter = 0
    heap: list[tuple[float, int, KDTreeNode, FloatArray, FloatArray]] = []
    if active.size:
        priority = (
            -float((root_ub[active] - root_lb[active]).sum())
            if gap_ordered
            else 0.0
        )
        heap.append((priority, counter, root, root_lb, root_ub))

    interrupted = False
    while heap and active.size:
        if cancel is not None:
            # Frontier memory estimate: each heap entry carries two
            # full-width float64 rows; a dozen more full-width
            # accumulator/bookkeeping rows live for the whole batch.
            memory = (len(heap) * 2 + 12) * m * 8
            if cancel.stop_reason(memory) is not None:
                interrupted = True
                break
        if gap_ordered:
            # Lazy priorities: stored gap sums were computed over a
            # superset of the current active set, so they never
            # underestimate. Re-score the popped candidate and push
            # it back if it no longer beats the runner-up.
            entry = heappop(heap)
            while heap:
                node_lb, node_ub = entry[3], entry[4]
                fresh = -float((node_ub[active] - node_lb[active]).sum())
                if fresh <= heap[0][0]:
                    break
                heappush(heap, (fresh, entry[1], entry[2], node_lb, node_ub))
                entry = heappop(heap)
            __, __, node, node_lb, node_ub = entry
        else:
            __, __, node, node_lb, node_ub = heappop(heap)

        n_active = int(active.size)
        stats.iterations += n_active
        if tracer is not None:
            assert depth is not None
            depth[active] += 1
            pops += 1
            tracer.frontier(n_active)
            if steps:
                gap_sum = float((node_ub[active] - node_lb[active]).sum())
                tracer.batch_step(
                    node=node.node_id,
                    leaf=node.is_leaf,
                    n_active=n_active,
                    gap_sum=gap_sum,
                )
        active_q = batch[active]
        active_sq = batch_sq[active]
        if node.is_leaf:
            exact = leaf_exact(node, active_q, active_sq)
            stats.leaf_evaluations += n_active
            stats.point_evaluations += node.agg.n * n_active
            if cancel is not None:
                cancel.charge(node.agg.n * n_active)
            if check:
                for row in range(n_active):
                    i = int(active[row])
                    check_leaf_containment(
                        float(exact[row]),
                        float(node_lb[i]),
                        float(node_ub[i]),
                        bound=bound_name,
                        node=node.node_id,
                        query=batch[i],
                    )
            # exact_acc[active] += exact (masked Kahan).
            acc = exact_acc[active]
            y = exact - exact_comp[active]
            t = acc + y
            exact_comp[active] = (t - acc) - y
            exact_acc[active] = t
            delta_lb = -node_lb[active]
            delta_ub = -node_ub[active]
        else:
            left = node.left
            right = node.right
            left_lb_a, left_ub_a = node_bounds(left, active_q, active_sq)
            right_lb_a, right_ub_a = node_bounds(right, active_q, active_sq)
            stats.node_evaluations += 2 * n_active
            # Frontier entries carry full-width arrays; rows outside
            # the evaluation-time active set stay zero and are never
            # read, because the active set only shrinks.
            left_lb = np.zeros(m, dtype=np.float64)
            left_ub = np.zeros(m, dtype=np.float64)
            right_lb = np.zeros(m, dtype=np.float64)
            right_ub = np.zeros(m, dtype=np.float64)
            left_lb[active] = left_lb_a
            left_ub[active] = left_ub_a
            right_lb[active] = right_lb_a
            right_ub[active] = right_ub_a
            counter += 1
            priority = (
                -float((left_ub_a - left_lb_a).sum())
                if gap_ordered
                else float(counter)
            )
            heappush(heap, (priority, counter, left, left_lb, left_ub))
            counter += 1
            priority = (
                -float((right_ub_a - right_lb_a).sum())
                if gap_ordered
                else float(counter)
            )
            heappush(heap, (priority, counter, right, right_lb, right_ub))
            delta_lb = left_lb_a + right_lb_a - node_lb[active]
            delta_ub = left_ub_a + right_ub_a - node_ub[active]

        # heap_lb[active] += delta_lb; heap_ub[active] += delta_ub
        # (masked Kahan).
        acc = heap_lb[active]
        y = delta_lb - heap_lb_comp[active]
        t = acc + y
        heap_lb_comp[active] = (t - acc) - y
        heap_lb[active] = t
        acc = heap_ub[active]
        y = delta_ub - heap_ub_comp[active]
        t = acc + y
        heap_ub_comp[active] = (t - acc) - y
        heap_ub[active] = t

        # Intersect the fresh enclosure with the previous one (both
        # valid — see the scalar engine), then collapse any interval
        # that rounding pushed inside-out.
        new_lb = exact_acc[active] + heap_lb[active]
        new_ub = exact_acc[active] + heap_ub[active]
        cur_lb = lb[active]
        cur_ub = ub[active]
        if check:
            prev_lb = cur_lb.copy()
            prev_ub = cur_ub.copy()
        cur_lb = np.maximum(cur_lb, new_lb)
        cur_ub = np.minimum(cur_ub, new_ub)
        crossed = cur_ub < cur_lb
        if crossed.any():
            mid = 0.5 * (cur_lb[crossed] + cur_ub[crossed])
            cur_lb[crossed] = mid
            cur_ub[crossed] = mid
        lb[active] = cur_lb
        ub[active] = cur_ub
        if check:
            for row in range(n_active):
                i = int(active[row])
                check_monotone_tightening(
                    float(prev_lb[row]),
                    float(prev_ub[row]),
                    float(cur_lb[row]),
                    float(cur_ub[row]),
                    bound=bound_name,
                    node=node.node_id,
                    query=batch[i],
                )

        stopped = stop_rows(cur_lb, cur_ub)
        if stopped.any():
            active = active[~stopped]

    if active.size and not interrupted:
        # Frontier drained with pixels still active: they are fully
        # refined, so the density is the exact leaf sum; drop the
        # (tiny) residual left in the drained heap accumulators.
        # (Boundary-tight τ decisions are canonicalised by
        # query_tau_batch via exhausted_exact, not here, so εKDV
        # batches never pay an extra full pass. An *interrupted*
        # loop must keep the interval form instead — its frontier
        # still holds bound mass, so collapsing to the partial leaf
        # sum would understate the density.)
        lb[active] = exact_acc[active]
        ub[active] = exact_acc[active]
    if tracer is None:
        return lb, ub, None
    observation: dict[str, Any] = {
        "depth": depth,
        "pops": pops,
        "root_gap_mean": float((root_ub - root_lb).mean()) if m else 0.0,
    }
    return lb, ub, observation


class ReferenceEngine(BatchRefinementEngine):
    """The batched engine driven by the reference loop."""

    _refine_batch = reference_refine_batch  # type: ignore[assignment]


def _workload(seed, n, dims, leaf_size, m):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-3.0, 3.0, size=(4, dims))
    points = centers[rng.integers(4, size=n)] + rng.normal(0.0, 0.6, size=(n, dims))
    queries = points[rng.integers(n, size=m)] + rng.normal(0.0, 0.4, size=(m, dims))
    # A few far rows retire at the root; a few duplicates of data points.
    queries[: max(m // 10, 1)] += 40.0
    duplicates = min(2, n, m)
    queries[m - duplicates :] = points[:duplicates]
    return KDTree(points, leaf_size=leaf_size), queries


def _engines(tree, provider_name, kernel, gamma, ordering):
    provider = make_bound_provider(provider_name, kernel, gamma, 1.0 / tree.n_points)
    return (
        BatchRefinementEngine(tree, provider, ordering=ordering),
        ReferenceEngine(tree, provider, ordering=ordering),
    )


def _stop_rows(op, engine, queries):
    """The engine's own stopping rule, at a threshold the data makes busy."""
    if op == "eps":
        return lambda lb, ub: stopping.eps_stop_mask(lb, ub, 1.02, 0.0, 0.0)
    provider = engine.provider
    densities = exact_density(
        engine.tree.points, queries, provider.kernel, provider.gamma, provider.weight
    )
    tau = float(np.median(densities))
    return lambda lb, ub: stopping.tau_stop_mask(lb, ub, tau)


def _run(engine, queries, stop_rows, cancel_evals):
    """One traced refinement: results, stats, observation and pop sequence."""
    engine.stats = QueryStats()
    cancel = None
    if cancel_evals is not None:
        cancel = Budget(max_kernel_evals=cancel_evals).token()
    with trace_to(steps=True) as tracer:
        lb, ub, observation = engine._refine_batch(
            queries, stop_rows, tracer=tracer, cancel=cancel
        )
        pops = [
            (event["node"], event["leaf"], event["n_active"], event["gap_sum"])
            for event in tracer.events()
            if event["event"] == "batch_step"
        ]
    tripped = cancel is not None and cancel.triggered
    return lb, ub, engine.stats.as_dict(), observation, pops, tripped


def assert_loops_agree(
    tree, queries, provider_name, kernel, gamma, ordering, op, cancel_evals=None
):
    new, reference = _engines(tree, provider_name, kernel, gamma, ordering)
    stop_rows = _stop_rows(op, new, queries)
    got = _run(new, queries, stop_rows, cancel_evals)
    want = _run(reference, queries, stop_rows, cancel_evals)
    lb, ub, stats, observation, pops, tripped = got
    ref_lb, ref_ub, ref_stats, ref_observation, ref_pops, ref_tripped = want
    np.testing.assert_array_equal(lb, ref_lb)
    np.testing.assert_array_equal(ub, ref_ub)
    assert stats == ref_stats
    np.testing.assert_array_equal(observation["depth"], ref_observation["depth"])
    assert observation["pops"] == ref_observation["pops"] == len(pops)
    assert observation["root_gap_mean"] == ref_observation["root_gap_mean"]
    assert pops == ref_pops
    assert tripped == ref_tripped
    return tripped, stats


@pytest.mark.parametrize("op", ["eps", "tau"])
@pytest.mark.parametrize("ordering", ["gap", "fifo"])
@pytest.mark.parametrize("provider_name,kernel", [
    ("quad", "gaussian"),
    ("linear", "gaussian"),
    ("baseline", "gaussian"),
    # No vectorised batch override: the per-row fallback path.
    ("quad", "triangular"),
])
def test_loops_agree(op, ordering, provider_name, kernel):
    tree, queries = _workload(seed=5, n=300, dims=2, leaf_size=16, m=90)
    assert_loops_agree(tree, queries, provider_name, kernel, 0.8, ordering, op)


@pytest.mark.parametrize("op", ["eps", "tau"])
@pytest.mark.parametrize("ordering", ["gap", "fifo"])
def test_loops_agree_when_cancelled_mid_batch(op, ordering):
    tree, queries = _workload(seed=11, n=400, dims=2, leaf_size=16, m=80)
    # Size the kernel-evaluation budget from an uninterrupted run, so the
    # token trips about half way through the batch.
    __, stats = assert_loops_agree(tree, queries, "quad", "gaussian", 0.8, ordering, op)
    budget = stats["point_evaluations"] // 2
    tripped, __ = assert_loops_agree(
        tree, queries, "quad", "gaussian", 0.8, ordering, op, cancel_evals=budget
    )
    assert tripped


def test_loops_agree_on_drained_one_point_leaves():
    """Fully drained 3-D batch over one-point leaves: results are leaf sums.

    BLAS evaluates a one-point leaf's distance products in an order that
    depends on the query array's memory layout, so this pins the layout
    the loop hands to the leaf scans.
    """
    tree, queries = _workload(seed=4, n=60, dims=3, leaf_size=1, m=120)
    new, reference = _engines(tree, "quad", "gaussian", 0.8, "gap")

    def never(lb, ub):
        return np.zeros(lb.shape, dtype=bool)

    got = _run(new, queries, never, None)
    want = _run(reference, queries, never, None)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert got[2] == want[2]
    assert got[4] == want[4]


def test_loops_agree_with_invariant_checking():
    tree, queries = _workload(seed=2, n=200, dims=2, leaf_size=8, m=40)
    with checking():
        assert invariants_enabled()
        for op in ("eps", "tau"):
            assert_loops_agree(tree, queries, "quad", "gaussian", 0.8, "gap", op)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 200),
    dims=st.sampled_from([1, 2, 3]),
    leaf_size=st.sampled_from([1, 4, 32]),
    m=st.integers(1, 60),
    gamma=st.sampled_from([0.05, 0.8, 20.0]),
    op=st.sampled_from(["eps", "tau"]),
    ordering=st.sampled_from(["gap", "fifo"]),
)
def test_loops_agree_property(seed, n, dims, leaf_size, m, gamma, op, ordering):
    tree, queries = _workload(seed, n, dims, leaf_size, m)
    assert_loops_agree(tree, queries, "quad", "gaussian", gamma, ordering, op)
