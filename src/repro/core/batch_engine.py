"""Batched frontier refinement: one priority loop, many pixels at once.

The scalar :class:`~repro.core.engine.RefinementEngine` answers one pixel
per Table-3 loop, paying Python interpreter overhead for every node pop
and bound evaluation. Rendering a colour map asks the *same* tree the
*same* kind of question for tens of thousands of adjacent pixels, whose
refinement frontiers overlap heavily — so this engine refines a whole
pixel batch against one shared frontier instead:

* the frontier is a priority queue of index nodes, ordered by the node's
  bound gap **summed over the still-active pixels** (the batch analogue
  of the paper's decreasing-gap rule);
* popping a node evaluates its two children against *all* active pixels
  in one vectorised :meth:`~repro.core.bounds.base.BoundProvider.node_bounds_batch`
  call (leaves use :meth:`~repro.core.bounds.base.BoundProvider.leaf_exact_batch`),
  amortising the per-node Python cost over the batch width;
* pixels whose ε/τ stopping test fires **retire** from the active set
  immediately, so converged pixels stop paying for the stragglers'
  refinement;
* τ refinement takes *wide* steps (:func:`tau_step_width`): a step pops
  several nodes and bounds all their children in one stacked call
  (:meth:`~repro.core.bounds.base.BoundProvider.node_bounds_stacked`),
  because at the few hundred open pixels of a τ tile a bound call is
  mostly fixed numpy cost. τ masks do not depend on the schedule; ε
  values do, so ε keeps one node per step.

Priorities are kept *lazily*: a stored priority is the gap sum at push
time, an upper bound on the true gap sum because per-pixel gaps are
non-negative and the active set only shrinks. Popping therefore
re-scores the candidate against the current active set and re-inserts it
if it no longer beats the runner-up — the standard stale-priority trick,
with correctness guaranteed by the stored value never underestimating.

Accumulators mirror the scalar engine exactly — per-pixel Kahan
compensation on the exact sum and both heap sums, interval intersection,
midpoint collapse — so every soundness contract of
:mod:`repro.contracts` holds per pixel, and ``REPRO_CHECK_INVARIANTS=1``
routes through the checked batch bound variants plus per-row
containment/tightening validation.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.contracts.runtime import (
    check_leaf_containment,
    check_monotone_tightening,
    invariants_enabled,
)
from repro.core import stopping
from repro.core.backends import ComputeBackend
from repro.core.engine import QueryStats, exhausted_exact
from repro.errors import InvalidParameterError
from repro.obs.runtime import current_tracer
from repro.utils.validation import check_probability_like

if TYPE_CHECKING:
    from typing import Any

    from repro._types import BoolArray, FloatArray, IntArray
    from repro.core.bounds.base import BoundProvider
    from repro.index.kdtree import KDTree
    from repro.obs.trace import Tracer
    from repro.resilience.budget import CancellationToken

__all__ = ["BatchRefinementEngine", "tau_step_width"]

#: The τ step width rule (:func:`tau_step_width`): a step pops at most
#: ``TAU_STEP_NODES`` frontier nodes, and fewer once their children's
#: stacked bound call would pass ``TAU_STEP_ROWS`` rows.
TAU_STEP_NODES, TAU_STEP_ROWS = 32, 16_384


def _require_finite(queries: FloatArray) -> None:
    """Raise :class:`InvalidParameterError` unless every coordinate is finite.

    A non-finite query has NaN bounds: its row never meets a stopping
    rule, and its NaN gap sum keeps the gap ordering's lazy re-scoring
    from ever settling on a node.
    """
    if not np.isfinite(queries).all():
        raise InvalidParameterError("queries must be finite (no NaN or inf coordinates)")


def tau_step_width(n_active: int) -> int:
    """Frontier nodes one τ refinement step pops at ``n_active`` active rows.

    A node-bound call on a few hundred rows is mostly fixed numpy cost,
    so τ steps pop several nodes and bound all their children in one
    call of about ``TAU_STEP_ROWS`` rows. τ masks do not depend on the
    refinement schedule (the τ tie guard), so the width changes no mask;
    ε refinement keeps one node per step, because its values do.
    """
    return max(1, min(TAU_STEP_NODES, TAU_STEP_ROWS // (2 * n_active)))


class BatchRefinementEngine:
    """Level-synchronous bound refinement over a pixel batch.

    Parameters
    ----------
    tree:
        A fitted :class:`~repro.index.kdtree.KDTree`.
    provider:
        The :class:`~repro.core.bounds.base.BoundProvider` supplying
        per-node bounds; only the scalar interface is required — the
        default :meth:`~repro.core.bounds.base.BoundProvider.node_bounds_batch`
        loop fallback keeps third-party providers working, just without
        the vectorisation win.
    ordering:
        ``"gap"`` (split the node with the largest active-summed bound
        gap first) or ``"fifo"`` (breadth-first; ablation).
    stats:
        Optional :class:`~repro.core.engine.QueryStats` to accumulate
        into — pass the scalar engine's stats object to keep one unified
        work ledger, or leave ``None`` for a private one (used by the
        tiled renderer's per-worker engines, merged afterwards).

    Every batched bound and leaf evaluation goes through
    :attr:`backend`, the one :class:`~repro.core.backends.ComputeBackend`
    seam; the scalar τ-canonicalisation path calls the provider
    directly. Every query coordinate must be finite: the query methods
    and :meth:`root_envelope` raise
    :class:`~repro.errors.InvalidParameterError` otherwise.
    """

    def __init__(
        self,
        tree: KDTree,
        provider: BoundProvider,
        ordering: str = "gap",
        stats: QueryStats | None = None,
    ) -> None:
        if ordering not in ("gap", "fifo"):
            raise InvalidParameterError(
                f"ordering must be 'gap' or 'fifo', got {ordering!r}"
            )
        self.tree = tree
        self.provider = provider
        self.ordering = ordering
        self.stats = stats if stats is not None else QueryStats()
        self.backend = ComputeBackend()

    def root_envelope(
        self, queries: FloatArray, queries_sq: FloatArray | None = None
    ) -> tuple[FloatArray, FloatArray]:
        """Zero-refinement ``(lb, ub)`` envelopes: the root node's bounds.

        Valid before any frontier work runs (``LB <= F <= UB`` holds for
        every query from the quadratic bounds alone), so anytime renders
        use it as the initial per-pixel envelope and the tile service as
        the cheap whole-tile classifier (a tile whose root UB is already
        below τ is all-cold without refining a single node). Honours
        ``REPRO_CHECK_INVARIANTS`` by routing through the checked bound
        variant. ``queries_sq`` optionally carries precomputed per-row
        squared norms.
        """
        _require_finite(queries)
        if queries_sq is None:
            queries_sq = np.einsum("ij,ij->i", queries, queries)
        backend = self.backend
        node_bounds = partial(
            backend.checked_node_bounds_batch
            if invariants_enabled()
            else backend.node_bounds_batch,
            self.provider,
        )
        lb, ub = node_bounds(self.tree.root, queries, queries_sq)
        return (
            np.array(lb, dtype=np.float64, copy=True),
            np.array(ub, dtype=np.float64, copy=True),
        )

    # -- shared batched refinement loop -----------------------------------

    def _refine_batch(
        self,
        queries: FloatArray,
        stop_rows: Callable[[FloatArray, FloatArray], BoolArray],
        tracer: Tracer | None = None,
        cancel: CancellationToken | None = None,
        width: Callable[[int], int] | None = None,
    ) -> tuple[FloatArray, FloatArray, dict[str, Any] | None]:
        """Refine until every pixel's ``stop_rows(lb, ub)`` test fires.

        ``stop_rows`` maps equal-length ``(lb, ub)`` row vectors to a
        boolean row vector; it is evaluated only on still-active rows.
        Returns the full-batch ``(lb, ub)`` arrays plus, when a tracer
        is active, an observation dict (per-pixel refinement depths,
        frontier pop count, mean root gap) the caller folds into its
        ``batch_query`` trace event; ``None`` otherwise, at no cost.

        ``cancel`` (a cooperative
        :class:`~repro.resilience.budget.CancellationToken`) is polled
        once per refinement step with the frontier's memory estimate; a
        tripped token breaks the loop, leaving still-active rows with
        their current — valid but not fully tightened — intervals (the
        exhausted-collapse below is skipped for an interrupted loop, as
        it is only correct for a drained frontier). Polling has no
        effect on the refinement schedule, so a token that never trips
        leaves every result bit-identical to no token at all.

        With ``width=None`` each step pops one frontier node and bounds
        its two children in two calls. A ``width`` rule (τ passes
        :func:`tau_step_width`) makes steps wide: a step pops up to
        ``width(n_active)`` nodes, re-scores them in one operation,
        bounds all their children in one stacked call
        (:meth:`~repro.core.backends.ComputeBackend.node_bounds_stacked`),
        scans the popped leaves and updates the heap sums once. Work
        counts and traced depths grow per popped node, and wide-step
        heap entries keep their rows compacted to the rows active when
        they were pushed, so a step allocates in proportion to its
        active rows, not to the batch.
        """
        provider = self.provider
        stats = self.stats
        batch = np.ascontiguousarray(queries, dtype=np.float64)
        if batch.ndim != 2:
            raise InvalidParameterError(
                f"queries must be an (m, d) array, got shape {batch.shape}"
            )
        _require_finite(batch)
        m, dims = batch.shape
        stats.queries += m
        batch_sq = np.einsum("ij,ij->i", batch, batch)

        # Like the scalar engine, the checking branch is chosen once per
        # batch; the hot path calls the unchecked batch variants of the
        # compute backend, which delegates to the provider.
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
        stacked_bounds = partial(
            backend.checked_node_bounds_stacked if check else backend.node_bounds_stacked,
            provider,
            self.tree,
        )
        bound_name = type(provider).__name__

        root = self.tree.root
        root_lb, root_ub = node_bounds(root, batch, batch_sq)
        stats.node_evaluations += m
        # Full-batch results: a row's entries are final once it retires.
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

        # Active-row state, compacted: position k of every array below
        # belongs to batch row ``active[k]``. Retiring rows compacts the
        # state once, so a frontier pop reads and writes it in place.
        # Bound providers read a query batch column by column, so the
        # active queries are kept as a (d, n) array and handed over as
        # its column-contiguous (n, d) transpose. Accumulators are
        # Kahan-compensated exactly as in the scalar engine (see
        # RefinementEngine._refine for why plain += breaks the
        # relative-error contract on low-density pixels).
        active: IntArray = np.flatnonzero(~stop_rows(lb, ub))
        n_active = int(active.size)
        columns = batch.T.take(active, axis=1)
        active_sq = batch_sq[active]
        cur_lb = root_lb[active]
        cur_ub = root_ub[active]
        exact_acc = np.zeros(n_active, dtype=np.float64)
        exact_comp = np.zeros(n_active, dtype=np.float64)
        heap_lb = cur_lb.copy()
        heap_lb_comp = np.zeros(n_active, dtype=np.float64)
        heap_ub = cur_ub.copy()
        heap_ub_comp = np.zeros(n_active, dtype=np.float64)

        gap_ordered = self.ordering == "gap"
        counter = 0
        # A heap entry is (priority, counter, node, lb rows, ub rows),
        # plus, in wide steps, the active rows its bounds were taken on
        # (None for the root's full-width rows).
        heap: list[tuple[Any, ...]] = []
        if n_active:
            priority = -float((cur_ub - cur_lb).sum()) if gap_ordered else 0.0
            entry: tuple[Any, ...] = (priority, counter, root, root_lb, root_ub)
            heap.append(entry if width is None else entry + (None,))
        # Floats the heap entries hold in wide steps, for the estimate below.
        stored = 2 * m

        interrupted = False
        while heap and n_active:
            if cancel is not None:
                # Frontier memory estimate: the heap entries' bound rows
                # (two full-width float64 rows each, or their compacted
                # rows in wide steps), the batch d + 5 more rows (queries,
                # norms, results, root bounds), and the active rows d + 10
                # compacted ones (queries, norms, interval, accumulators,
                # row index).
                if width is None:
                    stored = len(heap) * 2 * m
                memory = (stored + (dims + 5) * m + (dims + 10) * n_active) * 8
                if cancel.stop_reason(memory) is not None:
                    interrupted = True
                    break
            if width is None:
                # Frontier entries hold full-width rows, valid on the rows
                # that were active when they were pushed (a superset of the
                # current ones, because the active set only shrinks).
                entry = heappop(heap)
                node_lb = entry[3][active]
                node_ub = entry[4][active]
                if gap_ordered:
                    # Lazy priorities: stored gap sums were computed over a
                    # superset of the current active set, so they never
                    # underestimate. Re-score the popped candidate and push
                    # it back if it no longer beats the runner-up. Written as
                    # ``not >`` so a NaN gap sum (finite queries whose bounds
                    # overflow) keeps the candidate instead of cycling forever.
                    while heap:
                        fresh = -float((node_ub - node_lb).sum())
                        if not fresh > heap[0][0]:
                            break
                        heappush(heap, (fresh, entry[1], entry[2], entry[3], entry[4]))
                        entry = heappop(heap)
                        node_lb = entry[3][active]
                        node_ub = entry[4][active]
                node = entry[2]

                stats.iterations += n_active
                if tracer is not None:
                    assert depth is not None
                    depth[active] += 1
                    pops += 1
                    tracer.frontier(n_active)
                    if steps:
                        tracer.batch_step(
                            node=node.node_id,
                            leaf=node.is_leaf,
                            n_active=n_active,
                            gap_sum=float((node_ub - node_lb).sum()),
                        )
                if node.is_leaf:
                    # Leaves get a row-major copy: BLAS sums a one-point
                    # leaf's products in a layout-dependent order.
                    exact = leaf_exact(
                        node, np.ascontiguousarray(columns.T, dtype=np.float64), active_sq
                    )
                    stats.leaf_evaluations += n_active
                    stats.point_evaluations += node.agg.n * n_active
                    if cancel is not None:
                        cancel.charge(node.agg.n * n_active)
                    if check:
                        for row in range(n_active):
                            check_leaf_containment(
                                float(exact[row]),
                                float(node_lb[row]),
                                float(node_ub[row]),
                                bound=bound_name,
                                node=node.node_id,
                                query=batch[int(active[row])],
                            )
                    exact_acc = _kahan_add(exact_acc, exact_comp, exact)
                    delta_lb = np.negative(node_lb, out=node_lb)
                    delta_ub = np.negative(node_ub, out=node_ub)
                else:
                    left = node.left
                    right = node.right
                    queries_a = columns.T
                    left_lb, left_ub = node_bounds(left, queries_a, active_sq)
                    right_lb, right_ub = node_bounds(right, queries_a, active_sq)
                    stats.node_evaluations += 2 * n_active
                    for child, child_lb, child_ub in (
                        (left, left_lb, left_ub),
                        (right, right_lb, right_ub),
                    ):
                        counter += 1
                        priority = (
                            -float((child_ub - child_lb).sum())
                            if gap_ordered
                            else float(counter)
                        )
                        # Rows outside the active set are never read (the
                        # active set only shrinks), so they stay unset.
                        full_lb = np.empty(m, dtype=np.float64)
                        full_ub = np.empty(m, dtype=np.float64)
                        full_lb[active] = child_lb
                        full_ub[active] = child_ub
                        heappush(heap, (priority, counter, child, full_lb, full_ub))
                    delta_lb = left_lb + right_lb
                    delta_lb -= node_lb
                    delta_ub = left_ub + right_ub
                    delta_ub -= node_ub
            else:
                # One wide step (see the docstring); it ends with the
                # heap-sum deltas and names its last node for the checks.
                step = width(n_active)
                popped = [heappop(heap) for __ in range(min(step, len(heap)))]
                stored -= sum(2 * entry[3].shape[0] for entry in popped)
                node_lb, node_ub = _popped_rows(popped, active)
                if gap_ordered:
                    # Lazy priorities, as above, for all popped nodes in
                    # one operation: push back those that no longer beat
                    # the runner-up, but always keep the widest.
                    gaps = (node_ub - node_lb).sum(axis=1)
                    runner = heap[0][0] if heap else np.inf
                    stale = -gaps > runner
                    if stale.all():
                        stale[int(np.argmax(gaps))] = False
                    if stale.any():
                        for k in np.flatnonzero(stale):
                            entry = popped[k]
                            fresh = -float(gaps[k])
                            heappush(
                                heap, (fresh, entry[1], entry[2], node_lb[k], node_ub[k], active)
                            )
                        stored += 2 * n_active * int(stale.sum())
                        keep = ~stale
                        popped = [entry for entry, kept in zip(popped, keep) if kept]
                        node_lb = node_lb[keep]
                        node_ub = node_ub[keep]
                nodes = [entry[2] for entry in popped]
                stats.iterations += len(nodes) * n_active
                if tracer is not None:
                    assert depth is not None
                    depth[active] += len(nodes)
                    pops += len(nodes)
                    for k, node in enumerate(nodes):
                        tracer.frontier(n_active)
                        if steps:
                            tracer.batch_step(
                                node=node.node_id,
                                leaf=node.is_leaf,
                                n_active=n_active,
                                gap_sum=float((node_ub[k] - node_lb[k]).sum()),
                            )
                popped_lb = node_lb.sum(axis=0)
                popped_ub = node_ub.sum(axis=0)
                children = [
                    child
                    for node in nodes
                    if not node.is_leaf
                    for child in (node.left, node.right)
                ]
                if children:
                    child_lb, child_ub = stacked_bounds(children, columns.T, active_sq)
                    stats.node_evaluations += len(children) * n_active
                    if gap_ordered:
                        priorities = (child_ub - child_lb).sum(axis=1)
                    for k, child in enumerate(children):
                        counter += 1
                        priority = (
                            -float(priorities[k]) if gap_ordered else float(counter)
                        )
                        heappush(
                            heap, (priority, counter, child, child_lb[k], child_ub[k], active)
                        )
                    stored += 2 * n_active * len(children)
                    delta_lb = child_lb.sum(axis=0)
                    delta_lb -= popped_lb
                    delta_ub = child_ub.sum(axis=0)
                    delta_ub -= popped_ub
                else:
                    delta_lb = np.negative(popped_lb, out=popped_lb)
                    delta_ub = np.negative(popped_ub, out=popped_ub)
                rows: FloatArray | None = None
                for k, node in enumerate(nodes):
                    if not node.is_leaf:
                        continue
                    if rows is None:
                        # Row-major, as in the one-node step above.
                        rows = np.ascontiguousarray(columns.T, dtype=np.float64)
                    exact = leaf_exact(node, rows, active_sq)
                    stats.leaf_evaluations += n_active
                    stats.point_evaluations += node.agg.n * n_active
                    if cancel is not None:
                        cancel.charge(node.agg.n * n_active)
                    if check:
                        for row in range(n_active):
                            check_leaf_containment(
                                float(exact[row]),
                                float(node_lb[k, row]),
                                float(node_ub[k, row]),
                                bound=bound_name,
                                node=node.node_id,
                                query=batch[int(active[row])],
                            )
                    exact_acc = _kahan_add(exact_acc, exact_comp, exact)
                node = nodes[-1]
            heap_lb = _kahan_add(heap_lb, heap_lb_comp, delta_lb)
            heap_ub = _kahan_add(heap_ub, heap_ub_comp, delta_ub)

            # Intersect the fresh enclosure with the previous one (both
            # valid — see the scalar engine), then collapse any interval
            # that rounding pushed inside-out.
            prev_lb = cur_lb
            prev_ub = cur_ub
            cur_lb = exact_acc + heap_lb
            np.maximum(prev_lb, cur_lb, out=cur_lb)
            cur_ub = exact_acc + heap_ub
            np.minimum(prev_ub, cur_ub, out=cur_ub)
            crossed = cur_ub < cur_lb
            if crossed.any():
                mid = 0.5 * (cur_lb[crossed] + cur_ub[crossed])
                cur_lb[crossed] = mid
                cur_ub[crossed] = mid
            if check:
                for row in range(n_active):
                    check_monotone_tightening(
                        float(prev_lb[row]),
                        float(prev_ub[row]),
                        float(cur_lb[row]),
                        float(cur_ub[row]),
                        bound=bound_name,
                        node=node.node_id,
                        query=batch[int(active[row])],
                    )

            stopped = stop_rows(cur_lb, cur_ub)
            if stopped.any():
                retired = active[stopped]
                lb[retired] = cur_lb[stopped]
                ub[retired] = cur_ub[stopped]
                keep = np.flatnonzero(~stopped)
                active = active[keep]
                n_active = int(active.size)
                columns = columns.take(keep, axis=1)
                active_sq = active_sq[keep]
                cur_lb = cur_lb[keep]
                cur_ub = cur_ub[keep]
                exact_acc = exact_acc[keep]
                exact_comp = exact_comp[keep]
                heap_lb = heap_lb[keep]
                heap_lb_comp = heap_lb_comp[keep]
                heap_ub = heap_ub[keep]
                heap_ub_comp = heap_ub_comp[keep]

        if n_active:
            if interrupted:
                lb[active] = cur_lb
                ub[active] = cur_ub
            else:
                # Frontier drained with pixels still active: they are
                # fully refined, so the density is the exact leaf sum;
                # drop the (tiny) residual left in the drained heap
                # accumulators. (Boundary-tight τ decisions are
                # canonicalised by query_tau_batch via exhausted_exact,
                # not here, so εKDV batches never pay an extra full
                # pass. An *interrupted* loop must keep the interval
                # form instead — its frontier still holds bound mass,
                # so collapsing to the partial leaf sum would understate
                # the density.)
                lb[active] = exact_acc
                ub[active] = exact_acc
        if tracer is None:
            return lb, ub, None
        observation: dict[str, Any] = {
            "depth": depth,
            "pops": pops,
            "root_gap_mean": float((root_ub - root_lb).mean()) if m else 0.0,
        }
        return lb, ub, observation

    # -- eps queries ------------------------------------------------------

    def _eps_refined(
        self,
        queries: FloatArray,
        eps: float,
        atol: float,
        offset: float,
        cancel: CancellationToken | None,
    ) -> tuple[FloatArray, FloatArray]:
        """Validated εKDV refinement returning raw ``(lb, ub)`` rows.

        Shared core of :meth:`query_eps_batch` (midpoint answers) and
        :meth:`query_eps_bounds` (anytime envelopes): same validation,
        same stopping rule, same trace emission. Rows still unresolved
        when a cancellation token tripped are labelled with
        :data:`~repro.core.stopping.RULE_CANCELLED` in the trace event.
        """
        eps = check_probability_like(eps, "eps")
        if atol < 0.0:
            raise InvalidParameterError(f"atol must be >= 0, got {atol!r}")
        offset = float(offset)
        if offset < 0.0:
            raise InvalidParameterError(f"offset must be >= 0, got {offset!r}")
        one_plus_eps = 1.0 + eps

        def stop_rows(lb: FloatArray, ub: FloatArray) -> BoolArray:
            return stopping.eps_stop_mask(lb, ub, one_plus_eps, offset, atol)

        tracer = current_tracer()
        lb, ub, observation = self._refine_batch(
            queries, stop_rows, tracer=tracer, cancel=cancel
        )
        if tracer is not None and observation is not None:
            relative = ub + offset <= one_plus_eps * (lb + offset)
            absolute = (ub - lb <= atol) & ~relative
            rows = int(lb.shape[0])
            rules = {
                stopping.RULE_EPS_RELATIVE: int(relative.sum()),
                stopping.RULE_EPS_ATOL: int(absolute.sum()),
            }
            leftover_rule = (
                stopping.RULE_CANCELLED
                if cancel is not None and cancel.triggered
                else stopping.RULE_EXHAUSTED
            )
            rules[leftover_rule] = rows - sum(rules.values())
            tracer.batch_query(
                engine="batch",
                op="eps",
                bound=type(self.provider).__name__,
                rows=rows,
                pops=observation["pops"],
                depths=observation["depth"],
                rules=rules,
                root_gap_mean=observation["root_gap_mean"],
                final_gap_mean=float((ub - lb).mean()) if rows else 0.0,
            )
        return lb, ub

    def query_eps_batch(
        self,
        queries: FloatArray,
        eps: float,
        *,
        atol: float = 0.0,
        offset: float = 0.0,
        cancel: CancellationToken | None = None,
    ) -> FloatArray:
        """εKDV for a pixel batch: values within ``(1 ± eps)`` of truth.

        Semantics per pixel are identical to
        :meth:`~repro.core.engine.RefinementEngine.query_eps` (same
        stopping rule, same midpoint answer, same ``atol`` floor and
        ``offset`` handling) — only the refinement schedule differs, and
        the ``(1 ± eps)`` contract is schedule-independent. With a
        tripped ``cancel`` token, unresolved rows return the midpoint of
        their best-so-far interval (use :meth:`query_eps_bounds` when
        the caller needs the envelopes themselves).
        """
        lb, ub = self._eps_refined(queries, eps, atol, offset, cancel)
        result: FloatArray = offset + 0.5 * (lb + ub)
        return result

    def query_eps_bounds(
        self,
        queries: FloatArray,
        eps: float,
        *,
        atol: float = 0.0,
        offset: float = 0.0,
        cancel: CancellationToken | None = None,
    ) -> tuple[FloatArray, FloatArray]:
        """εKDV refinement returning the per-pixel ``(LB, UB)`` envelopes.

        The anytime interface: the returned arrays (``offset``
        included) always satisfy ``LB <= offset + F_P(q) <= UB`` per
        pixel, whether or not refinement ran to its stopping rule — a
        tripped ``cancel`` token merely leaves some intervals wider.
        The εKDV answer for resolved rows is the midpoint
        ``0.5 * (LB + UB)``, bit-identical to :meth:`query_eps_batch`.
        """
        lb, ub = self._eps_refined(queries, eps, atol, offset, cancel)
        return lb + offset, ub + offset

    # -- tau queries ------------------------------------------------------

    def _tau_refined(
        self,
        queries: FloatArray,
        shifted: float,
        cancel: CancellationToken | None,
    ) -> tuple[FloatArray, FloatArray]:
        """τKDV refinement returning canonicalised ``(lb, ub)`` rows.

        Shared core of :meth:`query_tau_batch` (hot masks) and
        :meth:`query_tau_bounds` (anytime envelopes). Boundary-tight
        *decided* rows are re-decided from the canonical exhausted sum;
        rows left undecided by a tripped cancellation token are
        excluded from that canonicalisation — each canonical pass
        refines the whole tree, exactly the work the budget forbade —
        and keep their best-so-far intervals instead (the caller's hot
        mask then reads them conservatively as cold).
        """

        def stop_rows(lb: FloatArray, ub: FloatArray) -> BoolArray:
            return stopping.tau_stop_mask(lb, ub, shifted)

        tracer = current_tracer()
        lb, ub, observation = self._refine_batch(
            queries, stop_rows, tracer=tracer, cancel=cancel, width=tau_step_width
        )
        tight = stopping.tau_tight_mask(lb, ub, shifted)
        if cancel is not None and cancel.triggered:
            # Undecided intervals straddle tau, so their "margin" is
            # non-positive and the tight test fires vacuously; restrict
            # to rows whose decision is certain. (No-op bit-wise when
            # the token never tripped: every row is then decided or
            # exhausted-collapsed, and the mask is all-true on them.)
            tight &= stopping.tau_stop_mask(lb, ub, shifted)
        if tight.any():
            batch = np.ascontiguousarray(queries, dtype=np.float64)
            leaf_exact = (
                self.provider.checked_leaf_exact
                if invariants_enabled()
                else self.provider.leaf_exact
            )
            for index in np.flatnonzero(tight):
                row = int(index)
                q_row = batch[row]
                value = exhausted_exact(
                    self.tree, leaf_exact, q_row, float(q_row @ q_row)
                )
                lb[row] = value
                ub[row] = value
        if tracer is not None and observation is not None:
            rows = int(lb.shape[0])
            hot = int(stopping.tau_hot_mask(lb, shifted).sum())
            cold = int((ub < shifted).sum())
            leftover_rule = (
                stopping.RULE_CANCELLED
                if cancel is not None and cancel.triggered
                else stopping.RULE_EXHAUSTED
            )
            rules = {
                stopping.RULE_TAU_HOT: hot,
                stopping.RULE_TAU_COLD: cold,
                leftover_rule: max(rows - hot - cold, 0),
            }
            tracer.batch_query(
                engine="batch",
                op="tau",
                bound=type(self.provider).__name__,
                rows=rows,
                pops=observation["pops"],
                depths=observation["depth"],
                rules=rules,
                root_gap_mean=observation["root_gap_mean"],
                final_gap_mean=float((ub - lb).mean()) if rows else 0.0,
            )
        return lb, ub

    def query_tau_batch(
        self,
        queries: FloatArray,
        tau: float,
        *,
        offset: float = 0.0,
        cancel: CancellationToken | None = None,
    ) -> BoolArray:
        """τKDV for a pixel batch: whether ``offset + F_P(q) >= tau``.

        Pixel-for-pixel the same decision rule as
        :meth:`~repro.core.engine.RefinementEngine.query_tau`, via the
        shared canonical semantics of :mod:`repro.core.stopping`: stop
        only once a pixel's decision is certain (``lb >= tau`` hot,
        ``ub < tau`` cold — strict, so an upper bound landing exactly on
        ``tau`` keeps refining), and classify boundary pixels
        (``F == tau``) as hot on every path. Rows that decided within
        :data:`~repro.core.stopping.TAU_TIE_GUARD` of ``tau`` are
        re-decided from the canonical exhausted sum, exactly like the
        scalar engine, so both τ masks agree bit-for-bit at the
        boundary. Rows left undecided by a tripped ``cancel`` token
        classify conservatively as cold.
        """
        shifted = float(tau) - float(offset)
        if not np.isfinite(shifted):
            raise InvalidParameterError(f"tau must be finite, got {shifted!r}")
        lb, __ = self._tau_refined(queries, shifted, cancel)
        result: BoolArray = stopping.tau_hot_mask(lb, shifted)
        return result

    def query_tau_bounds(
        self,
        queries: FloatArray,
        tau: float,
        *,
        offset: float = 0.0,
        cancel: CancellationToken | None = None,
    ) -> tuple[FloatArray, FloatArray]:
        """τKDV refinement returning the per-pixel ``(LB, UB)`` envelopes.

        The anytime interface: the returned arrays (``offset``
        included) always satisfy ``LB <= offset + F_P(q) <= UB``. The
        hot mask of resolved rows is ``LB >= tau``, bit-identical to
        :meth:`query_tau_batch`; rows whose interval still straddles
        ``tau`` (possible only under a tripped ``cancel`` token) are
        undecided, which that mask reads conservatively as cold.
        """
        shifted = float(tau) - float(offset)
        if not np.isfinite(shifted):
            raise InvalidParameterError(f"tau must be finite, got {shifted!r}")
        lb, ub = self._tau_refined(queries, shifted, cancel)
        return lb + float(offset), ub + float(offset)


def _popped_rows(
    popped: list[tuple[Any, ...]], active: IntArray
) -> tuple[FloatArray, FloatArray]:
    """Wide-step heap entries' bounds on the ``active`` rows, as ``(k, n)`` blocks.

    An entry's rows belong to the active rows it was pushed on (its last
    field; ``None`` for the whole batch). Those are a sorted superset of
    the current ones, which are found in them by binary search, once per
    distinct set.
    """
    lower = np.empty((len(popped), active.shape[0]), dtype=np.float64)
    upper = np.empty_like(lower)
    positions: dict[int, IntArray] = {}
    for k, entry in enumerate(popped):
        pushed_on = entry[5]
        if pushed_on is active:
            lower[k] = entry[3]
            upper[k] = entry[4]
            continue
        if pushed_on is None:
            index = active
        else:
            index = positions.get(id(pushed_on))
            if index is None:
                index = positions[id(pushed_on)] = np.searchsorted(pushed_on, active)
        np.take(entry[3], index, out=lower[k])
        np.take(entry[4], index, out=upper[k])
    return lower, upper


def _kahan_add(acc: FloatArray, comp: FloatArray, delta: FloatArray) -> FloatArray:
    """Compensated ``acc + delta``: returns the new sum, updates ``comp`` in place."""
    y = delta - comp
    total = acc + y
    np.subtract(total, acc, out=comp)
    comp -= y
    return total
