"""Best-first bound-refinement engine (the paper's Section 3.2).

This is the indexing framework shared by aKDE, tKDC, KARL and QUAD: per
query pixel ``q``, a priority queue orders index nodes by decreasing
bound gap ``UB_R(q) - LB_R(q)``. Popping a node replaces its bound
contribution with either its children's bounds or, for a leaf, the exact
kernel sum (the running steps of the paper's Table 3). The loop stops as
soon as the operation-specific test fires:

* **εKDV** — ``ub <= (1 + eps) * lb`` (plus an optional absolute
  tolerance for all-zero regions, mirroring Scikit-learn's ``atol``);
  the returned midpoint ``(lb + ub) / 2`` then satisfies the
  ``(1 ± eps)`` relative-error contract;
* **τKDV** — ``lb >= tau`` (pixel is hot) or ``ub < tau`` (pixel is
  cold; strict, so an upper bound landing exactly on ``tau`` keeps
  refining — see :mod:`repro.core.stopping`, the single definition of
  both rules shared with the batched engine).

With ``REPRO_TRACE=1`` (see :mod:`repro.obs`) every query additionally
emits structured trace events — per-step bound gaps, which stopping rule
fired, refinement depth — through the active
:class:`~repro.obs.trace.Tracer`; like the contracts flag, tracing is
resolved once per query and costs nothing when off.

The engine is method-agnostic: plugging in a different
:class:`~repro.core.bounds.base.BoundProvider` yields a different
published method, which is exactly how the paper frames its comparison.

With ``REPRO_CHECK_INVARIANTS=1`` (see :mod:`repro.contracts`) every
refinement additionally validates bound order, leaf containment and
monotone tightening of the global interval; the checking branch is
selected once per query so the normal hot path stays unchanged.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.contracts.runtime import (
    check_leaf_containment,
    check_monotone_tightening,
    invariants_enabled,
)
from repro.core import stopping
from repro.errors import InvalidParameterError
from repro.obs.metrics import CounterGroup
from repro.obs.runtime import current_tracer
from repro.utils.validation import check_probability_like

if TYPE_CHECKING:
    from repro._types import FloatArray, PointLike
    from repro.core.bounds.base import BoundProvider
    from repro.index.kdtree import KDTree
    from repro.obs.trace import Tracer
    from repro.resilience.budget import CancellationToken

__all__ = ["RefinementEngine", "QueryStats", "BoundTrace", "exhausted_exact"]


def exhausted_exact(
    tree: KDTree,
    leaf_exact: Callable[..., float],
    q: FloatArray,
    q_sq: float,
) -> float:
    """Canonical fully-refined density: leaf contributions in tree order.

    Kahan-sums ``leaf_exact`` over the tree's leaves in a fixed
    depth-first (left-first) order — a value independent of any
    refinement schedule. Both engines re-decide τ queries from this sum
    whenever the stop decision landed within
    :data:`~repro.core.stopping.TAU_TIE_GUARD` of the threshold, so the
    scalar and batched τ masks agree **bit for bit** at exact-boundary
    inputs even though their mid-flight accumulation orders differ. The
    re-evaluation is not counted in :class:`QueryStats`: it is a
    tie-break detail, not refinement work, and only boundary-tight
    decisions pay it.
    """
    acc = 0.0
    comp = 0.0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            # acc += leaf_exact(...) (Kahan).
            y = leaf_exact(node, q, q_sq) - comp
            t = acc + y
            comp = (t - acc) - y
            acc = t
        else:
            stack.append(node.right)
            stack.append(node.left)
    return acc


class QueryStats(CounterGroup):
    """Counters accumulated across queries (used by the experiments).

    A named :class:`~repro.obs.metrics.CounterGroup`: the fields below
    are plain ``__slots__`` integers (the engines' hot loops pay one
    slot store per increment), while ``reset`` / ``merge`` / ``as_dict``
    come from the shared metrics machinery, making ``QueryStats`` a thin
    view over :mod:`repro.obs.metrics`. The merge-based aggregation
    pattern is concurrency-safe: every worker/tile engine accumulates
    into its own ``QueryStats`` and the owner merges the per-worker
    objects afterwards, instead of sharing one mutable counter object
    across threads.

    Attributes
    ----------
    queries:
        Number of queries answered.
    iterations:
        Total priority-queue pops.
    node_evaluations:
        Total bound-function evaluations.
    leaf_evaluations:
        Total exact leaf evaluations.
    point_evaluations:
        Total points scanned by exact leaf evaluations — the
        hardware-neutral "kernel evaluations" work measure.
    """

    queries: int
    iterations: int
    node_evaluations: int
    leaf_evaluations: int
    point_evaluations: int

    __slots__ = (
        "queries",
        "iterations",
        "node_evaluations",
        "leaf_evaluations",
        "point_evaluations",
    )

    _fields = __slots__


class BoundTrace:
    """Per-iteration ``(lb, ub)`` record of one query's refinement.

    This is the instrumentation behind the paper's Figure 18 (bound value
    versus iteration for KARL and QUAD).
    """

    __slots__ = ("lowers", "uppers")

    def __init__(self) -> None:
        self.lowers: list[float] = []
        self.uppers: list[float] = []

    def record(self, lb: float, ub: float) -> None:
        """Append one iteration's global bounds."""
        self.lowers.append(lb)
        self.uppers.append(ub)

    @property
    def iterations(self) -> int:
        """Number of recorded iterations."""
        return len(self.lowers)

    def gap(self) -> list[float]:
        """Per-iteration ``ub - lb`` as a list."""
        return [ub - lb for lb, ub in zip(self.lowers, self.uppers)]


class RefinementEngine:
    """Priority-queue refinement over a kd-tree with pluggable bounds.

    Parameters
    ----------
    tree:
        A fitted :class:`~repro.index.kdtree.KDTree`.
    provider:
        The :class:`~repro.core.bounds.base.BoundProvider` supplying
        ``(LB, UB)`` per node.
    ordering:
        ``"gap"`` (paper: decreasing bound difference) or ``"fifo"``
        (breadth-first; exposed for the ablation benchmark).
    """

    def __init__(
        self, tree: KDTree, provider: BoundProvider, ordering: str = "gap"
    ) -> None:
        if ordering not in ("gap", "fifo"):
            raise InvalidParameterError(
                f"ordering must be 'gap' or 'fifo', got {ordering!r}"
            )
        self.tree = tree
        self.provider = provider
        self.ordering = ordering
        self.stats = QueryStats()

    # -- shared refinement loop ------------------------------------------

    def _refine(
        self,
        query: PointLike,
        should_stop: Callable[[float, float], bool],
        trace: BoundTrace | None = None,
        step_hook: Callable[..., None] | None = None,
        cancel: CancellationToken | None = None,
    ) -> tuple[float, float]:
        """Run the Table-3 loop until ``should_stop(lb, ub)`` is true.

        Returns the final ``(lb, ub)`` pair. ``query`` is a 1-D float
        array. ``step_hook`` (the tracer's per-step callback, only bound
        at trace level ``steps``) receives the popped node, its leaf
        flag and bound gap, and the updated global interval. ``cancel``
        (a :class:`~repro.resilience.budget.CancellationToken`) is
        polled once per pop; a tripped token breaks the loop with the
        current — valid but not fully tightened — interval. Polling has
        no effect on the refinement schedule, so a token that never
        trips leaves the result bit-identical to no token at all.
        """
        provider = self.provider
        stats = self.stats
        stats.queries += 1
        q_array: FloatArray = np.asarray(query, dtype=np.float64)
        q = q_array
        q_sq = float(q_array @ q_array)

        # Invariant checking is resolved once per query: the hot path
        # reads a cached boolean and calls the undecorated node_bounds,
        # while the checking path routes through checked_node_bounds and
        # validates containment/tightening per iteration.
        check = invariants_enabled()
        node_bounds = provider.checked_node_bounds if check else provider.node_bounds
        leaf_exact = provider.checked_leaf_exact if check else provider.leaf_exact
        bound_name = type(provider).__name__

        root = self.tree.root
        root_lb, root_ub = node_bounds(root, q, q_sq)
        stats.node_evaluations += 1
        # The running bounds are kept as exact_acc (Kahan sum of exact
        # leaf contributions — additions of non-negative terms only) plus
        # heap_lb / heap_ub (Kahan sums of the bound contributions of the
        # nodes currently on the queue). Plain incremental += / -= drifts
        # at ~1e-16 * magnitude per pop, which is enough to break the
        # relative-error contract on pixels whose density is many orders
        # of magnitude below the root bound; compensated summation keeps
        # the drift at the rounding floor.
        exact_acc = 0.0
        exact_comp = 0.0
        heap_lb = root_lb
        heap_lb_comp = 0.0
        heap_ub = root_ub
        heap_ub_comp = 0.0
        lb = root_lb
        ub = root_ub
        if trace is not None:
            trace.record(lb, ub)
        # Heap entries: (priority, tiebreak, node, node_lb, node_ub).
        counter = 0
        heap = [(-(root_ub - root_lb), counter, root, root_lb, root_ub)]
        gap_ordered = self.ordering == "gap"
        while heap and not should_stop(lb, ub):
            if cancel is not None and cancel.stop_reason() is not None:
                break
            stats.iterations += 1
            __, __, node, node_lb, node_ub = heappop(heap)
            if node.is_leaf:
                exact = leaf_exact(node, q_array, q_sq)
                stats.leaf_evaluations += 1
                stats.point_evaluations += node.agg.n
                if cancel is not None:
                    cancel.charge(node.agg.n)
                if check:
                    check_leaf_containment(
                        exact,
                        node_lb,
                        node_ub,
                        bound=bound_name,
                        node=node.node_id,
                        query=q,
                    )
                # exact_acc += exact (Kahan).
                y = exact - exact_comp
                t = exact_acc + y
                exact_comp = (t - exact_acc) - y
                exact_acc = t
                delta_lb = -node_lb
                delta_ub = -node_ub
            else:
                left = node.left
                right = node.right
                left_lb, left_ub = node_bounds(left, q, q_sq)
                right_lb, right_ub = node_bounds(right, q, q_sq)
                stats.node_evaluations += 2
                counter += 1
                priority = -(left_ub - left_lb) if gap_ordered else counter
                heappush(heap, (priority, counter, left, left_lb, left_ub))
                counter += 1
                priority = -(right_ub - right_lb) if gap_ordered else counter
                heappush(heap, (priority, counter, right, right_lb, right_ub))
                delta_lb = left_lb + right_lb - node_lb
                delta_ub = left_ub + right_ub - node_ub
            # heap_lb += delta_lb; heap_ub += delta_ub (Kahan).
            y = delta_lb - heap_lb_comp
            t = heap_lb + y
            heap_lb_comp = (t - heap_lb) - y
            heap_lb = t
            y = delta_ub - heap_ub_comp
            t = heap_ub + y
            heap_ub_comp = (t - heap_ub) - y
            heap_ub = t
            # Both the previous and the freshly accumulated interval are
            # valid enclosures of F_P(q), so their intersection is too.
            # The quadratic bounds are not pointwise monotone under
            # splitting (a child's interval can poke marginally outside
            # its parent's), and intersecting both keeps the
            # monotone-tightening invariant and stops no later.
            new_lb = exact_acc + heap_lb
            new_ub = exact_acc + heap_ub
            if check:
                prev_lb = lb
                prev_ub = ub
            if new_lb > lb:
                lb = new_lb
            if new_ub < ub:
                ub = new_ub
            if ub < lb:
                mid = 0.5 * (lb + ub)
                lb = ub = mid
            if check:
                check_monotone_tightening(
                    prev_lb,
                    prev_ub,
                    lb,
                    ub,
                    bound=bound_name,
                    node=node.node_id,
                    query=q,
                )
            if trace is not None:
                trace.record(lb, ub)
            if step_hook is not None:
                step_hook(
                    node=node.node_id,
                    leaf=node.is_leaf,
                    gap=node_ub - node_lb,
                    lb=lb,
                    ub=ub,
                )
        if not heap:
            # Fully refined: the density is the exact leaf sum; drop the
            # (tiny) residual left in the drained heap accumulators.
            # (The value is this schedule's accumulation order — τ
            # decisions that land within the tie guard of the threshold
            # are re-taken canonically by query_tau, not here, so εKDV
            # renders never pay the extra exhausted_exact pass.)
            lb = ub = exact_acc
            if trace is not None:
                trace.record(lb, ub)
        return lb, ub

    def _traced_refine(
        self,
        query: PointLike,
        should_stop: Callable[[float, float], bool],
        trace: BoundTrace | None,
        tracer: Tracer,
        *,
        op: str,
        rule_of: Callable[[float, float], str],
        cancel: CancellationToken | None = None,
    ) -> tuple[float, float]:
        """:meth:`_refine` plus one structured trace event per query.

        Captures the per-query stats delta, the root bound gap (via a
        :class:`BoundTrace`, reusing the Figure-18 instrumentation) and
        the stopping rule that fired, and forwards them to the tracer.
        Only reached when a tracer is active, so the untraced hot path
        stays byte-identical.
        """
        stats = self.stats
        before_iterations = stats.iterations
        before_nodes = stats.node_evaluations
        before_leaves = stats.leaf_evaluations
        before_points = stats.point_evaluations
        bound_trace = trace if trace is not None else BoundTrace()
        step_hook = tracer.step if tracer.steps else None
        lb, ub = self._refine(
            query, should_stop, trace=bound_trace, step_hook=step_hook, cancel=cancel
        )
        root_gap = (
            bound_trace.uppers[0] - bound_trace.lowers[0]
            if bound_trace.iterations
            else 0.0
        )
        cancelled = (
            cancel is not None and cancel.triggered and not should_stop(lb, ub)
        )
        tracer.query(
            engine="scalar",
            op=op,
            bound=type(self.provider).__name__,
            rule=stopping.RULE_CANCELLED if cancelled else rule_of(lb, ub),
            iterations=stats.iterations - before_iterations,
            node_evaluations=stats.node_evaluations - before_nodes,
            leaf_evaluations=stats.leaf_evaluations - before_leaves,
            point_evaluations=stats.point_evaluations - before_points,
            root_gap=root_gap,
            lb=lb,
            ub=ub,
        )
        return lb, ub

    # -- eps queries ------------------------------------------------------

    def query_eps(
        self,
        query: PointLike,
        eps: float,
        *,
        atol: float = 0.0,
        offset: float = 0.0,
        trace: BoundTrace | None = None,
        cancel: CancellationToken | None = None,
    ) -> float:
        """εKDV for one pixel: a value within ``(1 ± eps)`` of ``F_P(q)``.

        Parameters
        ----------
        query:
            Query coordinates.
        eps:
            Relative error bound in ``(0, 1]``.
        atol:
            Optional absolute floor: refinement also stops when
            ``ub - lb <= atol``, which caps the work spent on pixels
            whose density underflows to zero (Scikit-learn exposes the
            same knob). ``0.0`` reproduces the paper's pure relative
            guarantee.
        offset:
            An exactly-known additive density contribution from points
            outside the index (e.g. a streaming buffer evaluated by
            brute force). The relative guarantee applies to the *total*
            ``offset + F_P(q)``, which the return value includes.
        trace:
            Optional :class:`BoundTrace` recording per-iteration bounds.
        cancel:
            Optional cooperative
            :class:`~repro.resilience.budget.CancellationToken`, polled
            once per refinement step. When it trips, the query returns
            the midpoint of the best-so-far interval — a valid estimate
            whose error bound is the residual gap, not the ``(1 ± eps)``
            contract. A token that never trips leaves the result
            bit-identical to passing no token.
        """
        eps = check_probability_like(eps, "eps")
        if atol < 0.0:
            raise InvalidParameterError(f"atol must be >= 0, got {atol!r}")
        offset = float(offset)
        if offset < 0.0:
            raise InvalidParameterError(f"offset must be >= 0, got {offset!r}")
        one_plus_eps = 1.0 + eps

        def should_stop(lb: float, ub: float) -> bool:
            return stopping.eps_should_stop(lb, ub, one_plus_eps, offset, atol)

        tracer = current_tracer()
        if tracer is None:
            lb, ub = self._refine(query, should_stop, trace=trace, cancel=cancel)
        else:
            lb, ub = self._traced_refine(
                query,
                should_stop,
                trace,
                tracer,
                op="eps",
                rule_of=lambda lb, ub: stopping.eps_stop_rule(
                    lb, ub, one_plus_eps, offset, atol
                ),
                cancel=cancel,
            )
        return offset + 0.5 * (lb + ub)

    # -- tau queries ------------------------------------------------------

    def query_tau(
        self,
        query: PointLike,
        tau: float,
        *,
        offset: float = 0.0,
        trace: BoundTrace | None = None,
        cancel: CancellationToken | None = None,
    ) -> bool:
        """τKDV for one pixel: whether ``offset + F_P(q) >= tau``.

        The stop rule and the hot/cold classification are the canonical
        ones of :mod:`repro.core.stopping`, shared bit-for-bit with the
        batched engine: refinement stops once ``lb >= tau`` (hot) or
        ``ub < tau`` (cold), so a boundary pixel (``F == tau`` exactly,
        including a fully-refined tie ``lb == ub == tau``) counts as
        hot on every path. ``offset`` is an exactly-known additive
        contribution (see :meth:`query_eps`). Decisions landing within
        :data:`~repro.core.stopping.TAU_TIE_GUARD` of ``tau`` are
        re-taken from the canonical fully-refined sum
        (:func:`exhausted_exact`), so boundary-tight pixels classify
        identically in both engines regardless of refinement schedule.
        ``cancel`` is the cooperative token of :meth:`query_eps`; a
        query whose decision is still *uncertain* when the token trips
        classifies conservatively as cold (``lb < tau``) and skips the
        tie re-decision — the canonical pass would cost a full-tree
        refinement, exactly what the budget forbids.
        """
        tau = float(tau) - float(offset)
        if not np.isfinite(tau):
            raise InvalidParameterError(f"tau must be finite, got {tau!r}")

        def should_stop(lb: float, ub: float) -> bool:
            return stopping.tau_should_stop(lb, ub, tau)

        tracer = current_tracer()
        if tracer is None:
            lb, ub = self._refine(query, should_stop, trace=trace, cancel=cancel)
        else:
            lb, ub = self._traced_refine(
                query,
                should_stop,
                trace,
                tracer,
                op="tau",
                rule_of=lambda lb, ub: stopping.tau_stop_rule(lb, ub, tau),
                cancel=cancel,
            )
        if (
            cancel is not None
            and cancel.triggered
            and not stopping.tau_should_stop(lb, ub, tau)
        ):
            # Cancelled while undecided: conservative cold (lb < tau),
            # and no canonical re-decision — that pass refines the whole
            # tree, which is exactly what the budget just forbade.
            return stopping.tau_is_hot(lb, tau)
        if stopping.tau_decision_is_tight(lb, ub, tau):
            # Tie: the margin is inside one schedule's rounding noise.
            # Decide from the canonical exhausted sum instead, shared
            # bit-for-bit with the batched engine.
            q_array: FloatArray = np.asarray(query, dtype=np.float64)
            leaf_exact = (
                self.provider.checked_leaf_exact
                if invariants_enabled()
                else self.provider.leaf_exact
            )
            value = exhausted_exact(
                self.tree, leaf_exact, q_array, float(q_array @ q_array)
            )
            return stopping.tau_is_hot(value, tau)
        return stopping.tau_is_hot(lb, tau)

    # -- exact (full refinement) -------------------------------------------

    def query_exact(self, query: PointLike) -> float:
        """Fully refine one pixel (every leaf evaluated exactly)."""
        lb, ub = self._refine(query, lambda lb, ub: False)
        return 0.5 * (lb + ub)
