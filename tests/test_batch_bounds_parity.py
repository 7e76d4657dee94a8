"""Batched node bounds pinned row by row to the scalar reference.

Every built-in provider with a vectorised ``node_bounds_batch`` must
return, for each query row, the pair its scalar ``node_bounds`` returns
for that row. The two paths share their formulas but not their
floating-point evaluation (``np.exp`` and ``math.exp`` may differ in the
last bit), so the comparison carries a tolerance fixed from the float64
precision, not from any kernel's measured error:

* ``rtol = 1e-12`` relative to the scalar value, plus
* an absolute floor of ``1e-12 * w * W``, where ``w`` is the provider
  weight and ``W`` the node's total point weight — ``w * W`` is the
  largest value either bound can take, and the floor covers the
  far-field rows where the batch path clamps ``exp`` arguments at
  ``EXP_NEG_XMAX`` and the scalar path underflows towards zero.

Point coordinates lie on a 1/8 grid, so coincident points are exact
duplicates (zero-width nodes take the degenerate branch) and distinct
points are well separated. Arbitrarily close but distinct points would
put the closed forms in their ill-conditioned regime (interval widths
near ``1e-12``), where both paths are valid but clamp to the baseline
interval with different last-bit inputs.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from repro.core.bounds import make_bound_provider
from repro.core.bounds.base import EXP_NEG_XMAX
from repro.core.bounds.quadratic import _DEGENERATE_WIDTH, _MIN_GAP_FRACTION
from repro.core.kernels import get_kernel
from repro.errors import InvariantViolation
from repro.index.kdtree import KDTree

RTOL = 1e-12
FLOOR = 1e-12

#: (provider name, kernel, provider options) of every built-in provider
#: with a vectorised batch path.
PROVIDERS = [
    ("quad", "gaussian", {}),
    ("quad", "gaussian", {"tangent": "midpoint"}),
    ("linear", "gaussian", {}),
    ("baseline", "gaussian", {}),
    ("baseline", "epanechnikov", {}),
    ("baseline", "exponential", {}),
]


def _nodes(tree):
    stack = [tree.root]
    while stack:
        node = stack.pop()
        yield node
        if not node.is_leaf:
            stack.append(node.left)
            stack.append(node.right)


def _points(seed, n, dims, duplicates, grid):
    """``n`` points on a 1/8 grid; the first ``duplicates`` coincide."""
    rng = np.random.default_rng(seed)
    points = rng.integers(-grid, grid + 1, size=(n, dims)) / 8.0
    points[:duplicates] = points[0]
    return points


def _weights(seed, n, kind):
    if kind == "none":
        return None
    rng = np.random.default_rng(seed + 1)
    if kind == "uniform":
        return rng.uniform(0.25, 4.0, size=n)
    # One heavy point pulls the mean distance onto an interval endpoint:
    # the lower bound's tangent point then nearly meets xmax.
    weights = np.ones(n, dtype=np.float64)
    weights[0] = 1e4
    return weights


def _queries(points, gamma, seed, m):
    """Near rows around the data plus far-field rows past EXP_NEG_XMAX."""
    rng = np.random.default_rng(seed + 2)
    dims = points.shape[1]
    near = points[rng.integers(points.shape[0], size=m)] + rng.integers(
        -6, 7, size=(m, dims)
    ) / 8.0
    # gamma * reach**2 spans ~[600, 1600]: some rows clamp, some do not.
    reach = math.sqrt(rng.uniform(600.0, 1600.0) / gamma)
    direction = rng.normal(size=(max(m // 3, 1), dims))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True) + 1e-300
    far = points.mean(axis=0) + (reach + np.abs(points).max() * 2.0) * direction
    return np.vstack([near, far])


def _layout(queries, kind):
    if kind == "C":
        return np.ascontiguousarray(queries, dtype=np.float64)
    if kind == "F":
        return np.asfortranarray(queries, dtype=np.float64)
    rows, cols = queries.shape
    padded = np.zeros((2 * rows, 2 * cols + 1), dtype=np.float64)
    padded[::2, 1::2] = queries
    strided = padded[::2, 1::2]
    assert not strided.flags.c_contiguous and not strided.flags.f_contiguous
    return strided


def _branch(provider, node, q):
    """Which closed-form branch the quadratic bounds take for one row."""
    gamma = provider.gamma
    xmin = gamma * node.rect.min_sq_dist(q)
    xmax = gamma * node.rect.max_sq_dist(q)
    if xmin > EXP_NEG_XMAX:
        return "far-field"
    width = xmax - xmin
    if width <= _DEGENERATE_WIDTH:
        return "degenerate"
    if getattr(provider, "tangent", "mean") == "mean":
        t = min(max(gamma * node.agg.sum_sq_dists(q) / node.agg.total_weight, xmin), xmax)
    else:
        t = 0.5 * (xmin + xmax)
    gap = xmax - t
    if gap <= _DEGENERATE_WIDTH or gap <= _MIN_GAP_FRACTION * width:
        return "tangent-line"
    return "parabola"


def _exact_leaf(provider, node, q):
    """Direct-form weighted kernel sum of a leaf (no expanded-norm cancellation)."""
    sq = ((node.points - q) ** 2).sum(axis=1)
    values = provider.kernel.evaluate(sq, provider.gamma)
    if node.weights is not None:
        values = values * node.weights
    return provider.weight * math.fsum(values.tolist())


def assert_batch_matches_scalar(provider, tree, queries):
    """Every node, every row: batch == scalar within the fixed tolerance."""
    queries_sq = np.einsum("ij,ij->i", queries, queries)
    branches = set()
    for node in _nodes(tree):
        lowers, uppers = provider.node_bounds_batch(node, queries, queries_sq)
        assert lowers.shape == uppers.shape == (queries.shape[0],)
        floor = FLOOR * provider.weight * node.agg.total_weight
        for row in range(queries.shape[0]):
            q = queries[row]
            lower, upper = provider.node_bounds(node, q, float(queries_sq[row]))
            assert abs(lowers[row] - lower) <= RTOL * abs(lower) + floor, (
                node.node_id,
                row,
                lowers[row],
                lower,
            )
            assert abs(uppers[row] - upper) <= RTOL * abs(upper) + floor, (
                node.node_id,
                row,
                uppers[row],
                upper,
            )
            assert lowers[row] <= uppers[row]
            if provider.name == "quad":
                branches.add(_branch(provider, node, q))
            if node.is_leaf:
                exact = _exact_leaf(provider, node, np.asarray(q, dtype=np.float64))
                slack = RTOL * abs(exact) + floor
                assert lowers[row] - slack <= exact <= uppers[row] + slack, (
                    node.node_id,
                    row,
                    lowers[row],
                    exact,
                    uppers[row],
                )
    return branches


@pytest.mark.parametrize("name,kernel,options", PROVIDERS)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 48),
    dims=st.sampled_from([1, 2, 3]),
    duplicate_frac=st.sampled_from([0.0, 0.5, 0.9]),
    grid=st.sampled_from([1, 8, 64]),
    weights=st.sampled_from(["none", "uniform", "skewed"]),
    leaf_size=st.sampled_from([1, 2, 8]),
    gamma=st.sampled_from([0.02, 0.5, 3.0, 40.0]),
    m=st.integers(1, 24),
    layout=st.sampled_from(["C", "F", "strided"]),
)
def test_batch_bounds_match_scalar(
    name, kernel, options, seed, n, dims, duplicate_frac, grid, weights, leaf_size,
    gamma, m, layout
):
    points = _points(seed, n, dims, int(duplicate_frac * n), grid)
    point_weights = _weights(seed, n, weights)
    tree = KDTree(points, leaf_size=leaf_size, weights=point_weights)
    weight = 1.0 / (n if point_weights is None else float(point_weights.sum()))
    provider = make_bound_provider(name, get_kernel(kernel), gamma, weight, **options)
    queries = _layout(_queries(points, gamma, seed, m), layout)
    for branch in assert_batch_matches_scalar(provider, tree, queries):
        event(branch)


def test_every_quadratic_branch_is_exercised():
    """One fixed case reaches all four closed-form branches, on every layout."""
    points = _points(3, 40, 2, 20, 8)
    point_weights = _weights(3, 40, "skewed")
    tree = KDTree(points, leaf_size=1, weights=point_weights)
    provider = make_bound_provider(
        "quad", get_kernel("gaussian"), 3.0, 1.0 / float(point_weights.sum())
    )
    base = _queries(points, 3.0, 3, 24)
    for layout in ("C", "F", "strided"):
        branches = assert_batch_matches_scalar(provider, tree, _layout(base, layout))
        assert branches == {"far-field", "degenerate", "tangent-line", "parabola"}


def test_empty_batch():
    tree = KDTree(_points(0, 10, 2, 0, 8), leaf_size=2)
    for name, kernel, options in PROVIDERS:
        provider = make_bound_provider(name, get_kernel(kernel), 1.0, 0.1, **options)
        lowers, uppers = provider.node_bounds_batch(
            tree.root, np.empty((0, 2), dtype=np.float64), np.empty(0, dtype=np.float64)
        )
        assert lowers.shape == uppers.shape == (0,)


# -- stacked node bounds ------------------------------------------------------

#: Providers with the default stacking fallback (one call per node), next
#: to the two Gaussian QUAD tangents that bound a stack in one pass.
STACK_PROVIDERS = PROVIDERS + [
    ("quad", "triangular", {}),
    ("quad", "epanechnikov", {}),
]


def _stack_weights(seed, points, kind):
    """``_weights`` plus ``zero``: points left of the origin weigh nothing,
    so whole subtrees have zero total weight."""
    if kind != "zero":
        return _weights(seed, points.shape[0], kind)
    weights = np.ones(points.shape[0], dtype=np.float64)
    weights[points[:, 0] < 0.0] = 0.0
    if not weights.any():
        weights[0] = 1.0
    return weights


def assert_stack_matches_nodes(provider, tree, nodes, queries):
    """Every stacked row is the one-node call's row, bit for bit."""
    queries_sq = np.einsum("ij,ij->i", queries, queries)
    lowers, uppers = provider.node_bounds_stacked(tree, nodes, queries, queries_sq)
    assert lowers.shape == uppers.shape == (len(nodes), queries.shape[0])
    for k, node in enumerate(nodes):
        lower, upper = provider.node_bounds_batch(node, queries, queries_sq)
        assert lowers[k].tobytes() == lower.tobytes(), (node.node_id, k)
        assert uppers[k].tobytes() == upper.tobytes(), (node.node_id, k)


@pytest.mark.parametrize("name,kernel,options", STACK_PROVIDERS)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 48),
    dims=st.sampled_from([1, 2, 3]),
    duplicate_frac=st.sampled_from([0.0, 0.5, 0.9]),
    grid=st.sampled_from([1, 8, 64]),
    weights=st.sampled_from(["none", "uniform", "skewed", "zero"]),
    leaf_size=st.sampled_from([1, 2, 8]),
    gamma=st.sampled_from([0.02, 0.5, 3.0, 40.0]),
    m=st.integers(1, 24),
    layout=st.sampled_from(["C", "F", "strided"]),
    stack=st.sampled_from([1, 2, 7, 32]),
)
def test_stacked_bounds_equal_one_node_calls(
    name, kernel, options, seed, n, dims, duplicate_frac, grid, weights, leaf_size,
    gamma, m, layout, stack
):
    points = _points(seed, n, dims, int(duplicate_frac * n), grid)
    point_weights = _stack_weights(seed, points, weights)
    tree = KDTree(points, leaf_size=leaf_size, weights=point_weights)
    weight = 1.0 / (n if point_weights is None else float(point_weights.sum()))
    provider = make_bound_provider(name, get_kernel(kernel), gamma, weight, **options)
    queries = _layout(_queries(points, gamma, seed, m), layout)
    every = list(_nodes(tree))
    picks = np.random.default_rng(seed + 3).integers(len(every), size=stack)
    nodes = [every[int(i)] for i in picks]
    if any(node.agg.total_weight <= 0.0 for node in nodes):
        event("zero-weight node")
    assert_stack_matches_nodes(provider, tree, nodes, queries)


@pytest.mark.parametrize("tangent", ["mean", "midpoint"])
def test_stacks_reach_every_quadratic_branch(tangent):
    """All four closed-form branches, and zero-weight nodes, inside stacks."""
    points = _points(3, 40, 2, 20, 8)
    skewed = _weights(3, 40, "skewed")
    zeroed = skewed.copy()
    zeroed[points[:, 0] < -0.5] = 0.0
    base = _queries(points, 3.0, 3, 24)
    for point_weights in (skewed, zeroed):
        tree = KDTree(points, leaf_size=1, weights=point_weights)
        provider = make_bound_provider(
            "quad", get_kernel("gaussian"), 3.0, 1.0 / float(point_weights.sum()),
            tangent=tangent,
        )
        every = list(_nodes(tree))
        for layout in ("C", "F", "strided"):
            queries = _layout(base, layout)
            if point_weights is skewed and tangent == "mean":
                branches = assert_batch_matches_scalar(provider, tree, queries)
                assert branches == {"far-field", "degenerate", "tangent-line", "parabola"}
            for stack in (2, 7, 32):
                for first in range(0, len(every), stack):
                    assert_stack_matches_nodes(
                        provider, tree, every[first : first + stack], queries
                    )
    assert any(node.agg.total_weight <= 0.0 for node in every)


def test_checked_stack_validates_every_pair():
    from repro.core.backends import ComputeBackend
    from repro.core.bounds.quadratic import QuadraticBoundProvider

    class Inverted(QuadraticBoundProvider):
        def node_bounds_stacked(self, tree, nodes, queries, queries_sq):
            lowers, uppers = super().node_bounds_stacked(tree, nodes, queries, queries_sq)
            return uppers + 1.0, lowers

    points = _points(5, 30, 2, 0, 8)
    tree = KDTree(points, leaf_size=4)
    queries = _queries(points, 0.5, 5, 6)
    queries_sq = np.einsum("ij,ij->i", queries, queries)
    nodes = list(_nodes(tree))[:5]
    backend = ComputeBackend()
    good = make_bound_provider("quad", get_kernel("gaussian"), 0.5, 1.0 / 30)
    plain = backend.node_bounds_stacked(good, tree, nodes, queries, queries_sq)
    checked = backend.checked_node_bounds_stacked(good, tree, nodes, queries, queries_sq)
    for got, want in zip(checked, plain):
        np.testing.assert_array_equal(got, want)
    bad = Inverted(get_kernel("gaussian"), 0.5, 1.0 / 30)
    with pytest.raises(InvariantViolation):
        backend.checked_node_bounds_stacked(bad, tree, nodes, queries, queries_sq)


def test_empty_stacked_batch():
    tree = KDTree(_points(0, 10, 2, 0, 8), leaf_size=2)
    nodes = list(_nodes(tree))[:3]
    for name, kernel, options in STACK_PROVIDERS:
        provider = make_bound_provider(name, get_kernel(kernel), 1.0, 0.1, **options)
        lowers, uppers = provider.node_bounds_stacked(
            tree, nodes, np.empty((0, 2), dtype=np.float64), np.empty(0, dtype=np.float64)
        )
        assert lowers.shape == uppers.shape == (3, 0)
