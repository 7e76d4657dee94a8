"""The leaf scan evaluates each leaf block in one buffer, float for float.

``BoundProvider.leaf_exact_batch`` (and its checked twin) and the chunk
loop of ``exact_density`` compute distances, kernel values and row sums
in place. These tests pin every value to the expression form those
paths used before, kept here as the reference, and bound what a large
leaf visit allocates.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from repro.core.bounds import make_bound_provider
from repro.core.exact import exact_density
from repro.core.kernels import KERNEL_REGISTRY
from repro.index.kdtree import KDTree
from repro.utils.chunking import chunk_slices

KERNELS = sorted(KERNEL_REGISTRY)
GAMMA = 3.0


def _reference_profile(name, x):
    if name in ("gaussian", "exponential"):
        return np.exp(-np.minimum(x, 708.0))
    if name == "triangular":
        return np.maximum(1.0 - x, 0.0)
    if name == "cosine":
        return np.where(x <= math.pi / 2.0, np.cos(np.minimum(x, math.pi / 2.0)), 0.0)
    inside = np.maximum(1.0 - x * x, 0.0)
    return inside if name == "epanechnikov" else inside * inside


def _reference_kernel_values(kernel, sq_dists, gamma):
    cap = kernel.support_xmax
    if math.isinf(cap):
        cap = 708.0
    limit = cap * (1.0 + 1e-9) / gamma
    if kernel.uses_squared_distance:
        x = gamma * np.minimum(sq_dists, limit)
    else:
        x = gamma * np.minimum(np.sqrt(sq_dists), limit)
    return _reference_profile(kernel.name, x)


def _reference_direct_sq(queries, points):
    sq = np.zeros((queries.shape[0], points.shape[0]), dtype=np.float64)
    for j in range(queries.shape[1]):
        diff = queries[:, j, None] - points[None, :, j]
        sq += diff * diff
    return sq


def _reference_leaf_sums(provider, node, queries, queries_sq):
    if provider.kernel.uses_squared_distance:
        sq = queries_sq[:, None] - 2.0 * (queries @ node.points.T) + node.sq_norms
        np.maximum(sq, 0.0, out=sq)
    else:
        sq = _reference_direct_sq(queries, node.points)
    values = _reference_kernel_values(provider.kernel, sq, provider.gamma)
    if node.weights is not None:
        return provider.weight * (values @ node.weights)
    return provider.weight * values.sum(axis=1)


def _leaf_and_queries(rows, *, n=64, weighted=False, seed=0):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 2))
    points[1] = points[0]  # a duplicate pair
    weights = rng.uniform(0.0, 2.0, size=n) if weighted else None
    tree = KDTree(points, leaf_size=n, weights=weights)
    assert tree.root.is_leaf
    queries = rng.normal(scale=1.5, size=(rows, 2))
    queries[0] = points[0]  # a query sitting on a data point
    return tree.root, queries, np.einsum("ij,ij->i", queries, queries)


@pytest.mark.parametrize("rows", [1, 257, 4096])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("kernel", KERNELS)
def test_leaf_scan_equals_the_expression_form(kernel, weighted, rows):
    provider = make_bound_provider("baseline", kernel, GAMMA, weight=0.25)
    node, queries, queries_sq = _leaf_and_queries(rows, weighted=weighted)
    expected = _reference_leaf_sums(provider, node, queries, queries_sq)
    assert np.array_equal(provider.leaf_exact_batch(node, queries, queries_sq), expected)
    assert np.array_equal(
        provider.checked_leaf_exact_batch(node, queries, queries_sq), expected
    )


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("kernel", KERNELS)
def test_exact_density_equals_the_chunk_formula(kernel, weighted):
    rng = np.random.default_rng(1)
    points = rng.normal(size=(300, 2))
    queries = rng.normal(scale=1.5, size=(700, 2))
    queries[0] = points[0]
    point_weights = rng.uniform(0.0, 2.0, size=300) if weighted else None
    max_elements = 30_000  # several chunks
    expected = np.empty(queries.shape[0])
    budget = max(1, max_elements // (points.shape[1] + 1))
    for rows in chunk_slices(queries.shape[0], points.shape[0], max_elements=budget):
        sq = _reference_direct_sq(queries[rows], points)
        values = _reference_kernel_values(KERNEL_REGISTRY[kernel], sq, GAMMA)
        if point_weights is None:
            expected[rows] = 0.5 * values.sum(axis=1)
        else:
            expected[rows] = 0.5 * (values @ point_weights)
    got = exact_density(
        points,
        queries,
        kernel,
        GAMMA,
        0.5,
        point_weights=point_weights,
        max_elements=max_elements,
    )
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_evaluate_in_place_matches_a_fresh_buffer(kernel):
    k = KERNEL_REGISTRY[kernel]
    sq = np.random.default_rng(2).uniform(0.0, 3.0, size=(33, 17))
    sq[0, :3] = [0.0, np.nan, 1e300]
    fresh = k.evaluate(sq, GAMMA)
    assert np.array_equal(fresh, _reference_kernel_values(k, sq, GAMMA), equal_nan=True)
    buffer = sq.copy()
    assert k.evaluate(buffer, GAMMA, out=buffer) is buffer
    assert np.array_equal(buffer, fresh, equal_nan=True)
    assert np.asarray(k.profile(0.5)).shape == ()


def _traced_peak(fn):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    ("kernel", "blocks"),
    [("gaussian", 1.25), ("exponential", 1.25), ("cosine", 1.25)],
)
def test_a_large_leaf_scan_allocates_one_block(kernel, blocks):
    # The expanded (squared-distance) form lives in the matmul's result;
    # the direct form accumulates through a 128 KiB scratch, 1/16 block.
    rows, n = 4096, 64
    provider = make_bound_provider("baseline", kernel, GAMMA)
    node, queries, queries_sq = _leaf_and_queries(rows, n=n)
    provider.leaf_exact_batch(node, queries, queries_sq)  # warm caches
    block = rows * n * 8
    peak = _traced_peak(lambda: provider.leaf_exact_batch(node, queries, queries_sq))
    assert peak <= blocks * block, (peak / block, kernel)
