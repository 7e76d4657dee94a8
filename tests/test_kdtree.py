"""kd-tree structure and aggregate invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.aggregates import NodeAggregates
from repro.errors import InvalidParameterError
from repro.index.kdtree import KDTree


class TestStructure:
    def test_leaf_capacity_respected(self, small_tree):
        for leaf in small_tree.leaves():
            assert leaf.size <= small_tree.leaf_size

    def test_leaf_sizes_sum_to_n(self, small_tree):
        assert sum(leaf.size for leaf in small_tree.leaves()) == small_tree.n_points

    def test_node_count_consistent(self, small_tree):
        assert small_tree.num_nodes == sum(1 for __ in small_tree.nodes())

    def test_internal_nodes_have_two_children(self, small_tree):
        for node in small_tree.nodes():
            if not node.is_leaf:
                assert node.left is not None and node.right is not None

    def test_children_partition_parent(self, small_tree):
        for node in small_tree.nodes():
            if not node.is_leaf:
                assert node.left.size + node.right.size == node.size

    def test_depths_increase(self, small_tree):
        for node in small_tree.nodes():
            if not node.is_leaf:
                assert node.left.depth == node.depth + 1
                assert node.right.depth == node.depth + 1

    def test_balanced_height(self, small_points):
        tree = KDTree(small_points, leaf_size=8)
        import math

        expected = math.ceil(math.log2(len(small_points) / 8)) + 2
        assert tree.height() <= expected

    def test_node_ids_unique(self, small_tree):
        ids = [node.node_id for node in small_tree.nodes()]
        assert len(ids) == len(set(ids))


class TestRectangles:
    def test_child_rect_inside_parent(self, small_tree):
        for node in small_tree.nodes():
            if node.is_leaf:
                continue
            for child in (node.left, node.right):
                assert np.all(child.rect.low >= node.rect.low - 1e-12)
                assert np.all(child.rect.high <= node.rect.high + 1e-12)

    def test_leaf_rect_covers_leaf_points(self, small_tree):
        for leaf in small_tree.leaves():
            assert np.all(leaf.points >= leaf.rect.low - 1e-12)
            assert np.all(leaf.points <= leaf.rect.high + 1e-12)


class TestAggregates:
    def test_root_aggregate_counts_everything(self, small_tree):
        assert small_tree.root.agg.n == small_tree.n_points

    def test_node_aggregates_match_subtree_points(self, small_tree):
        rng = np.random.default_rng(5)
        q = small_tree.points[rng.integers(small_tree.n_points)]
        q_list = q.tolist()
        for node in small_tree.nodes():
            stack = [node]
            collected = []
            while stack:
                current = stack.pop()
                if current.is_leaf:
                    collected.append(current.points)
                else:
                    stack.extend([current.left, current.right])
            member = np.vstack(collected)
            d2 = float(((member - q) ** 2).sum())
            assert node.agg.sum_sq_dists(q_list) == pytest.approx(d2, rel=1e-9, abs=1e-12)


class TestDegenerateInputs:
    def test_all_identical_points(self):
        points = np.full((100, 2), 1.5)
        tree = KDTree(points, leaf_size=8)
        # Zero-extent data cannot be split: one (oversized) leaf.
        assert tree.num_leaves == 1
        assert tree.root.is_leaf

    def test_single_point(self):
        tree = KDTree([[1.0, 2.0]])
        assert tree.root.is_leaf
        assert tree.n_points == 1

    def test_duplicate_heavy_data_terminates(self):
        rng = np.random.default_rng(0)
        points = np.repeat(rng.normal(size=(5, 2)), 40, axis=0)
        tree = KDTree(points, leaf_size=4)
        assert sum(leaf.size for leaf in tree.leaves()) == 200

    def test_1d_points(self):
        tree = KDTree(np.linspace(0, 1, 50).reshape(-1, 1), leaf_size=8)
        assert tree.dims == 1
        assert sum(leaf.size for leaf in tree.leaves()) == 50

    def test_highdim_points(self, highdim_points):
        tree = KDTree(highdim_points, leaf_size=32)
        assert tree.dims == 5
        assert sum(leaf.size for leaf in tree.leaves()) == len(highdim_points)

    def test_rejects_bad_leaf_size(self, small_points):
        with pytest.raises(InvalidParameterError):
            KDTree(small_points, leaf_size=0)

    def test_leaf_sq_norms_cached(self, small_tree):
        for leaf in small_tree.leaves():
            expected = (leaf.points**2).sum(axis=1)
            np.testing.assert_allclose(leaf.sq_norms, expected)


# -- the level-by-level build, node by node -----------------------------------

EPS64 = np.finfo(np.float64).eps


@st.composite
def build_inputs(draw):
    """Points (possibly duplicated, collinear or of zero extent), leaf size
    and optional weights that may include zeros."""
    n = draw(st.integers(1, 3000))
    dims = draw(st.sampled_from([1, 2, 3, 5]))
    leaf_size = draw(st.sampled_from([1, 2, 8, 64]))
    shape = draw(st.sampled_from(["normal", "duplicates", "collinear", "zero-extent", "grid"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = rng.normal(scale=draw(st.sampled_from([0.0, 1.0, 100.0])), size=dims)
    if shape == "normal":
        points = rng.normal(size=(n, dims))
    elif shape == "duplicates":
        points = rng.normal(size=(max(1, n // 7), dims))[rng.integers(0, max(1, n // 7), n)]
    elif shape == "collinear":
        points = rng.normal(size=(n, 1)) * rng.normal(size=dims)
    elif shape == "zero-extent":
        points = np.zeros((n, dims))
    else:
        points = rng.integers(-4, 5, size=(n, dims)) / 8.0
    weighting = draw(st.sampled_from(["none", "positive", "some-zero", "all-zero"]))
    weights = {
        "none": None,
        "positive": rng.uniform(0.1, 2.0, n),
        "some-zero": rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.6),
        "all-zero": np.zeros(n),
    }[weighting]
    return points + offset, leaf_size, weights


def _member_rows(tree):
    """Each node's dataset rows (by node id): its run of leaf slots."""
    arrays = tree.arrays
    first_leaf = {}
    for node in reversed(list(tree.nodes())):
        first_leaf[node.node_id] = (
            node.node_id if node.is_leaf else first_leaf[node.left.node_id]
        )
    starts = arrays["leaf_start"][[first_leaf[i] for i in range(tree.num_nodes)]]
    return [
        arrays["leaf_indices"][start : start + node.size]
        for start, node in zip(starts.tolist(), tree.nodes())
    ]


def _check_aggregates(node, points, weights):
    """Node aggregates == from_points on its members, to float64 rounding.

    Both sum the same terms in different orders, so a sum of degree-k
    terms may be off by ``m * eps`` times the sum of their magnitudes.
    The two centres may lie ``m * eps`` times the coordinate scale apart
    (``shift``), which moves each ``|p - c|`` by at most ``shift``.
    """
    ref = NodeAggregates.from_points(points, weights)
    got = node.agg
    m = points.shape[0]
    w = np.ones(m) if weights is None else weights
    norms = np.sqrt(((points - np.asarray(ref.center)) ** 2).sum(axis=1))
    shift = 4.0 * m * EPS64 * float(np.abs(points).max())

    def tol(k):
        rounding = 4.0 * m * EPS64 * float(np.dot(w, norms**k))
        return rounding + float(np.dot(w, (norms + shift) ** k - norms**k))

    assert got.n == ref.n == m
    assert abs(got.total_weight - ref.total_weight) <= 4.0 * m * EPS64 * ref.total_weight
    for field, degree in (("center", 0), ("a", 1), ("b", 2), ("c", 2), ("v", 3), ("h", 4)):
        error = np.abs(np.subtract(getattr(got, field), getattr(ref, field))).max()
        assert error <= (shift if degree == 0 else tol(degree)), (node, field, error)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(build_inputs())
def test_build_matches_its_definition_node_by_node(inputs):
    points, leaf_size, weights = inputs
    tree = KDTree(points, leaf_size=leaf_size, weights=weights)
    arrays = tree.arrays
    nodes = list(tree.nodes())
    # Dense preorder ids: a left child follows its parent, a right child
    # follows the left subtree.
    assert [node.node_id for node in nodes] == list(range(tree.num_nodes))
    spans = [1] * len(nodes)
    for node in reversed(nodes):
        if not node.is_leaf:
            spans[node.node_id] += spans[node.left.node_id] + spans[node.right.node_id]
            assert node.left.node_id == node.node_id + 1
            assert node.right.node_id == node.node_id + 1 + spans[node.left.node_id]
    # Leaves tile the leaf slots in preorder and cover every row once,
    # each leaf in row order.
    leaves = list(tree.leaves())
    sizes = [leaf.size for leaf in leaves]
    starts = [int(arrays["leaf_start"][leaf.node_id]) for leaf in leaves]
    assert starts == np.concatenate([[0], np.cumsum(sizes)[:-1]]).tolist()
    np.testing.assert_array_equal(np.sort(arrays["leaf_indices"]), np.arange(len(points)))
    np.testing.assert_array_equal(arrays["leaf_points"], points[arrays["leaf_indices"]])
    for leaf in leaves:
        assert np.all(np.diff(leaf.indices) > 0)
        np.testing.assert_array_equal(leaf.points, points[leaf.indices])
        if weights is not None:
            np.testing.assert_array_equal(leaf.weights, weights[leaf.indices])
    rows = _member_rows(tree)
    for node in nodes:
        members = points[rows[node.node_id]]
        low, high = members.min(axis=0), members.max(axis=0)
        np.testing.assert_array_equal(node.rect.low, low)
        np.testing.assert_array_equal(node.rect.high, high)
        _check_aggregates(
            node, members, None if weights is None else weights[rows[node.node_id]]
        )
        widest = float((high - low).max())
        if node.is_leaf:
            # lint: allow-float-eq -- zero extent is exact: identical points.
            assert node.size <= leaf_size or widest == 0.0
            continue
        assert node.size > leaf_size and widest > 0.0
        assert node.left.size == node.size // 2
        # Along the first widest axis the left child holds the smaller
        # coordinates; equal ones go left in row order.
        axis = int(np.argmax(high - low))
        left_rows, right_rows = rows[node.left.node_id], rows[node.right.node_id]
        last_left = max(zip(points[left_rows, axis].tolist(), left_rows.tolist()))
        first_right = min(zip(points[right_rows, axis].tolist(), right_rows.tolist()))
        assert last_left < first_right


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(build_inputs())
def test_build_is_deterministic(inputs):
    points, leaf_size, weights = inputs
    first = KDTree(points, leaf_size=leaf_size, weights=weights).arrays
    second = KDTree(points.copy(), leaf_size=leaf_size, weights=weights).arrays
    assert list(first) == list(second)
    for name, array in first.items():
        assert array.dtype == second[name].dtype
        np.testing.assert_array_equal(array, second[name])
        assert not array.flags.writeable
