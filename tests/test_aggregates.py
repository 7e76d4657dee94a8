"""Node moment aggregates: identities, merging, numerical stability."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.aggregates import NodeAggregates
from repro.errors import InvalidParameterError


def brute_sums(points, q):
    sq = ((points - q) ** 2).sum(axis=1)
    return float(sq.sum()), float((sq * sq).sum())


class TestIdentities:
    @pytest.mark.parametrize("dims", [1, 2, 3, 5])
    def test_moment_identities_match_brute_force(self, dims):
        rng = np.random.default_rng(dims)
        points = rng.normal(size=(60, dims)) * 2.0 + 1.0
        agg = NodeAggregates.from_points(points)
        for __ in range(10):
            q = rng.normal(size=dims) * 3.0
            d2, d4 = brute_sums(points, q)
            assert agg.sum_sq_dists(q.tolist()) == pytest.approx(d2, rel=1e-10)
            assert agg.sum_quartic_dists(q.tolist()) == pytest.approx(d4, rel=1e-9)

    def test_single_point(self):
        agg = NodeAggregates.from_points([[1.0, 2.0]])
        assert agg.sum_sq_dists([1.0, 2.0]) == 0.0
        assert agg.sum_sq_dists([2.0, 2.0]) == pytest.approx(1.0)
        assert agg.sum_quartic_dists([3.0, 2.0]) == pytest.approx(16.0)

    def test_nonnegative_clamp(self):
        # All points identical to the query: rounding must not go negative.
        points = np.full((100, 2), 3.7)
        agg = NodeAggregates.from_points(points)
        assert agg.sum_sq_dists([3.7, 3.7]) >= 0.0
        assert agg.sum_quartic_dists([3.7, 3.7]) >= 0.0


class TestNumericalStability:
    def test_large_offset_coordinates(self):
        """The centred moments survive geographic-scale offsets.

        This is the regression test for the catastrophic-cancellation bug
        class: lat/lon-like coordinates with tiny spreads.
        """
        rng = np.random.default_rng(0)
        points = rng.normal(size=(200, 2)) * 1e-3 + np.array([33.75, -84.39])
        agg = NodeAggregates.from_points(points)
        q = points[0] + np.array([2e-3, -1e-3])
        d2, d4 = brute_sums(points, q)
        assert agg.sum_sq_dists(q.tolist()) == pytest.approx(d2, rel=1e-9)
        assert agg.sum_quartic_dists(q.tolist()) == pytest.approx(d4, rel=1e-6)

    def test_huge_offset(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(50, 2)) + 1e6
        agg = NodeAggregates.from_points(points)
        q = (points[0] + 0.5).tolist()
        d2, d4 = brute_sums(points, np.asarray(q))
        assert agg.sum_sq_dists(q) == pytest.approx(d2, rel=1e-6)


class TestValidation:
    def test_from_points_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            NodeAggregates.from_points(np.empty((0, 2)))

    def test_from_points_rejects_1d(self):
        with pytest.raises(InvalidParameterError):
            NodeAggregates.from_points(np.array([1.0, 2.0]))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 40),
    scale=st.floats(0.01, 100.0),
    offset=st.floats(-1e4, 1e4),
)
def test_sum_identities_property(seed, n, scale, offset):
    """sum_sq/sum_quartic match brute force over random geometry."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 2)) * scale + offset
    agg = NodeAggregates.from_points(points)
    q = rng.normal(size=2) * scale + offset
    d2, d4 = brute_sums(points, q)
    assert agg.sum_sq_dists(q.tolist()) == pytest.approx(d2, rel=1e-8, abs=1e-12)
    assert agg.sum_quartic_dists(q.tolist()) == pytest.approx(d4, rel=1e-6, abs=1e-12)
