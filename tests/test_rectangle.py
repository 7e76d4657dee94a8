"""Bounding rectangles and min/max point-to-box distances."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import InvalidParameterError
from repro.index.rectangle import Rectangle


class TestConstruction:
    def test_rejects_low_above_high(self):
        with pytest.raises(InvalidParameterError):
            Rectangle([1.0, 0.0], [0.0, 1.0])

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(InvalidParameterError):
            Rectangle([0.0], [1.0, 2.0])

    def test_bounds_are_copies(self):
        low = np.array([0.0, 0.0])
        rect = Rectangle(low, [1.0, 1.0])
        low[0] = 99.0
        assert rect.low[0] == 0.0


class TestContains:
    def test_interior_point(self):
        rect = Rectangle([0.0, 0.0], [1.0, 1.0])
        assert rect.contains([0.5, 0.5])

    def test_boundary_point(self):
        rect = Rectangle([0.0, 0.0], [1.0, 1.0])
        assert rect.contains([1.0, 0.0])

    def test_outside_point(self):
        rect = Rectangle([0.0, 0.0], [1.0, 1.0])
        assert not rect.contains([1.5, 0.5])


class TestDistances:
    def test_inside_gives_zero_min(self):
        rect = Rectangle([0.0, 0.0], [2.0, 2.0])
        assert rect.min_sq_dist([1.0, 1.0]) == 0.0

    def test_min_dist_to_face(self):
        rect = Rectangle([0.0, 0.0], [2.0, 2.0])
        assert rect.min_sq_dist([3.0, 1.0]) == pytest.approx(1.0)

    def test_min_dist_to_corner(self):
        rect = Rectangle([0.0, 0.0], [2.0, 2.0])
        assert rect.min_sq_dist([3.0, 3.0]) == pytest.approx(2.0)

    def test_max_dist_from_center(self):
        rect = Rectangle([0.0, 0.0], [2.0, 2.0])
        assert rect.max_sq_dist([1.0, 1.0]) == pytest.approx(2.0)

    def test_max_dist_outside(self):
        rect = Rectangle([0.0, 0.0], [1.0, 1.0])
        assert rect.max_sq_dist([2.0, 0.5]) == pytest.approx(4.0 + 0.25)

    def test_degenerate_point_rectangle(self):
        rect = Rectangle([1.0, 1.0], [1.0, 1.0])
        assert rect.min_sq_dist([2.0, 1.0]) == pytest.approx(1.0)
        assert rect.max_sq_dist([2.0, 1.0]) == pytest.approx(1.0)

    def test_generic_path_matches_2d_fast_path_semantics(self):
        # 3-D uses the generic loop; cross-check against brute force.
        rect = Rectangle([0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
        rng = np.random.default_rng(0)
        corners = np.array(
            [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 2.0) for z in (0.0, 3.0)]
        )
        for __ in range(50):
            q = rng.normal(scale=3.0, size=3)
            brute_max = float(((corners - q) ** 2).sum(axis=1).max())
            assert rect.max_sq_dist(q.tolist()) == pytest.approx(brute_max)


@given(
    qx=st.floats(-10, 10),
    qy=st.floats(-10, 10),
    lx=st.floats(-5, 5),
    ly=st.floats(-5, 5),
    wx=st.floats(0, 5),
    wy=st.floats(0, 5),
)
def test_min_le_max_and_brute_force_bracket(qx, qy, lx, ly, wx, wy):
    """min/max box distances bracket the distance to every box point."""
    rect = Rectangle([lx, ly], [lx + wx, ly + wy])
    q = [qx, qy]
    min_sq = rect.min_sq_dist(q)
    max_sq = rect.max_sq_dist(q)
    assert 0.0 <= min_sq <= max_sq + 1e-12
    # Sample interior points: all must fall inside the bracket.
    for fx in (0.0, 0.33, 1.0):
        for fy in (0.0, 0.71, 1.0):
            px = lx + fx * wx
            py = ly + fy * wy
            sq = (px - qx) ** 2 + (py - qy) ** 2
            assert min_sq - 1e-9 <= sq <= max_sq + max_sq * 1e-9 + 1e-9
