"""Pixel grid geometry."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.visual.grid import PixelGrid


class TestConstruction:
    def test_fit_covers_points(self, small_points):
        grid = PixelGrid.fit(small_points, 32, 24)
        assert np.all(grid.low <= small_points.min(axis=0))
        assert np.all(grid.high >= small_points.max(axis=0))

    def test_fit_margin_zero(self, small_points):
        grid = PixelGrid.fit(small_points, 8, 8, margin=0.0)
        np.testing.assert_allclose(grid.low, small_points.min(axis=0))
        np.testing.assert_allclose(grid.high, small_points.max(axis=0))

    def test_rejects_zero_resolution(self):
        with pytest.raises(InvalidParameterError):
            PixelGrid(0, 10, [0, 0], [1, 1])

    def test_rejects_inverted_viewport(self):
        with pytest.raises(InvalidParameterError):
            PixelGrid(4, 4, [1, 0], [0, 1])

    def test_rejects_non_finite_viewport(self):
        # NaN passes the low < high test; a NaN or infinite corner gives
        # NaN centres, on which best-first refinement never settles.
        for low, high in (
            ([np.nan, 0.0], [1.0, 1.0]),
            ([0.0, 0.0], [1.0, np.nan]),
            ([-np.inf, 0.0], [1.0, 1.0]),
            ([0.0, 0.0], [np.inf, 1.0]),
        ):
            with pytest.raises(InvalidParameterError, match="finite"):
                PixelGrid(8, 6, low, high)

    def test_fit_rejects_non_2d(self, highdim_points):
        with pytest.raises(InvalidParameterError):
            PixelGrid.fit(highdim_points, 8, 8)

    def test_fit_degenerate_extent(self):
        points = np.array([[1.0, 2.0], [1.0, 5.0]])  # zero x-extent
        grid = PixelGrid.fit(points, 4, 4)
        assert grid.low[0] < grid.high[0]


class TestGeometry:
    def test_centers_count_and_order(self):
        grid = PixelGrid(3, 2, [0.0, 0.0], [3.0, 2.0])
        centers = grid.centers()
        assert centers.shape == (6, 2)
        # Row-major: index iy*width + ix.
        np.testing.assert_allclose(centers[0], [0.5, 0.5])
        np.testing.assert_allclose(centers[1], [1.5, 0.5])
        np.testing.assert_allclose(centers[3], [0.5, 1.5])

    def test_pixel_center_matches_centers(self):
        grid = PixelGrid(5, 4, [0.0, 0.0], [1.0, 1.0])
        centers = grid.centers()
        for iy in range(4):
            for ix in range(5):
                np.testing.assert_allclose(
                    grid.pixel_center(ix, iy), centers[iy * 5 + ix]
                )

    def test_pixel_center_out_of_range(self):
        grid = PixelGrid(2, 2, [0, 0], [1, 1])
        with pytest.raises(InvalidParameterError):
            grid.pixel_center(2, 0)

    def test_centers_inside_viewport(self, small_points):
        grid = PixelGrid.fit(small_points, 16, 12)
        centers = grid.centers()
        assert np.all(centers >= grid.low)
        assert np.all(centers <= grid.high)

    def test_to_image_shape(self):
        grid = PixelGrid(4, 3, [0, 0], [1, 1])
        image = grid.to_image(np.arange(12))
        assert image.shape == (3, 4)
        assert image[1, 0] == 4

    def test_to_image_rejects_wrong_size(self):
        grid = PixelGrid(4, 3, [0, 0], [1, 1])
        with pytest.raises(InvalidParameterError):
            grid.to_image(np.arange(11))

    def test_scaled_keeps_viewport(self):
        grid = PixelGrid(10, 8, [0, 0], [2, 2])
        up = grid.scaled(2.0)
        assert up.resolution == (20, 16)
        np.testing.assert_array_equal(up.low, grid.low)
        np.testing.assert_array_equal(up.high, grid.high)

    def test_scaled_minimum_one_pixel(self):
        grid = PixelGrid(2, 2, [0, 0], [1, 1])
        down = grid.scaled(0.1)
        assert down.resolution == (1, 1)
