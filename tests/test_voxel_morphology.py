"""Tests for binary morphology primitives."""

import numpy as np
import pytest

from repro.exceptions import VoxelizationError
from repro.voxel.morphology import (
    erode,
    fill_solid,
    flood_fill_outside,
    sphere_kernel,
    surface_mask,
)


def single_voxel(shape=(7, 7, 7), at=(3, 3, 3)):
    arr = np.zeros(shape, dtype=bool)
    arr[at] = True
    return arr


class TestDilateErode:
    def test_erode_matches_reference_on_ball(self):
        """The ball ``|c|^2 <= r^2`` keeps a voxel iff its farthest face
        neighbour, one step out along the voxel's largest coordinate, is
        in the ball: ``|c|^2 + 2 max|c_i| + 1 <= r^2``."""
        for radius in (2, 3, 4):
            coords = np.arange(2 * radius + 1) - radius
            xs, ys, zs = np.meshgrid(coords, coords, coords, indexing="ij")
            farthest = np.maximum(np.maximum(abs(xs), abs(ys)), abs(zs))
            reference = xs**2 + ys**2 + zs**2 + 2 * farthest + 1 <= radius**2
            assert np.array_equal(erode(sphere_kernel(radius)), reference)
        assert erode(sphere_kernel(2)).sum() == 7  # the centre and its cross

    def test_erode_removes_isolated_voxel(self):
        assert erode(single_voxel()).sum() == 0

    def test_border_voxels_erode_away(self):
        arr = np.ones((4, 4, 4), dtype=bool)
        inner = erode(arr)
        assert inner.sum() == 8  # the 2x2x2 core
        assert not inner[0].any() and not inner[-1].any()

    def test_iterations_compose(self):
        arr = sphere_kernel(4)
        assert np.array_equal(erode(arr, 2), erode(erode(arr)))

    def test_non_3d_rejected(self):
        with pytest.raises(VoxelizationError):
            erode(np.zeros((3, 3), dtype=bool))


class TestSurfaceMask:
    def test_solid_cube_surface(self):
        arr = np.zeros((6, 6, 6), dtype=bool)
        arr[1:5, 1:5, 1:5] = True
        surface = surface_mask(arr)
        assert surface.sum() == 4**3 - 2**3  # shell of the 4^3 cube
        assert not (surface & ~arr).any()

    def test_thin_plate_is_all_surface(self):
        arr = np.zeros((6, 6, 6), dtype=bool)
        arr[:, :, 3] = True
        assert np.array_equal(surface_mask(arr), arr)

    def test_grid_border_counts_as_surface(self):
        arr = np.ones((3, 3, 3), dtype=bool)
        surface = surface_mask(arr)
        assert surface.sum() == 26  # all but the very center


class TestFloodFill:
    def test_outside_excludes_enclosed_void(self):
        shell = np.zeros((8, 8, 8), dtype=bool)
        shell[1:7, 1:7, 1:7] = True
        shell[3:5, 3:5, 3:5] = False  # hollow core
        outside = flood_fill_outside(shell)
        assert not outside[3, 3, 3]  # core not reachable from border
        assert outside[0, 0, 0]

    def test_fill_solid_closes_void(self):
        shell = np.zeros((8, 8, 8), dtype=bool)
        shell[1:7, 1:7, 1:7] = True
        shell[3:5, 3:5, 3:5] = False
        filled = fill_solid(shell)
        assert filled[3, 3, 3]
        assert filled.sum() == 6**3

    def test_open_shape_is_not_filled(self):
        tube = np.zeros((8, 8, 8), dtype=bool)
        tube[2:6, 2:6, :] = True
        tube[3:5, 3:5, :] = False  # channel open at both ends
        filled = fill_solid(tube)
        assert not filled[3, 3, 4]


class TestSphereKernel:
    @pytest.mark.parametrize("radius", [1, 2, 3, 5])
    def test_kernel_shape_and_symmetry(self, radius):
        kernel = sphere_kernel(radius)
        assert kernel.shape == (2 * radius + 1,) * 3
        assert kernel[radius, radius, radius]
        assert np.array_equal(kernel, kernel[::-1])
        assert np.array_equal(kernel, kernel.transpose(1, 0, 2))

    def test_kernel_volume_approaches_ball(self):
        radius = 8
        kernel = sphere_kernel(radius)
        analytic = 4.0 / 3.0 * np.pi * radius**3
        assert kernel.sum() == pytest.approx(analytic, rel=0.05)

    def test_radius_validation(self):
        with pytest.raises(VoxelizationError):
            sphere_kernel(0)

