"""Canonical 90-degree pose: the cube symmetry group quotiented out.

The paper achieves 90-degree-rotation and (optionally) reflection
invariance by evaluating the distance for all 24/48 permutations of the
*query* object at runtime and taking the minimum (Definition 2).  Table 2
does exactly that on extracted features; dataset preparation instead
brings every grid into one canonical pose, so the minimum need not be
evaluated per distance.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import VoxelizationError
from repro.voxel.grid import VoxelGrid


def canonical_symmetry_matrix(
    grid: VoxelGrid, include_reflections: bool = True
) -> np.ndarray:
    """A deterministic cube symmetry that brings *grid* into canonical pose.

    This is the principal-axis idea of Section 3.2 restricted to the
    90-degree group: axes are reordered by decreasing coordinate variance
    of the object voxels and each axis' sign is fixed so the third
    central moment (skewness) along it is non-negative.  Moments vary
    continuously with the shape, so near-identical parts in different
    orientations canonicalize to near-identical grids — which lets
    dataset preparation quotient out the 24/48-fold invariance once
    instead of evaluating Definition 2's minimum for every distance.

    With ``include_reflections=False`` the returned matrix is forced to
    determinant +1 (mirrored parts then remain distinguishable) by
    flipping the sign of the axis with the smallest absolute skewness.
    """
    if grid.is_empty():
        raise VoxelizationError("cannot canonicalize an empty grid")
    idx = grid.indices()
    centered = idx - idx.mean(axis=0)  # the center of mass, from the same scan
    variance = centered.var(axis=0)
    skewness = (centered**3).mean(axis=0)
    # Stable ordering: variance descending, axis index as tie-breaker.
    order = np.lexsort((np.arange(3), -variance))
    signs = np.where(skewness[order] >= 0, 1.0, -1.0)
    matrix = np.zeros((3, 3))
    for new_axis in range(3):
        matrix[new_axis, order[new_axis]] = signs[new_axis]
    if not include_reflections and np.linalg.det(matrix) < 0:
        weakest = int(np.argmin(np.abs(skewness[order])))
        matrix[weakest] = -matrix[weakest]
    return matrix


def canonicalize_grid(grid: VoxelGrid, include_reflections: bool = True) -> VoxelGrid:
    """Transform *grid* into its canonical 90-degree pose."""
    return grid.transformed(canonical_symmetry_matrix(grid, include_reflections))
