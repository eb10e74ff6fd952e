"""The solid-angle model (Section 3.3.2, after Connolly).

For every surface voxel ``v-bar`` of an object the solid-angle value

    SA(v-bar) = |K_vbar  intersect  V^o| / |K_vbar|

counts which fraction of a voxelized ball ``K`` centered at the voxel is
filled by the object: small values mean the surface is convex there,
large values concave.  Per histogram cell the model stores

* the mean SA value of the cell's surface voxels, if it has any,
* 1.0 if the cell contains only interior voxels,
* 0.0 if the cell contains no object voxels.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import FeatureError
from repro.features.base import FeatureModel, cell_index_of_voxels, check_partition
from repro.voxel.grid import VoxelGrid
from repro.voxel.morphology import sphere_kernel


def solid_angle_values(grid: VoxelGrid, kernel_radius: int) -> np.ndarray:
    """SA value for every surface voxel of *grid*.

    Returns an ``(n_surface,)`` array aligned with
    ``grid.surface_indices()``.  Space outside the raster counts as empty
    (``mode="constant"``), matching the set-intersection definition.
    """
    # Imported on first use: scipy.ndimage is most of `import repro`.
    from scipy.ndimage import convolve

    kernel = sphere_kernel(kernel_radius)
    filled = convolve(
        grid.occupancy.astype(np.float64), kernel.astype(np.float64), mode="constant"
    )
    fractions = filled / float(kernel.sum())
    surface = grid.surface_indices()
    return fractions[surface[:, 0], surface[:, 1], surface[:, 2]]


class SolidAngleModel(FeatureModel):
    """Mean solid-angle value per histogram cell.

    Parameters
    ----------
    partitions:
        Cells per dimension ``p`` (must divide the resolution).
    kernel_radius:
        Radius of the voxelized ball ``K`` in voxels.  The paper does not
        publish its radius; a radius around ``r / 6`` makes the ball span
        roughly one histogram cell, which reproduces the described
        convex/concave discrimination.
    """

    def __init__(self, partitions: int = 3, kernel_radius: int = 3):
        if partitions < 1:
            raise ValueError("partitions must be >= 1")
        if kernel_radius < 1:
            raise ValueError("kernel_radius must be >= 1")
        self.partitions = partitions
        self.kernel_radius = kernel_radius

    @property
    def name(self) -> str:
        return f"solid-angle(p={self.partitions}, R={self.kernel_radius})"

    def dimension(self, resolution: int) -> int:
        check_partition(resolution, self.partitions)
        return self.partitions**3

    def extract(self, grid: VoxelGrid) -> np.ndarray:
        p = self.partitions
        check_partition(grid.resolution, p)
        if 2 * self.kernel_radius + 1 > grid.resolution:
            raise FeatureError(
                f"kernel radius {self.kernel_radius} too large for r={grid.resolution}"
            )
        features = np.zeros(p**3, dtype=float)

        # Rule 2/3: cells with object voxels default to 1 (all-interior),
        # cells without any stay 0.
        occupied_cells = np.unique(
            cell_index_of_voxels(grid.indices(), grid.resolution, p)
        )
        features[occupied_cells] = 1.0

        # Rule 1: cells with surface voxels get the mean SA value.
        surface_idx = grid.surface_indices()
        if len(surface_idx):
            sa = solid_angle_values(grid, self.kernel_radius)
            cells = cell_index_of_voxels(surface_idx, grid.resolution, p)
            sums = np.zeros(p**3, dtype=float)
            counts = np.zeros(p**3, dtype=float)
            np.add.at(sums, cells, sa)
            np.add.at(counts, cells, 1.0)
            with_surface = counts > 0
            features[with_surface] = sums[with_surface] / counts[with_surface]
        return features
