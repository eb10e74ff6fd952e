"""Voxel substrate: occupancy grids, voxelization and binary morphology.

The paper's similarity models all operate on voxelized CAD parts stored on
an ``r x r x r`` grid (Section 3).  :class:`~repro.voxel.grid.VoxelGrid`
is the central data type of this layer; it distinguishes surface voxels
from interior voxels exactly as Section 3.3 requires.
"""

from repro.voxel.grid import VoxelGrid
from repro.voxel.morphology import (
    erode,
    flood_fill_outside,
    sphere_kernel,
    surface_mask,
)
from repro.voxel.metrics import (
    dice_coefficient,
    intersection_over_union,
    symmetric_volume_difference,
    volume_difference_distance,
)
from repro.voxel.voxelize import voxelize_mesh, voxelize_points, voxelize_solid

__all__ = [
    "VoxelGrid",
    "voxelize_solid",
    "voxelize_mesh",
    "voxelize_points",
    "sphere_kernel",
    "flood_fill_outside",
    "surface_mask",
    "erode",
    "symmetric_volume_difference",
    "intersection_over_union",
    "dice_coefficient",
    "volume_difference_distance",
]
