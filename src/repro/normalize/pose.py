"""Translation and scale normalization of voxel grids.

The paper stores every object "normalized with respect to translation and
scaling" together with its three original scale factors, so that scaling
invariance can be (de)activated at runtime.  :func:`normalize_grid`
implements exactly that: it recenters the occupied bounding box on the
raster and records the world extents in a :class:`PoseInfo`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import VoxelizationError
from repro.voxel.grid import VoxelGrid


@dataclass(frozen=True)
class PoseInfo:
    """Bookkeeping produced by normalization.

    Attributes
    ----------
    scale_factors:
        Original world extents of the object along x, y, z — the "scaling
        factors for each of the three dimensions" of Section 3.2.  With
        scaling invariance *off*, distances may compare these directly.
    translation:
        Index-space translation that was applied to center the object.
    """

    scale_factors: tuple[float, float, float]
    translation: tuple[int, int, int]


def _centering_shift(lower: np.ndarray, upper: np.ndarray, r: int) -> np.ndarray:
    """Integer shift that centers the box ``[lower, upper]`` on an r-raster.

    The desired lower corner is centered with the extra cell (if any)
    below, so ties round toward the origin.
    """
    return (r - (upper - lower + 1)) // 2 - lower


def center_grid(grid: VoxelGrid) -> VoxelGrid:
    """Translate the occupied voxels so their bounding box is centered.

    The integer translation moves the bounding-box center as close as
    possible to the raster center; ties round toward the origin so the
    operation is deterministic.  One scan of the occupancy: the bounding
    box comes from the voxel indices it moves.
    """
    if grid.is_empty():
        raise VoxelizationError("cannot center an empty grid")
    idx = grid.indices()
    shift = _centering_shift(idx.min(axis=0), idx.max(axis=0), grid.resolution)
    idx += shift
    occupancy = np.zeros_like(grid.occupancy)
    occupancy[idx[:, 0], idx[:, 1], idx[:, 2]] = True
    return VoxelGrid(occupancy, grid.origin - shift * grid.voxel_size, grid.voxel_size)


def normalize_grid(grid: VoxelGrid) -> tuple[VoxelGrid, PoseInfo]:
    """Center *grid* and report its pose bookkeeping.

    Returns the centered grid and a :class:`PoseInfo` carrying the world
    extents (scale factors) and the applied integer translation.  The
    translation is the centering shift itself, so the centered grid's
    bounding box is never scanned.
    """
    if grid.is_empty():
        raise VoxelizationError("cannot normalize an empty grid")
    lower, upper = grid.bounding_box()
    extents = (upper - lower + 1) * grid.voxel_size
    shift = _centering_shift(lower, upper, grid.resolution)
    info = PoseInfo(
        scale_factors=(float(extents[0]), float(extents[1]), float(extents[2])),
        translation=(int(shift[0]), int(shift[1]), int(shift[2])),
    )
    return center_grid(grid), info
