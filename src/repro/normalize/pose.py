"""Translation and scale normalization of voxel grids.

The paper stores every object "normalized with respect to translation and
scaling" together with its three original scale factors, so that scaling
invariance can be (de)activated at runtime.  :func:`normalize_grid`
implements exactly that: it recenters the occupied bounding box on the
raster and records the world extents in a :class:`PoseInfo` (and, on
request, brings the object into its canonical 90-degree pose).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import VoxelizationError
from repro.normalize.symmetry import canonical_symmetry_matrix
from repro.voxel.grid import VoxelGrid, moved_indices


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


def normalize_grid(
    grid: VoxelGrid, canonical_pose: bool = False, include_reflections: bool = True
) -> tuple[VoxelGrid, PoseInfo]:
    """Center *grid*, optionally bring it into its canonical 90-degree
    pose, and report its pose bookkeeping.

    Returns the normalized grid and a :class:`PoseInfo` carrying the
    world extents (scale factors) and the applied integer translation.
    With *canonical_pose* the centered grid is transformed by its
    :func:`~repro.normalize.symmetry.canonical_symmetry_matrix`.  One
    scan of the occupancy serves every step: the bounding box and the
    shift come from the voxel indices, the centered grid's indices are
    those plus the shift in the same order, and they give the moments
    and the transform's scatter.
    """
    idx = grid.indices()
    if not len(idx):
        raise VoxelizationError("cannot normalize an empty grid")
    lower, upper = idx.min(axis=0), idx.max(axis=0)
    shift = _centering_shift(lower, upper, grid.resolution)
    idx += shift
    if canonical_pose:
        matrix = canonical_symmetry_matrix(idx, include_reflections)
        idx = moved_indices(idx, matrix, grid.resolution)
    extents = (upper - lower + 1) * grid.voxel_size
    info = PoseInfo(
        scale_factors=(float(extents[0]), float(extents[1]), float(extents[2])),
        translation=(int(shift[0]), int(shift[1]), int(shift[2])),
    )
    return grid.with_indices(idx, grid.origin - shift * grid.voxel_size), info
