"""The central voxel data type: a cubic occupancy grid.

A :class:`VoxelGrid` stores the voxel approximation ``V^o`` of an object
on an ``r x r x r`` raster (the paper uses r = 15 for the cover-based
models and r = 30 for the histogram models).  It tracks the mapping back
to world coordinates (origin + voxel edge length) so that features can be
reported in either index or world units, and it exposes the
surface/interior split required by Section 3.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import VoxelizationError
from repro.voxel.morphology import surface_mask


@dataclass
class VoxelGrid:
    """A cubic boolean occupancy grid.

    Attributes
    ----------
    occupancy:
        ``(r, r, r)`` boolean array; ``True`` marks object voxels.
    origin:
        World-space position of the corner of voxel ``(0, 0, 0)``.
    voxel_size:
        Edge length of one voxel in world units.
    """

    occupancy: np.ndarray
    origin: np.ndarray = field(default_factory=lambda: np.zeros(3))
    voxel_size: float = 1.0

    def __post_init__(self) -> None:
        self.occupancy = np.asarray(self.occupancy, dtype=bool)
        self.origin = np.asarray(self.origin, dtype=float)
        if self.occupancy.ndim != 3:
            raise VoxelizationError(
                f"occupancy must be 3-D, got shape {self.occupancy.shape}"
            )
        if len(set(self.occupancy.shape)) != 1:
            raise VoxelizationError(
                f"grid must be cubic, got shape {self.occupancy.shape}"
            )
        if self.voxel_size <= 0:
            raise VoxelizationError("voxel size must be positive")

    # -- basic queries ---------------------------------------------------

    @property
    def resolution(self) -> int:
        """The raster resolution r (voxels per dimension)."""
        return self.occupancy.shape[0]

    @property
    def count(self) -> int:
        """Number of object voxels ``|V^o|``."""
        return int(self.occupancy.sum())

    def is_empty(self) -> bool:
        return not self.occupancy.any()

    def indices(self) -> np.ndarray:
        """``(n, 3)`` integer indices of all object voxels."""
        return np.transpose(np.nonzero(self.occupancy))

    def centers(self) -> np.ndarray:
        """World-space centers of all object voxels."""
        return self.origin + (self.indices() + 0.5) * self.voxel_size

    # -- surface / interior split (Section 3.3) ---------------------------

    def surface(self) -> np.ndarray:
        """Boolean mask of surface voxels ``V-bar`` (empty 6-neighbor)."""
        return surface_mask(self.occupancy)

    def interior(self) -> np.ndarray:
        """Boolean mask of interior voxels ``V-dot``."""
        return self.occupancy & ~self.surface()

    def surface_indices(self) -> np.ndarray:
        return np.transpose(np.nonzero(self.surface()))

    # -- geometric summaries ----------------------------------------------

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Tight index-space bounding box ``(lower, upper)`` (inclusive)."""
        if self.is_empty():
            raise VoxelizationError("empty grid has no bounding box")
        idx = self.indices()
        return idx.min(axis=0), idx.max(axis=0)

    def center_of_mass(self) -> np.ndarray:
        """Index-space center of mass of the object voxels."""
        if self.is_empty():
            raise VoxelizationError("empty grid has no center of mass")
        return self.indices().mean(axis=0)

    def volume(self) -> float:
        """Object volume in world units."""
        return self.count * self.voxel_size**3

    # -- transformation ---------------------------------------------------

    def transformed(self, matrix: np.ndarray) -> "VoxelGrid":
        """Apply a signed-permutation matrix (90-degree rotation and/or
        reflection) to the grid.

        Voxel indices are mapped through *matrix* about the grid center;
        the matrix must have integer entries and be orthogonal (all 48
        cube symmetries qualify).  Used to realize the invariances of
        Definition 2 at the voxel level.
        """
        idx = moved_indices(self.indices(), matrix, self.resolution)
        return self.with_indices(idx, self.origin.copy())

    def with_indices(self, idx: np.ndarray, origin: np.ndarray) -> "VoxelGrid":
        """A grid of this one's raster and voxel size whose object voxels
        are the ``(n, 3)`` indices *idx*, with its voxel ``(0, 0, 0)``
        at *origin*."""
        occupancy = np.zeros_like(self.occupancy)
        occupancy[idx[:, 0], idx[:, 1], idx[:, 2]] = True
        return VoxelGrid(occupancy, origin, self.voxel_size)

    # -- equality / serialization helpers -----------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VoxelGrid):
            return NotImplemented
        return (
            np.array_equal(self.occupancy, other.occupancy)
            and np.allclose(self.origin, other.origin)
            and np.isclose(self.voxel_size, other.voxel_size)
        )

    def copy(self) -> "VoxelGrid":
        return VoxelGrid(self.occupancy.copy(), self.origin.copy(), self.voxel_size)

    def nbytes(self) -> int:
        """Size of the raw occupancy payload in bytes (for the I/O cost
        model: one byte per voxel, as a bit-packed page layout would be
        dominated by metadata at these resolutions)."""
        return int(self.occupancy.size)

    @classmethod
    def empty(cls, resolution: int) -> "VoxelGrid":
        if resolution < 1:
            raise VoxelizationError("resolution must be >= 1")
        return cls(np.zeros((resolution,) * 3, dtype=bool))

    @classmethod
    def full(cls, resolution: int) -> "VoxelGrid":
        if resolution < 1:
            raise VoxelizationError("resolution must be >= 1")
        return cls(np.ones((resolution,) * 3, dtype=bool))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VoxelGrid(r={self.resolution}, occupied={self.count}, "
            f"voxel_size={self.voxel_size:g})"
        )


def moved_indices(idx: np.ndarray, matrix: np.ndarray, resolution: int) -> np.ndarray:
    """The ``(n, 3)`` voxel indices *idx* mapped through the
    signed-permutation *matrix* about the center of an r-raster, in the
    same order (the index map of :meth:`VoxelGrid.transformed`)."""
    mat = np.rint(np.asarray(matrix, dtype=float)).astype(int)
    if mat.shape != (3, 3) or not (mat @ mat.T == np.eye(3, dtype=int)).all():
        raise VoxelizationError("grid transforms must be signed permutations")
    r = resolution
    # Rotate doubled, centered coordinates so everything stays integral.
    moved = (2 * idx - (r - 1)) @ mat.T
    new_idx = (moved + (r - 1)) // 2
    if len(new_idx) and (new_idx.min() < 0 or new_idx.max() >= r):  # pragma: no cover
        raise VoxelizationError("transform moved voxels out of the grid")
    return new_idx
