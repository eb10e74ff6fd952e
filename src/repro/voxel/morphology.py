"""Binary morphology on 3-D occupancy arrays.

Small, dependency-free building blocks used by voxelization (solid fill),
the solid-angle model (sphere kernels) and the grid's surface/interior
classification.  All functions treat space outside the array as empty.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import VoxelizationError

# The 6 face-neighbor offsets of a voxel.
FACE_NEIGHBORS: tuple[tuple[int, int, int], ...] = (
    (1, 0, 0),
    (-1, 0, 0),
    (0, 1, 0),
    (0, -1, 0),
    (0, 0, 1),
    (0, 0, -1),
)


def _require_3d(occupancy: np.ndarray) -> np.ndarray:
    arr = np.asarray(occupancy, dtype=bool)
    if arr.ndim != 3:
        raise VoxelizationError(f"expected a 3-D boolean array, got shape {arr.shape}")
    return arr


def _shifted(arr: np.ndarray, offset: tuple[int, int, int]) -> np.ndarray:
    """Shift a boolean array by *offset*, padding with ``False``."""
    result = np.zeros_like(arr)
    src = [slice(None)] * 3
    dst = [slice(None)] * 3
    for axis, delta in enumerate(offset):
        if delta > 0:
            src[axis] = slice(0, arr.shape[axis] - delta)
            dst[axis] = slice(delta, arr.shape[axis])
        elif delta < 0:
            src[axis] = slice(-delta, arr.shape[axis])
            dst[axis] = slice(0, arr.shape[axis] + delta)
    result[tuple(dst)] = arr[tuple(src)]
    return result


def erode(occupancy: np.ndarray, iterations: int = 1) -> np.ndarray:
    """6-connected binary erosion: a voxel survives when it and its six
    face neighbours are occupied."""
    arr = _require_3d(occupancy)
    for _ in range(iterations):
        shrunk = arr.copy()
        for offset in FACE_NEIGHBORS:
            shrunk &= _shifted(arr, offset)
        # Voxels on the array border lose their out-of-grid neighbor and
        # therefore erode away, consistent with "outside is empty".
        border = np.zeros_like(arr)
        border[1:-1, 1:-1, 1:-1] = True
        arr = shrunk & border
    return arr


def surface_mask(occupancy: np.ndarray) -> np.ndarray:
    """Mark occupied voxels with at least one empty 6-neighbor.

    This realizes the paper's split of an object's voxels ``V`` into
    surface voxels ``V-bar`` and interior voxels ``V-dot`` (Section 3.3).
    Voxels on the grid border count as surface because the grid outside
    is empty.
    """
    arr = _require_3d(occupancy)
    interior = erode(arr)
    return arr & ~interior


def flood_fill_outside(occupancy: np.ndarray) -> np.ndarray:
    """Return the mask of empty voxels reachable from the grid border.

    Used for solid-filling a voxelized closed surface: everything that is
    neither *outside* nor *surface* is interior.  Implemented as an
    iterated 6-connected propagation, which converges in at most
    ``sum(shape)`` rounds.
    """
    empty = ~_require_3d(occupancy)
    outside = np.zeros_like(empty)
    # Seed with all empty border voxels.
    for axis in range(3):
        index = [slice(None)] * 3
        for side in (0, -1):
            index[axis] = side
            outside[tuple(index)] |= empty[tuple(index)]
    while True:
        grown = outside.copy()
        for offset in FACE_NEIGHBORS:
            grown |= _shifted(outside, offset)
        grown &= empty
        if np.array_equal(grown, outside):
            return outside
        outside = grown


def fill_solid(surface: np.ndarray) -> np.ndarray:
    """Solid-fill a (closed) voxel surface: surface plus enclosed voids."""
    arr = _require_3d(surface)
    outside = flood_fill_outside(arr)
    return arr | ~(arr | outside)


def sphere_kernel(radius: int) -> np.ndarray:
    """Voxelized ball of integer *radius*: the set ``K_c`` of the
    solid-angle model (Section 3.3.2), centered in a cube of side
    ``2 * radius + 1``.
    """
    if radius < 1:
        raise VoxelizationError("sphere kernel radius must be >= 1")
    side = 2 * radius + 1
    coords = np.arange(side) - radius
    xs, ys, zs = np.meshgrid(coords, coords, coords, indexing="ij")
    return xs**2 + ys**2 + zs**2 <= radius**2
