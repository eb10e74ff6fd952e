"""The full-tensor cover search, the tests' oracle for the one extractor.

The program extracts covers with one incremental greedy loop over a
bound-pruned, memory-capped max-sum-box search
(:func:`repro.features.cover_sequence.extract_cover_sequence`).  This
module keeps the original formulation — the "+"/"-" weight grids rebuilt
from scratch every iteration, every box checked through one
``O(r^4)`` z-prefix tensor — so the tests can hold the program to an
implementation that shares none of its search code, bit for bit: same
covers, signs, coordinates and error sequence.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import FeatureError
from repro.features.cover_sequence import Cover, CoverSequence
from repro.voxel.grid import VoxelGrid


def _pairs(r: int) -> tuple[np.ndarray, np.ndarray]:
    """All (lo, hi) with 0 <= lo < hi <= r, lo-major."""
    lo, hi = np.meshgrid(np.arange(r + 1), np.arange(r + 1), indexing="ij")
    keep = lo < hi
    return lo[keep], hi[keep]


def _max_sum_box_cropped(weights: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Max-sum box over the full (already cropped) weight grid.

    All (x1, x2) x (y1, y2) interval pairs are enumerated via a 3-D
    summed-area table; the best z-interval for each pair is then found
    with a vectorized running-minimum scan over the z-prefix sums
    (the 1-D Kadane trick).  It materializes the whole
    ``(n_x_pairs, n_y_pairs, r_z + 1)`` z-prefix tensor (~54 MB at
    r = 30), so keep the grids small.  Ties go to the first x-pair, then
    the first y-pair, then the first z-interval reaching the best.
    """
    rx, ry, rz = weights.shape
    sat = np.zeros((rx + 1, ry + 1, rz + 1))
    sat[1:, 1:, 1:] = weights.cumsum(0).cumsum(1).cumsum(2)

    x_lo, x_hi = _pairs(rx)
    y_lo, y_hi = _pairs(ry)
    diff_x = sat[x_hi] - sat[x_lo]
    pref = diff_x[:, y_hi, :] - diff_x[:, y_lo, :]

    shape = pref.shape[:2]
    running_min = pref[..., 0].copy()
    running_arg = np.zeros(shape, dtype=np.intp)
    best = np.full(shape, -np.inf)
    best_z1 = np.zeros(shape, dtype=np.intp)
    best_z2 = np.ones(shape, dtype=np.intp)
    for z2 in range(1, rz + 1):
        column = pref[..., z2]
        candidate = column - running_min
        better = candidate > best
        best[better] = candidate[better]
        best_z1[better] = running_arg[better]
        best_z2[better] = z2
        lower_min = column < running_min
        running_min[lower_min] = column[lower_min]
        running_arg[lower_min] = z2

    flat = int(np.argmax(best))
    ix, iy = np.unravel_index(flat, shape)
    lower = np.array([x_lo[ix], y_lo[iy], best_z1[ix, iy]])
    upper = np.array([x_hi[ix] - 1, y_hi[iy] - 1, best_z2[ix, iy] - 1])
    return float(best[ix, iy]), lower, upper


def max_sum_box(weights) -> tuple[float, np.ndarray, np.ndarray]:
    """Exact maximum-sum axis-aligned box of a 3-D weight grid.

    Returns ``(best_sum, lower, upper)`` with inclusive corner indices.
    The search first crops to the bounding box of the non-zero weights
    (any optimal box that meets them can be clipped to it without
    changing its sum); an all-zero grid reports one zero voxel, and a
    grid whose boxes inside that region all sum negative reports a
    zero-sum voxel outside it when there is one.
    """
    weights = np.asarray(weights)
    if weights.ndim != 3:
        raise FeatureError(f"expected a 3-D weight grid, got shape {weights.shape}")
    nonzero = np.nonzero(weights)
    if not nonzero[0].size:
        return 0.0, np.zeros(3, dtype=int), np.zeros(3, dtype=int)
    lows = np.array([axis.min() for axis in nonzero])
    highs = np.array([axis.max() for axis in nonzero])
    cropped = weights[
        lows[0] : highs[0] + 1, lows[1] : highs[1] + 1, lows[2] : highs[2] + 1
    ]
    best, lower, upper = _max_sum_box_cropped(cropped.astype(np.float64))
    if best < 0:
        for axis in range(3):
            cell = lows.copy()  # a cell inside the region, then step out
            if lows[axis] > 0:
                cell[axis] = 0
            elif highs[axis] < weights.shape[axis] - 1:
                cell[axis] = weights.shape[axis] - 1
            else:
                continue
            return 0.0, cell, cell.copy()
    return best, lower + lows, upper + lows


def extract_cover_sequence(
    grid: VoxelGrid, k: int = 7, allow_subtraction: bool = True
) -> CoverSequence:
    """The greedy cover sequence, weight grids rebuilt every iteration.

    Each step searches the "+" grid (uncovered object voxels +1,
    uncovered empty voxels -1) and, once a cover exists, the "-" grid
    (wrongly covered voxels +1, correctly covered object voxels -1) with
    :func:`max_sum_box`, keeps the larger gain ("+" on a tie) and stops
    when no gain is positive or the approximation is exact.
    """
    target = grid.occupancy
    state = np.zeros_like(target)
    covers: list[Cover] = []
    errors = [int(target.sum())]

    for _ in range(k):
        uncovered = ~state
        weight_add = (target & uncovered).astype(np.int8) - (
            ~target & uncovered
        ).astype(np.int8)
        gain_add, lo_add, hi_add = max_sum_box(weight_add)

        gain_sub = -np.inf
        if allow_subtraction and covers:
            weight_sub = (state & ~target).astype(np.int8) - (state & target).astype(
                np.int8
            )
            gain_sub, lo_sub, hi_sub = max_sum_box(weight_sub)

        if max(gain_add, gain_sub) <= 0:
            break
        if gain_add >= gain_sub:
            sign, gain, lower, upper = 1, gain_add, lo_add, hi_add
        else:
            sign, gain, lower, upper = -1, gain_sub, lo_sub, hi_sub

        cover = Cover(
            sign=sign,
            lower=(int(lower[0]), int(lower[1]), int(lower[2])),
            upper=(int(upper[0]), int(upper[1]), int(upper[2])),
            gain=int(round(gain)),
        )
        covers.append(cover)
        if sign > 0:
            state |= cover.mask(grid.resolution)
        else:
            state &= ~cover.mask(grid.resolution)
        errors.append(int(np.count_nonzero(state ^ target)))
        if errors[-1] == 0:
            break

    return CoverSequence(covers=covers, errors=errors, resolution=grid.resolution)
