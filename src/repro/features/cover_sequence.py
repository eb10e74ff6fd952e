"""The cover sequence model (Section 3.3.3, after Jagadish & Bruckstein).

An object ``O`` is approximated by a sequence of axis-aligned rectangular
covers combined with union ("+") or difference ("-"):

    S_k = (((C_0 s_1 C_1) s_2 C_2) ... s_k C_k),   C_0 = empty

chosen to minimize the symmetric volume difference
``Err_k = |O XOR S_k|``.  Like the paper we use the *greedy* variant: in
every step the cover (and sign) with the largest error reduction is
added.  The key subroutine is finding the axis-aligned box with maximum
total weight over a signed voxel-weight grid; we solve that *exactly*
over all O(r^6) boxes with a 3-D summed-area table and vectorized
difference tables (see DESIGN.md), so the greedy step itself is optimal.

Each cover contributes six feature values (position and extent per axis,
Section 3.3.3); sequences shorter than ``k`` are padded with dummy covers
("at the zero point", i.e. the zero vector in our centered encoding) for
the one-vector model, while the vector set model simply keeps the shorter
set (Section 4.1).
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from repro.exceptions import FeatureError
from repro.features.base import FeatureModel
from repro.obs import counter, histogram, span
from repro.voxel.grid import VoxelGrid

#: Approximate peak-memory budget (bytes) of one blocked max-sum-box
#: search; overridable per call or via ``REPRO_MAXBOX_BLOCK_BYTES``.
DEFAULT_BLOCK_BYTES = 32 * 1024 * 1024

#: x-pairs per scan block of the best-first search: the bound is
#: re-checked against the incumbent before every block, so small blocks
#: prune more and large ones dispatch fewer scans (on the r = 15 parts
#: grids 8 measured fastest, 16 about the same, 4 and 32 ~10 % slower).
SCAN_BLOCK = 8

#: The extraction engines ``extract_cover_sequence`` accepts.
EXTRACTION_ENGINES = ("incremental", "reference")


def default_block_bytes() -> int:
    """The effective block budget (env override, else the default)."""
    raw = os.environ.get("REPRO_MAXBOX_BLOCK_BYTES")
    if raw is None:
        return DEFAULT_BLOCK_BYTES
    try:
        value = int(raw)
    except ValueError:
        raise FeatureError(
            f"REPRO_MAXBOX_BLOCK_BYTES must be an integer, got {raw!r}"
        ) from None
    if value < 1:
        raise FeatureError("REPRO_MAXBOX_BLOCK_BYTES must be >= 1")
    return value


@functools.lru_cache(maxsize=128)
def _pair_indices(r: int) -> tuple[np.ndarray, np.ndarray]:
    """All (lo, hi) with 0 <= lo < hi <= r as two flat read-only arrays."""
    lo, hi = np.meshgrid(np.arange(r + 1), np.arange(r + 1), indexing="ij")
    keep = lo < hi
    lo, hi = lo[keep], hi[keep]
    lo.flags.writeable = False
    hi.flags.writeable = False
    return lo, hi


def _max_sum_box_cropped(weights: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Reference max-sum box over the full (already cropped) weight grid.

    All (x1, x2) x (y1, y2) interval pairs are enumerated via a 3-D
    summed-area table; the best z-interval for each pair is then found
    with a vectorized running-minimum scan over the z-prefix sums
    (the 1-D Kadane trick), which avoids materializing all O(r^6) box
    sums while still checking every box.

    This is the *oracle* implementation: it materializes the full
    ``(n_x_pairs, n_y_pairs, r_z + 1)`` z-prefix tensor (O(r^4) doubles,
    ~54 MB at r = 30 and growing with the fourth power of the
    resolution).  Production extraction goes through :func:`_best_box`,
    which is bit-identical but memory-capped and pruned; this version is
    kept for cross-checking.
    """
    rx, ry, rz = weights.shape
    sat = np.zeros((rx + 1, ry + 1, rz + 1))
    sat[1:, 1:, 1:] = weights.cumsum(0).cumsum(1).cumsum(2)

    x_lo, x_hi = _pair_indices(rx)
    y_lo, y_hi = _pair_indices(ry)
    # z-prefix sums for every (x-pair, y-pair): shape (n_x, n_y, rz + 1).
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


def _sat_dtypes(weights: np.ndarray) -> tuple[np.dtype, np.dtype, float]:
    """(sat dtype, scan dtype, sentinel) for an exact scan of *weights*.

    Integer grids use the narrowest summed-area-table dtype whose range
    provably holds every prefix sum (bounded by the total absolute
    weight), halving memory traffic on the bandwidth-bound scan; the
    scan buffers use a wider dtype because prefix *differences* span
    twice that range (the slab-row bound is summed in int64).  Every box
    sum stays exactly representable, so all comparisons — and hence the
    selected box — are identical to the float64 reference.
    """
    if np.issubdtype(weights.dtype, np.integer):
        spread = int(np.abs(weights.astype(np.int64, copy=False)).sum())
        if spread < 2**15:
            return np.dtype(np.int16), np.dtype(np.int32), np.iinfo(np.int32).min
        if spread < 2**29:
            return np.dtype(np.int32), np.dtype(np.int32), np.iinfo(np.int32).min
        return np.dtype(np.int64), np.dtype(np.int64), np.iinfo(np.int64).min
    return np.dtype(np.float64), np.dtype(np.float64), -np.inf


def _build_sat_z(weights: np.ndarray, sat_dtype: np.dtype) -> np.ndarray:
    """Zero-padded summed-area table of *weights* in z-major layout.

    The z-major transpose makes the Kadane scan's z-planes contiguous
    ``(x, y)`` slices instead of strided gathers.
    """
    rx, ry, rz = weights.shape
    sat = np.zeros((rx + 1, ry + 1, rz + 1), dtype=sat_dtype)
    sat[1:, 1:, 1:] = weights.cumsum(0, dtype=sat_dtype).cumsum(1).cumsum(2)
    return np.ascontiguousarray(sat.transpose(2, 0, 1))


def _kadane_best_values(
    diff: np.ndarray,
    y_lo: np.ndarray,
    y_hi: np.ndarray,
    sentinel,
    scan_dtype: np.dtype,
) -> np.ndarray:
    """Best box sum per (x-pair, y-pair) over z-major prefix sums.

    *diff* holds ``(rz + 1, b, ry + 1)`` y/z prefix differences for a
    block of ``b`` x-pairs; the classic running-minimum scan finds, for
    every (x-pair, y-pair), the maximal z-interval sum.  *y_lo* / *y_hi*
    index the y-interval ends (arrays, or slices for single rows).  Only
    *values* are tracked — four dense passes per z-plane instead of the
    nine (and three 8-byte index arrays) that coordinate bookkeeping
    would cost.
    The z-interval of the single winning entry is recovered afterwards
    by :func:`_recover_z_interval`.  ``np.maximum`` keeps the earlier
    value on ties, matching the reference scan's first-occurrence rule.
    """
    rz_levels = diff.shape[0]
    right = diff[:, :, y_hi]  # (rz+1, b, n_y) z-prefix sums per y-pair
    left = diff[:, :, y_lo]
    shape = right.shape[1:]
    running_min = np.zeros(shape, dtype=scan_dtype)
    best = np.full(shape, sentinel, dtype=scan_dtype)
    column = np.empty(shape, dtype=scan_dtype)
    candidate = np.empty(shape, dtype=scan_dtype)
    for z2 in range(1, rz_levels):
        # dtype= forces the wide loop: with a narrow sat dtype, out=
        # alone would pick the narrow loop and wrap before widening.
        np.subtract(right[z2], left[z2], out=column, dtype=scan_dtype)
        np.subtract(column, running_min, out=candidate)
        np.maximum(best, candidate, out=best)
        np.minimum(running_min, column, out=running_min)
    return best


def _recover_z_interval(prefix: np.ndarray) -> tuple[int, int]:
    """The z-interval the reference scan selects for one prefix column.

    Replays the running-minimum scan on a single ``(rz + 1,)`` z-prefix
    column with the reference tie rules — strict improvement, first
    running minimum — so the recovered ``(z1, z2)`` matches what full
    coordinate tracking would have produced for the winning entry.
    """
    values = [int(v) for v in prefix] if prefix.dtype.kind in "iu" else list(prefix)
    best = None
    z1_best, z2_best = 0, 1
    run_min, run_arg = values[0], 0
    for z2 in range(1, len(values)):
        candidate = values[z2] - run_min
        if best is None or candidate > best:
            best, z1_best, z2_best = candidate, run_arg, z2
        if values[z2] < run_min:
            run_min, run_arg = values[z2], z2
    return z1_best, z2_best


def _block_size(
    n_x: int,
    n_cols: int,
    ry: int,
    rz: int,
    sat_dtype: np.dtype,
    scan_dtype: np.dtype,
    block_bytes: int,
) -> int:
    """x-pairs per block so the working set stays under *block_bytes*.

    Dominant per-x-pair working set of a scan over *n_cols* y-intervals:
    the two ``(rz+1, b, n_cols)`` prefix gathers, ~8 scan/temporary
    arrays of ``(b, n_cols)``, and the ``(rz+1, b, ry+1)`` prefix
    differences with their gather temporaries.
    """
    sat_item = np.dtype(sat_dtype).itemsize
    scan_item = np.dtype(scan_dtype).itemsize
    per_pair = (
        n_cols * (2 * (rz + 1) * sat_item + 8 * scan_item)
        + 3 * (ry + 1) * (rz + 1) * sat_item
    )
    return int(max(1, min(n_x, block_bytes // max(per_pair, 1))))


def _slab_row_bounds(
    sat_z: np.ndarray,
    x_lo: np.ndarray,
    x_hi: np.ndarray,
    scan_dtype: np.dtype,
    sentinel,
    block_bytes: int,
) -> np.ndarray:
    """Upper bound of every box sum per x-pair, from its slab rows.

    A slab row is one x-pair at one y.  Its best z-interval sum is the
    Kadane scan with single-row y-intervals; a box of that x-pair sums
    row by row over its y-interval, so the positive parts of the row
    bests, summed over y, bound every box of the slab.  Integer SAT
    arithmetic makes the bound exact (no slack).  Computed in x-pair
    blocks so the pass stays inside *block_bytes*.
    """
    rz1, _, ry1 = sat_z.shape
    n_x = len(x_lo)
    block = _block_size(
        n_x, ry1 - 1, ry1 - 1, rz1 - 1, sat_z.dtype, scan_dtype, block_bytes
    )
    rows_lo, rows_hi = slice(0, ry1 - 1), slice(1, ry1)
    bound = np.empty(n_x, dtype=np.int64)
    for start in range(0, n_x, block):
        stop = min(start + block, n_x)
        diff = sat_z[:, x_hi[start:stop], :] - sat_z[:, x_lo[start:stop], :]
        rows = _kadane_best_values(diff, rows_lo, rows_hi, sentinel, scan_dtype)
        bound[start:stop] = np.maximum(rows, 0).sum(axis=1)
    return bound


def _best_box(
    weights: np.ndarray, block_bytes: int | None = None, floor: float | None = None
) -> tuple[float, np.ndarray, np.ndarray] | None:
    """Best-first, bound-pruned max-sum box over a cropped weight grid.

    Every x-pair gets the slab-row bound of :func:`_slab_row_bounds`;
    x-pairs are then scanned in descending bound order, :data:`SCAN_BLOCK`
    at a time (fewer if *block_bytes* demands), and before each block
    every x-pair whose bound is below the best value found so far is
    dropped.  Pairs whose bound *ties* it are kept, so every x-pair that
    reaches the maximum is scanned and the winner is the first of them
    in index order — the first y-pair of its row and
    :func:`_recover_z_interval` then pick the box, exactly as the
    reference scan does.  The winner's z-interval comes from the prefix
    columns its block already gathered.

    With a *floor*, only boxes summing strictly above it count: x-pairs
    bounded at or below it are never scanned, and ``None`` means no box
    beats it.  Float grids have no exact bound; they scan every x-pair,
    in index order, in the same loop.
    """
    if block_bytes is None:
        block_bytes = default_block_bytes()
    if block_bytes < 1:
        raise FeatureError("block_bytes must be >= 1")
    rx, ry, rz = weights.shape
    sat_dtype, scan_dtype, sentinel = _sat_dtypes(weights)
    sat_z = _build_sat_z(weights, sat_dtype)
    x_lo, x_hi = _pair_indices(rx)
    y_lo, y_hi = _pair_indices(ry)
    n_x, n_y = len(x_lo), len(y_lo)
    exact = scan_dtype.kind == "i"
    if exact:
        bound = _slab_row_bounds(sat_z, x_lo, x_hi, scan_dtype, sentinel, block_bytes)
        counter("extract.xpairs_bounded").inc(n_x)
        order = np.argsort(-bound, kind="stable")
        if floor is not None:
            order = order[bound[order] > floor]
    else:
        order = np.arange(n_x)
    block = min(
        SCAN_BLOCK, _block_size(n_x, n_y, ry, rz, sat_dtype, scan_dtype, block_bytes)
    )

    winner, best_val, best_by, best_diff = -1, None, 0, None
    scanned = 0
    for start in range(0, len(order), block):
        sel = order[start : start + block]
        if exact and winner >= 0:
            # Descending bounds: once a block is cut, nothing later survives.
            sel = sel[bound[sel] >= best_val]
            if not sel.size:
                break
        scanned += len(sel)
        diff = sat_z[:, x_hi[sel], :] - sat_z[:, x_lo[sel], :]
        values = _kadane_best_values(diff, y_lo, y_hi, sentinel, scan_dtype)
        pair_best = values.max(axis=1)
        top = pair_best.max()
        if floor is not None and not top > floor:
            continue
        if winner >= 0 and top < best_val:
            continue
        # Ties go to the first x-pair in index order, as in the reference.
        ties = np.nonzero(pair_best == top)[0]
        at = int(ties[np.argmin(sel[ties])])
        if winner < 0 or top > best_val or sel[at] < winner:
            winner, best_val = int(sel[at]), top
            best_by = int(np.argmax(values[at]))
            best_diff = diff[:, at, :].copy()
    counter("extract.xpairs_scanned").inc(scanned)
    if winner < 0:
        return None
    column = np.subtract(
        best_diff[:, y_hi[best_by]], best_diff[:, y_lo[best_by]], dtype=scan_dtype
    )
    z1, z2 = _recover_z_interval(column)
    lower = np.array([x_lo[winner], y_lo[best_by], z1])
    upper = np.array([x_hi[winner] - 1, y_hi[best_by] - 1, z2 - 1])
    return float(best_val), lower, upper


def _nonzero_window(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Inclusive ``(lows, highs)`` of the non-zero weights, None if all zero.

    Read from per-axis projections of one boolean mask, so no index
    array of the grid's size is built.
    """
    mask = weights != 0
    lows, highs = np.zeros(3, dtype=np.intp), np.zeros(3, dtype=np.intp)
    for axis in range(3):
        hits = np.flatnonzero(mask.any(axis=tuple(a for a in range(3) if a != axis)))
        if not hits.size:
            return None
        lows[axis], highs[axis] = hits[0], hits[-1]
    return lows, highs


def _search_above(
    weights: np.ndarray, block_bytes: int | None, floor: float | None = None
) -> tuple[float, np.ndarray, np.ndarray] | None:
    """:func:`_best_box` on the non-zero window of *weights*, in its frame.

    For grids holding a positive weight (the extraction engine searches
    no other), so the best box never lies outside the window.
    """
    lows, highs = _nonzero_window(weights)
    found = _best_box(
        weights[lows[0] : highs[0] + 1, lows[1] : highs[1] + 1, lows[2] : highs[2] + 1],
        block_bytes,
        floor,
    )
    if found is None:
        return None
    best, lower, upper = found
    return best, lower + lows, upper + lows


def max_sum_box(
    weights: np.ndarray,
    block_bytes: int | None = None,
    engine: str = "blocked",
) -> tuple[float, np.ndarray, np.ndarray]:
    """Exact maximum-sum axis-aligned box of a 3-D weight grid.

    Returns ``(best_sum, lower, upper)`` with inclusive integer corner
    indices.  The search is exact over all ``O(r^6)`` boxes; as a
    sum-preserving reduction it first crops to the bounding box of the
    non-zero weights (any optimal box can be clipped to that region
    without changing its sum).

    Parameters
    ----------
    block_bytes:
        Approximate peak-memory budget of the blocked search (default:
        :func:`default_block_bytes`); ignored by the reference engine.
    engine:
        ``"blocked"`` (default) for the memory-capped, bound-pruned
        best-first search (:func:`_best_box`), ``"reference"`` for the
        original full-tensor oracle.  Both return bit-identical results.
    """
    weights = np.asarray(weights)
    if weights.dtype == bool:
        weights = weights.astype(np.int8)
    elif not (
        np.issubdtype(weights.dtype, np.integer)
        or np.issubdtype(weights.dtype, np.floating)
    ):
        weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 3:
        raise FeatureError(f"expected a 3-D weight grid, got shape {weights.shape}")
    if engine not in ("blocked", "reference"):
        raise FeatureError(
            f"unknown max_sum_box engine {engine!r}; choose 'blocked' or 'reference'"
        )
    window = _nonzero_window(weights)
    if window is None:
        # All-zero grid: every box sums to zero; report a single voxel.
        return 0.0, np.zeros(3, dtype=int), np.zeros(3, dtype=int)
    lows, highs = window
    cropped = weights[
        lows[0] : highs[0] + 1, lows[1] : highs[1] + 1, lows[2] : highs[2] + 1
    ]
    if engine == "reference":
        best, lower, upper = _max_sum_box_cropped(cropped.astype(np.float64))
    else:
        best, lower, upper = _best_box(cropped, block_bytes)
    covers_whole_grid = np.all(lows == 0) and np.all(
        highs == np.asarray(weights.shape) - 1
    )
    if best < 0 and not covers_whole_grid:
        # All boxes inside the non-zero region sum negative, but a
        # zero-sum box exists outside it (cropping only preserves sums
        # of boxes that *intersect* the region).
        for axis in range(3):
            cell = list(lows)  # a cell inside the region, then step out
            if lows[axis] > 0:
                cell[axis] = 0
            elif highs[axis] < weights.shape[axis] - 1:
                cell[axis] = weights.shape[axis] - 1
            else:
                continue
            zero_cell = np.array(cell)
            return 0.0, zero_cell, zero_cell.copy()
    return best, lower + lows, upper + lows


@dataclass(frozen=True)
class Cover:
    """One unit ``(C_i, s_i)`` of a cover sequence.

    ``lower`` and ``upper`` are inclusive voxel-index corners; ``sign``
    is +1 for set union and -1 for set difference; ``gain`` is the error
    reduction the cover achieved when it was added.
    """

    sign: int
    lower: tuple[int, int, int]
    upper: tuple[int, int, int]
    gain: int

    def extent(self) -> np.ndarray:
        """Box side lengths in voxels."""
        return np.asarray(self.upper) - np.asarray(self.lower) + 1

    def volume(self) -> int:
        return int(np.prod(self.extent()))

    def center(self) -> np.ndarray:
        """Box center in voxel coordinates (may be half-integral)."""
        return (np.asarray(self.lower) + np.asarray(self.upper) + 1) / 2.0

    def mask(self, resolution: int) -> np.ndarray:
        """Boolean occupancy mask of the cover on an ``r^3`` raster."""
        result = np.zeros((resolution,) * 3, dtype=bool)
        lo, hi = self.lower, self.upper
        result[lo[0] : hi[0] + 1, lo[1] : hi[1] + 1, lo[2] : hi[2] + 1] = True
        return result


@dataclass
class CoverSequence:
    """A greedy cover sequence with its error trajectory.

    Attributes
    ----------
    covers:
        The covers in greedy order (the order of decreasing marginal
        error reduction — the "ranking according to the symmetric volume
        difference" of Section 4).
    errors:
        ``errors[i]`` is the symmetric volume difference after ``i``
        covers; ``errors[0]`` is the object's voxel count.
    resolution:
        Raster resolution the covers refer to.
    """

    covers: list[Cover]
    errors: list[int]
    resolution: int

    def approximation(self) -> np.ndarray:
        """Rebuild the boolean approximation ``S_k`` from the covers."""
        state = np.zeros((self.resolution,) * 3, dtype=bool)
        for cover in self.covers:
            if cover.sign > 0:
                state |= cover.mask(self.resolution)
            else:
                state &= ~cover.mask(self.resolution)
        return state

    def feature_vectors(self, normalize: bool = True) -> np.ndarray:
        """Covers as ``(m, 6)`` rows of (position, extent).

        Positions are measured from the raster center (the objects are
        normalized to the center of the coordinate system, Section 3.2),
        so the zero vector is exactly the paper's dummy cover ``C_0`` "at
        the zero point" with no volume.  With *normalize* (default) all
        six components are divided by the resolution, making features
        comparable across rasters.
        """
        if not self.covers:
            return np.zeros((0, 6))
        center = self.resolution / 2.0
        rows = []
        for cover in self.covers:
            position = cover.center() - center
            rows.append(np.concatenate([position, cover.extent().astype(float)]))
        result = np.asarray(rows)
        if normalize:
            result = result / float(self.resolution)
        return result

    def feature_vector(self, k: int, normalize: bool = True) -> np.ndarray:
        """The one-vector model: ``6k`` values, dummy-padded (zero rows)."""
        if k < len(self.covers):
            raise FeatureError(f"sequence has {len(self.covers)} covers > k={k}")
        rows = self.feature_vectors(normalize)
        padded = np.zeros((k, 6))
        padded[: len(rows)] = rows
        return padded.reshape(-1)


def _extract_reference(
    grid: VoxelGrid, k: int, allow_subtraction: bool
) -> CoverSequence:
    """The original greedy loop: weight grids rebuilt from scratch every
    iteration, max-sum boxes found by the full-tensor reference scan.

    Kept as the oracle the incremental engine is verified against
    (property tests and ``benchmarks/test_perf_extraction.py`` require
    bit-identical cover sequences).  The weight grids are built with
    direct boolean arithmetic on int8 views — two temporaries per grid
    instead of the four float ``np.where`` passes of earlier revisions;
    the values (and hence every box choice) are unchanged.
    """
    target = grid.occupancy
    state = np.zeros_like(target)
    covers: list[Cover] = []
    errors = [int(target.sum())]

    for _ in range(k):
        counter("extract.iterations").inc()
        uncovered = ~state
        # "+": object voxels not yet covered are gains, empty voxels
        # not yet covered would become errors.
        weight_add = (target & uncovered).astype(np.int8) - (
            ~target & uncovered
        ).astype(np.int8)
        counter("extract.searches").inc()
        gain_add, lo_add, hi_add = max_sum_box(weight_add, engine="reference")

        gain_sub = -np.inf
        if allow_subtraction and covers:
            # "-": wrongly covered voxels are gains, correctly covered
            # object voxels would become errors.
            weight_sub = (state & ~target).astype(np.int8) - (state & target).astype(
                np.int8
            )
            counter("extract.searches").inc()
            gain_sub, lo_sub, hi_sub = max_sum_box(weight_sub, engine="reference")

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


def _extract_incremental(
    grid: VoxelGrid, k: int, allow_subtraction: bool, block_bytes: int | None
) -> CoverSequence:
    """Incremental greedy extraction: the production engine.

    Instead of rebuilding the "+"/"-" weight grids from ``target`` and
    ``state`` every iteration, both are kept as int8 arrays and patched
    in place after each accepted cover — only voxels inside the chosen
    box change weight (to fixed values determined by ``target`` alone),
    so the update is O(box volume), and the boolean ``state`` raster is
    never materialized at all.  A "+" search whose grid has no positive
    cell (no uncovered object voxel) is skipped: its gain would be <= 0.
    The "-" search runs second, with a floor: its box is chosen only
    strictly above ``max(gain_add, 0)`` (ties go to "+"), so it prunes
    every x-pair bounded at or below that, and it is skipped outright
    when the wrongly covered count (its total positive weight) does not
    exceed the floor.  Neither shortcut changes a choice, so the
    produced sequence is bit-identical to :func:`_extract_reference` — a
    property the test suite and ``benchmarks/test_perf_extraction.py``
    check explicitly.
    """
    target = grid.occupancy
    # All voxels start uncovered: "+" rewards object voxels (+1) and
    # penalizes empty ones (-1); "-" has nothing to remove yet.
    weight_add = np.where(target, np.int8(1), np.int8(-1))
    weight_sub = np.zeros_like(weight_add)
    covers: list[Cover] = []
    errors = [int(target.sum())]
    uncovered_target = errors[0]  # object voxels not yet in the union
    wrongly_covered = 0  # empty voxels currently in the union

    for _ in range(k):
        counter("extract.iterations").inc()
        gain_add = -np.inf
        if uncovered_target:
            counter("extract.searches").inc()
            gain_add, lo_add, hi_add = _search_above(weight_add, block_bytes)
        else:
            counter("extract.searches_skipped").inc()
        gain_sub = -np.inf
        if allow_subtraction and covers:
            # A "-" box is chosen only strictly above gain_add (ties go
            # to "+") and above zero, and no box sums above the wrongly
            # covered count (its only positive weights).
            floor = max(gain_add, 0.0)
            if wrongly_covered > floor:
                counter("extract.searches").inc()
                found = _search_above(weight_sub, block_bytes, floor)
                if found is not None:
                    gain_sub, lo_sub, hi_sub = found
            else:
                counter("extract.searches_skipped").inc()

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
        box = (
            slice(cover.lower[0], cover.upper[0] + 1),
            slice(cover.lower[1], cover.upper[1] + 1),
            slice(cover.lower[2], cover.upper[2] + 1),
        )
        in_box = target[box]
        if sign > 0:
            # Everything in the box becomes covered: it leaves the "+"
            # grid and enters the "-" grid (+1 for wrongly covered
            # empties, -1 for object voxels a later "-" would re-expose).
            added = weight_add[box]
            uncovered_target -= int(np.count_nonzero(added == 1))
            wrongly_covered += int(np.count_nonzero(added == -1))
            weight_add[box] = 0
            weight_sub[box] = np.where(in_box, np.int8(-1), np.int8(1))
        else:
            # Everything in the box becomes uncovered again: the exact
            # inverse update.
            removed = weight_sub[box]
            wrongly_covered -= int(np.count_nonzero(removed == 1))
            uncovered_target += int(np.count_nonzero(removed == -1))
            weight_sub[box] = 0
            weight_add[box] = np.where(in_box, np.int8(1), np.int8(-1))
        # The box's weight sum IS the error reduction (that is what the
        # weight grids encode), so the error trajectory needs no raster.
        errors.append(errors[-1] - cover.gain)
        if errors[-1] == 0:
            break

    return CoverSequence(covers=covers, errors=errors, resolution=grid.resolution)


def extract_cover_sequence(
    grid: VoxelGrid,
    k: int = 7,
    allow_subtraction: bool = True,
    engine: str = "incremental",
    block_bytes: int | None = None,
) -> CoverSequence:
    """Greedy cover sequence of *grid* with at most *k* covers.

    Each step evaluates the best "+" cover (over the weight grid that
    rewards uncovered object voxels and penalizes newly covered empty
    ones) and — unless disabled — the best "-" cover (rewarding removal
    of wrongly covered voxels), and keeps the better of the two.  The
    loop stops early when no cover improves the symmetric volume
    difference or the approximation is exact.

    Parameters
    ----------
    engine:
        ``"incremental"`` (default) maintains the weight grids in place
        and uses the bound-pruned, memory-capped max-sum-box search;
        ``"reference"`` is the original reconstruct-every-iteration
        oracle.  Both produce bit-identical sequences.
    block_bytes:
        Peak-memory budget per max-sum-box search for the incremental
        engine (default: :func:`default_block_bytes`).
    """
    if k < 1:
        raise FeatureError("need k >= 1 covers")
    if grid.is_empty():
        raise FeatureError("cannot extract covers from an empty grid")
    if engine not in EXTRACTION_ENGINES:
        raise FeatureError(
            f"unknown extraction engine {engine!r}; choose from {EXTRACTION_ENGINES}"
        )
    with span("extract", engine=engine, k=k, resolution=grid.resolution):
        if engine == "incremental":
            sequence = _extract_incremental(grid, k, allow_subtraction, block_bytes)
        else:
            sequence = _extract_reference(grid, k, allow_subtraction)
    counter("extract.objects").inc()
    histogram("extract.covers").observe(len(sequence.covers))
    return sequence


class CoverSequenceModel(FeatureModel):
    """The one-vector cover sequence model: a ``6k``-dimensional vector.

    Parameters
    ----------
    k:
        Maximum number of covers (the paper evaluates 3, 5, 7, 9 and
    settles on 7).
    allow_subtraction:
        Permit "-" covers (both the paper's branch-and-bound and greedy
        algorithms do); disable for an ablation with union-only covers.
    normalize:
        Divide features by the resolution (see
        :meth:`CoverSequence.feature_vectors`).
    """

    def __init__(
        self,
        k: int = 7,
        allow_subtraction: bool = True,
        normalize: bool = True,
        engine: str = "incremental",
    ):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.allow_subtraction = allow_subtraction
        self.normalize = normalize
        self.engine = engine

    @property
    def name(self) -> str:
        return f"cover-sequence(k={self.k})"

    def dimension(self, resolution: int) -> int:
        return 6 * self.k

    def extract(self, grid: VoxelGrid) -> np.ndarray:
        sequence = extract_cover_sequence(
            grid, self.k, self.allow_subtraction, engine=self.engine
        )
        return sequence.feature_vector(self.k, self.normalize)


def transform_cover_vectors(vectors: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Apply a cube symmetry to 6-d cover features directly.

    A signed permutation ``M`` maps a cover with centered position ``p``
    and extent ``e`` to one with position ``M p`` and extent ``|M| e``
    (axis-aligned boxes stay axis-aligned under 90-degree symmetries).
    This lets Definition 2 be evaluated on extracted features without
    re-running the greedy extraction for each of the 48 variants.
    """
    vecs = np.asarray(vectors, dtype=float)
    squeeze = vecs.ndim == 1
    if squeeze:
        vecs = vecs[np.newaxis, :]
    if vecs.shape[1] != 6:
        raise FeatureError(f"expected (m, 6) cover vectors, got shape {vecs.shape}")
    mat = np.asarray(matrix, dtype=float)
    positions = vecs[:, :3] @ mat.T
    extents = vecs[:, 3:] @ np.abs(mat).T
    result = np.hstack([positions, extents])
    return result[0] if squeeze else result
