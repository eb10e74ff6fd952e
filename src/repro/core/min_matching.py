"""Minimal matching distance between vector sets (Definition 6).

For two sets ``X = {x_1..x_m}`` and ``Y = {y_1..y_n}`` with ``m >= n``,

    d_mm(X, Y) = min over enumerations pi of
                 sum_i ||x_pi(i) - y_i||  +  sum over unmatched x of ||x||

i.e. a minimum-weight perfect matching where every element of the larger
set that stays unmatched pays the weight ``w(x) = ||x - ω||`` with
``ω = 0`` (Definition 7, the paper's choice).  With the Euclidean element
distance that is a metric (Lemma 1, via the netflow distance of Ramon &
Bruynooghe).

One pair is one call of the batched kernel's pair path
(:mod:`repro.core.batch`): both sets ω-padded to ``max(m, n)`` rows, the
padded rows standing in for the unmatched penalty, solved by
:func:`repro.core.batch.hungarian_batch` and summed by
:func:`repro.core.batch.ascending_sum`.  So this function returns, bit
for bit, the float :func:`repro.core.batch.match_many` returns for the
same pair at any packed capacity (unless two optima of different
matched-cost multisets tie; DESIGN.md "Tie-canonical distances").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.batch import _solve_pair
from repro.core.vector_set import VectorSet
from repro.exceptions import DistanceError


def squared_euclidean_cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances via the Gram-matrix identity
    ``||x||^2 + ||y||^2 - 2 x.y``, clipped at zero.

    This avoids the O(m*n*d) broadcast temporary of the textbook form
    and the sqrt-of-negative risk from cancellation.  All dot products
    go through ``np.einsum``, whose fixed summation order makes the
    result independent of batch shape — in particular ``x == y`` rows
    cancel to *exactly* zero, which the query engine relies on for
    self-distances (a BLAS matmul does not guarantee this).
    """
    x_sq = np.einsum("ij,ij->i", x, x)
    y_sq = np.einsum("ij,ij->i", y, y)
    sq = x_sq[:, np.newaxis] + y_sq[np.newaxis, :] - 2.0 * np.einsum("id,jd->ij", x, y)
    np.maximum(sq, 0.0, out=sq)
    return sq


def euclidean_cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances: ``(m, d) x (n, d) -> (m, n)``."""
    sq = squared_euclidean_cross(x, y)
    return np.sqrt(sq, out=sq)


def squared_euclidean_cross_reference(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The pre-Gram broadcast form, kept as a test oracle only."""
    diff = x[:, np.newaxis, :] - y[np.newaxis, :, :]
    return np.sum(diff * diff, axis=2)


def euclidean_cross_reference(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The pre-Gram broadcast form, kept as a test oracle only."""
    return np.sqrt(squared_euclidean_cross_reference(x, y))


def as_set_array(vectors: np.ndarray | VectorSet) -> np.ndarray:
    """Coerce a raw array or :class:`VectorSet` to a validated float
    ``(m, d)`` array (shared by every set-distance entry point)."""
    if isinstance(vectors, VectorSet):
        arr = np.asarray(vectors.vectors, dtype=float)
    else:
        arr = np.asarray(vectors, dtype=float)
    # VectorSet validates on construction, but frozen dataclasses can be
    # bypassed — enforce the same contract on both branches.
    if arr.ndim != 2 or not len(arr):
        raise DistanceError(f"expected a non-empty (m, d) array, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class MatchResult:
    """Outcome of a minimal matching distance computation.

    Attributes
    ----------
    distance:
        The minimal matching distance value.
    pairs:
        ``(p, 2)`` index pairs (row in X, row in Y) that were matched.
    unmatched:
        Indices in the larger set that paid the weight penalty.
    is_identity:
        Whether the matching equals the identity alignment
        (``x_i <-> y_i``) — the quantity behind Table 1: a "proper
        permutation" is any optimal matching that is *not* the identity.
    """

    distance: float
    pairs: np.ndarray
    unmatched: np.ndarray
    is_identity: bool


def _larger_first(
    x: np.ndarray | VectorSet, y: np.ndarray | VectorSet
) -> tuple[np.ndarray, np.ndarray, bool]:
    """The pair as validated arrays, the larger set first (the rows of
    its cost matrix), and whether that swapped them."""
    arr_x = as_set_array(x)
    arr_y = as_set_array(y)
    if arr_x.shape[1] != arr_y.shape[1]:
        raise DistanceError(
            f"dimension mismatch: {arr_x.shape[1]} vs {arr_y.shape[1]}"
        )
    if len(arr_x) < len(arr_y):
        return arr_y, arr_x, True
    return arr_x, arr_y, False


def min_matching_match(
    x: np.ndarray | VectorSet, y: np.ndarray | VectorSet
) -> MatchResult:
    """Minimal matching distance with the full matching reported, read
    off the kernel's padded assignment."""
    larger, smaller, swapped = _larger_first(x, y)
    distance, assignment = _solve_pair(larger, smaller)
    # Every row is real at capacity len(larger); a padded column leaves
    # its row unmatched, paying the row's norm.
    matched = assignment < len(smaller)
    pairs = np.column_stack([np.nonzero(matched)[0], assignment[matched]])
    unmatched = np.nonzero(~matched)[0]
    if swapped:
        pairs = pairs[:, ::-1]
    # The smaller set is matched whole, so `pairs` is never empty.
    is_identity = bool(np.all(pairs[:, 0] == pairs[:, 1]))
    return MatchResult(distance=distance, pairs=pairs, unmatched=unmatched, is_identity=is_identity)


def min_matching_distance(x: np.ndarray | VectorSet, y: np.ndarray | VectorSet) -> float:
    """Minimal matching distance value (Definition 6)."""
    larger, smaller, _ = _larger_first(x, y)
    return _solve_pair(larger, smaller)[0]
