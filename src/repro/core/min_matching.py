"""Minimal matching distance between vector sets (Definition 6).

For two sets ``X = {x_1..x_m}`` and ``Y = {y_1..y_n}`` with ``m >= n``,

    d_mm(X, Y) = min over enumerations pi of
                 sum_i dist(x_pi(i), y_i)  +  sum over unmatched x of w(x)

i.e. a minimum-weight perfect matching where every element of the larger
set that stays unmatched pays the weight penalty ``w``.  With a metric
``dist`` and a weight satisfying ``w(x) + w(y) >= dist(x, y)`` and
``w > 0``, the result is a metric (Lemma 1, via the netflow distance of
Ramon & Bruynooghe).

Implementation: the ``m x m`` cost matrix gets one dummy column per
missing element of the smaller set, whose cost for row ``x`` is ``w(x)``;
a standard square assignment then realizes Definition 6 exactly.  The
assignment is solved by :func:`repro.core.batch.hungarian_batch` and its
matched costs summed by :func:`repro.core.batch.ascending_sum` — the
solver and the arithmetic every database query uses, so with the default
element distance and weight this function returns, bit for bit, the
float :func:`repro.core.batch.match_many` returns for the same pair at
any packed capacity (unless two optima of different matched-cost
multisets tie; DESIGN.md "Tie-canonical distances").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.batch import ascending_sum, hungarian_batch
from repro.core.vector_set import VectorSet
from repro.exceptions import DistanceError

DistanceFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
WeightFn = Callable[[np.ndarray], np.ndarray]


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


def manhattan_cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairwise L1 distances."""
    return np.sum(np.abs(x[:, np.newaxis, :] - y[np.newaxis, :, :]), axis=2)


_CROSS_DISTANCES: dict[str, DistanceFn] = {
    "euclidean": euclidean_cross,
    "sqeuclidean": squared_euclidean_cross,
    "manhattan": manhattan_cross,
}


def resolve_distance(dist: str | DistanceFn) -> DistanceFn:
    """Turn a distance name or callable into a cross-distance function."""
    if callable(dist):
        return dist
    try:
        return _CROSS_DISTANCES[dist]
    except KeyError:
        raise DistanceError(
            f"unknown distance {dist!r}; choose from {sorted(_CROSS_DISTANCES)}"
        ) from None


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


def norm_weight(omega: np.ndarray | None = None) -> WeightFn:
    """The weight function family ``w_omega(x) = || x - omega ||_2``
    of Definition 7.  ``omega = None`` means the origin — the paper's
    choice, because no real cover has zero volume, keeping ``w > 0``.

    The norm is the Gram-form :func:`euclidean_cross` entry between
    ``x`` and ``omega``: exactly the cost the omega-padded kernel of
    :mod:`repro.core.batch` writes for a real element matched to a
    virtual one, so the weight column and the kernel agree to the bit.
    """

    def weight(arr: np.ndarray) -> np.ndarray:
        ref = np.zeros(arr.shape[1]) if omega is None else np.asarray(omega, dtype=float)
        return euclidean_cross(arr, ref[np.newaxis])[:, 0]

    return weight


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


def min_matching_match(
    x: np.ndarray | VectorSet,
    y: np.ndarray | VectorSet,
    dist: str | DistanceFn = "euclidean",
    weight: WeightFn | None = None,
) -> MatchResult:
    """Minimal matching distance with the full matching reported.

    Parameters
    ----------
    x, y:
        Vector sets (``(m, d)`` arrays or :class:`VectorSet`).
    dist:
        Element distance: a name (``"euclidean"``, ``"sqeuclidean"``,
        ``"manhattan"``) or a cross-distance callable.
    weight:
        Penalty ``w`` for unmatched elements of the larger set; defaults
        to the Euclidean norm (``omega = 0``, the paper's choice).  For
        metric behaviour it must satisfy the Lemma 1 conditions together
        with *dist*.
    """
    arr_x = as_set_array(x)
    arr_y = as_set_array(y)
    if arr_x.shape[1] != arr_y.shape[1]:
        raise DistanceError(
            f"dimension mismatch: {arr_x.shape[1]} vs {arr_y.shape[1]}"
        )
    cross = resolve_distance(dist)
    if weight is None:
        weight = norm_weight()

    swapped = False
    if len(arr_x) < len(arr_y):
        arr_x, arr_y = arr_y, arr_x
        swapped = True
    m, n = len(arr_x), len(arr_y)

    cost = np.empty((m, m))
    cost[:, :n] = cross(arr_x, arr_y)
    if m > n:
        penalties = np.asarray(weight(arr_x), dtype=float)
        if penalties.shape != (m,):
            raise DistanceError("weight function must return one value per vector")
        cost[:, n:] = penalties[:, np.newaxis]

    assignment = hungarian_batch(cost[np.newaxis])[0]
    total = float(ascending_sum(cost[np.arange(m), assignment]))

    matched_rows = np.nonzero(assignment < n)[0]
    pairs = np.column_stack([matched_rows, assignment[matched_rows]])
    unmatched = np.nonzero(assignment >= n)[0]
    if swapped:
        pairs = pairs[:, ::-1]
    # An empty matching is vacuously not the identity alignment
    # (``np.all`` of an empty array is True, which would miscount it as
    # a non-permutation in the Table 1 statistics).
    is_identity = bool(len(pairs)) and bool(np.all(pairs[:, 0] == pairs[:, 1]))
    return MatchResult(distance=total, pairs=pairs, unmatched=unmatched, is_identity=is_identity)


def min_matching_distance(
    x: np.ndarray | VectorSet,
    y: np.ndarray | VectorSet,
    dist: str | DistanceFn = "euclidean",
    weight: WeightFn | None = None,
) -> float:
    """Minimal matching distance value (Definition 6)."""
    return min_matching_match(x, y, dist=dist, weight=weight).distance
