"""Minimum Euclidean distance under permutation (Definitions 3 and 4).

The one-vector cover sequence model concatenates ``k`` 6-d cover vectors
in a fixed order; Definition 4 removes the order dependence by minimizing
the Euclidean distance over all ``k!`` block permutations.  Two
implementations are provided:

* :func:`permutation_distance_bruteforce` — literally enumerates the
  ``k!`` permutations (exponential; usable for small ``k`` and as the
  oracle in tests),
* :func:`permutation_distance_via_matching` — the paper's O(k^3)
  reduction (Section 4.2): an optimal assignment on the *squared*
  Euclidean costs of the two sets padded with zero rows (dummy covers)
  to the capacity ``k``, whose dummy cost is the *squared* norm, then
  the square root of the matched sum.  It runs on the batched kernel's
  pair path (:mod:`repro.core.batch`), as
  :func:`permutation_distance_matrix` does for a whole collection.

The reduction equals Definition 4 only when both sides are padded to
the same ``k`` as the enumeration: with ``k > max(m, n)`` two real
covers may both be matched to dummy blocks, which Definition 6's
``min(m, n)`` forced real pairs would forbid.

Both accept either padded ``6k`` vectors or ``(m, d)`` vector sets.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from repro.core.batch import PackedSets, _pairwise, _solve_pair
from repro.core.vector_set import VectorSet
from repro.exceptions import DistanceError


def _to_rows(obj: np.ndarray | VectorSet, d: int | None) -> np.ndarray:
    """Normalize input into an ``(m, d)`` row array."""
    if isinstance(obj, VectorSet):
        return np.asarray(obj.vectors)
    arr = np.asarray(obj, dtype=float)
    if arr.ndim == 2:
        return arr
    if arr.ndim == 1:
        if d is None:
            raise DistanceError("flat vectors need the block dimension d")
        if len(arr) % d != 0:
            raise DistanceError(f"flat vector of length {len(arr)} is not divisible by d={d}")
        return arr.reshape(-1, d)
    raise DistanceError(f"expected flat vector or (m, d) rows, got shape {arr.shape}")


def _pad(rows: np.ndarray, k: int) -> np.ndarray:
    if len(rows) > k:
        raise DistanceError(f"{len(rows)} blocks exceed capacity k={k}")
    padded = np.zeros((k, rows.shape[1]))
    padded[: len(rows)] = rows
    return padded


def permutation_distance_bruteforce(
    x: np.ndarray | VectorSet,
    y: np.ndarray | VectorSet,
    d: int = 6,
    k: int | None = None,
) -> float:
    """Definition 4 by exhaustive enumeration of all ``k!`` permutations.

    Runtime grows with the factorial of ``k`` — the very cost the paper's
    matching reduction avoids; kept for validation and for the
    crossover ablation benchmark.
    """
    rows_x = _to_rows(x, d)
    rows_y = _to_rows(y, d)
    if rows_x.shape[1] != rows_y.shape[1]:
        raise DistanceError("block dimension mismatch")
    capacity = k or max(len(rows_x), len(rows_y))
    rows_x = _pad(rows_x, capacity)
    rows_y = _pad(rows_y, capacity)
    best = np.inf
    for order in permutations(range(capacity)):
        value = float(np.linalg.norm(rows_x - rows_y[list(order)]))
        if value < best:
            best = value
    return best


def permutation_distance_via_matching(
    x: np.ndarray | VectorSet,
    y: np.ndarray | VectorSet,
    d: int = 6,
    k: int | None = None,
) -> float:
    """Definition 4 in O(k^3) at capacity ``k`` (default ``max(m, n)``;
    below that is a :class:`DistanceError`), via the Section 4.2
    reduction on the kernel's pair path."""
    rows_x = _to_rows(x, d)
    rows_y = _to_rows(y, d)
    if rows_x.shape[1] != rows_y.shape[1]:
        raise DistanceError("block dimension mismatch")
    return _solve_pair(rows_x, rows_y, capacity=k, squared=True)[0]


def permutation_distance_matrix(
    sets: list[np.ndarray | VectorSet], n_jobs: int | None = None
) -> np.ndarray:
    """Definition 4 for every pair of *sets* at the capacity of the
    largest: one packed kernel pass on :func:`repro.core.batch.pairwise_matrix`'s
    fan-out (``n_jobs`` workers), entry for entry the float of
    :func:`permutation_distance_via_matching` at that ``k``."""
    return _pairwise(PackedSets.pack(sets), n_jobs, squared=True)
