"""Sequential-scan oracle over the benchmark's own mirror of the live sets.

Independent of the program's kernels: the minimal matching distance is
computed from Definition 6 directly (both sets padded to the capacity
with the reference point omega = origin, Euclidean element distance, one
``scipy.optimize.linear_sum_assignment`` per object) and every object is
scanned.  Answers are compared in the canonical ``(distance, oid)``
order.  The program sums the same terms in another order, so distances
are compared within ``TOLERANCE``; object ids must agree exactly unless
the distances at that rank tie within that tolerance.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

TOLERANCE = 1e-7


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE * max(1.0, abs(a), abs(b))


class ScanOracle:
    def __init__(self, capacity: int, dimension: int):
        self.capacity = capacity
        self.dimension = dimension
        self._source = None
        self._oids = np.empty(0, dtype=np.int64)
        self._padded = np.empty((0, capacity, dimension))

    def _pad(self, arr) -> np.ndarray:
        padded = np.zeros((self.capacity, self.dimension))
        padded[: len(arr)] = arr
        return padded

    def load(self, sets: dict[int, np.ndarray], version) -> None:
        """Pack the mirror once per *version* of it."""
        if self._source == version:
            return
        self._source = version
        self._oids = np.fromiter(sorted(sets), dtype=np.int64, count=len(sets))
        self._padded = np.stack([self._pad(sets[int(oid)]) for oid in self._oids])

    def scan(self, query) -> tuple[np.ndarray, np.ndarray]:
        """``(oids, distances)`` of every object, canonical order."""
        diff = self._pad(query)[None, :, None, :] - self._padded[:, None, :, :]
        costs = np.sqrt(np.einsum("nijd,nijd->nij", diff, diff))
        dists = np.empty(len(costs))
        for i, cost in enumerate(costs):
            rows, cols = linear_sum_assignment(cost)
            dists[i] = cost[rows, cols].sum()
        order = np.lexsort((self._oids, dists))
        return self._oids[order], dists[order]


def misordered(answer) -> str | None:
    """*answer* is ``[(oid, distance), ...]``; it must ascend canonically."""
    keys = [(dist, oid) for oid, dist in answer]
    if keys != sorted(keys) or len({oid for oid, _ in answer}) != len(answer):
        return "answer is not in canonical (distance, oid) order"
    return None


def _members(answer, truth: dict) -> str | None:
    """Every returned oid exists and carries its true distance."""
    for oid, dist in answer:
        if oid not in truth:
            return f"returned unknown oid {oid}"
        if not _close(dist, truth[oid]):
            return f"oid {oid}: distance {dist!r} but oracle {truth[oid]!r}"
    return None


def check_knn(answer, oids, dists, k: int) -> str | None:
    """Compare an exact k-nn answer with the oracle's full scan."""
    expected = min(k, len(oids))
    if len(answer) != expected:
        return f"knn returned {len(answer)} results, oracle has {expected}"
    truth = dict(zip(oids.tolist(), dists.tolist()))
    problem = _members(answer, truth)
    if problem:
        return problem
    for rank, (oid, dist) in enumerate(answer):
        want = float(dists[rank])
        # Another oid at this rank is acceptable only as a near-tie: sets
        # equal up to a permutation are mathematically equidistant, and
        # the two implementations round their sums differently.
        if oid != int(oids[rank]) and not _close(dist, want):
            return (
                f"rank {rank}: oid {oid} at {dist!r} but oracle has "
                f"oid {int(oids[rank])} at {want!r}"
            )
    return None


def check_approx(answer, oids, dists, k: int) -> str | None:
    """An approximate answer may miss neighbours (that is its recall) but
    must return real objects at their exact distances."""
    if len(answer) != min(k, len(oids)):
        return f"approx knn returned {len(answer)} results"
    return _members(answer, dict(zip(oids.tolist(), dists.tolist())))


def check_range(answer, oids, dists, epsilon: float) -> str | None:
    """Compare a range answer with the oracle's full scan; an object
    within ``TOLERANCE`` of the radius may fall on either side."""
    truth = dict(zip(oids.tolist(), dists.tolist()))
    problem = _members(answer, truth)
    if problem:
        return problem
    returned = {oid for oid, _ in answer}
    for oid, dist in truth.items():
        inside = dist <= epsilon
        if inside != (oid in returned) and not _close(dist, epsilon):
            return f"range query: oid {oid} at {dist!r} on the wrong side of {epsilon}"
    return None


def recall(answer, oids, k: int) -> float:
    """``|returned ∩ oracle top-k| / k``."""
    top = set(oids[:k].tolist())
    return len(top & {oid for oid, _ in answer}) / float(min(k, len(oids)))
