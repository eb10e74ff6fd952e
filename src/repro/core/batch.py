"""Batched minimal-matching kernels: the packed-tensor distance layer.

Every experiment bottoms out in the O(k^3) minimal matching distance
(Definition 6): the filter-refine engine calls it once per surviving
candidate and OPTICS needs all O(n^2) pairs.  Evaluating it one pair at
a time pays Python-level cost-matrix assembly and solver dispatch per
call; this module amortizes that work over whole batches.

**Omega padding.**  Under the paper's weight family ``w(x) = ||x - ω||``
(Definition 7) with the Euclidean element distance, pad every set to the
shared capacity ``K`` with copies of the reference point ``ω``.  Then
the minimal matching distance of two sets equals the optimal assignment
value on the plain ``K x K`` cross-distance matrix of the padded sets:
matching a real element to a virtual one costs ``||x - ω|| = w(x)``
(the unmatched penalty), virtual-virtual pairs are free, and the Lemma 1
condition ``w(x) + w(y) >= dist(x, y)`` (here: the triangle inequality)
guarantees an optimum of the padded problem realizes Definition 6.
One tensor layout therefore serves ragged cardinalities, ``m < n``
swaps, and dummy columns without any per-pair case analysis.

**Gram-identity cost tensors.**  All candidate cost matrices of a batch
are built in a single vectorized pass as
``sqrt(clip(||x||^2 + ||y||^2 - 2 x.y, 0))`` — no ``(m, n, d)``
broadcast temporaries.  Dot products go through ``np.einsum``, which
reduces over ``d`` in the same order whatever the batch's shape and
whichever output layout it writes, so identical vectors cancel to
exactly zero (self-queries keep their exact-zero distances) and batched
results match the per-pair path to the last ulp of the cost entries.
The one-query branch writes the layout einsum writes fastest, the
stored sets' rows first, finishes the formula in that storage and hands
on one contiguous copy with the query's rows first: the same bits as
the query-first layout, from an einsum about 2.5x faster at the
cascade's window sizes.

**One compiled solver.**  The stacked ``(B, K, K)`` assignment problems
go one by one to :func:`scipy.optimize.linear_sum_assignment`, scipy's
shortest-augmenting-path solver (Crouse 2016, a Jonker–Volgenant
variant, O(k^3) per problem): 2.3 µs per pair in the engine's 16-pair
blocks, 3.2 µs at B = 4096 (7 x 7 stacks on a 2-core x86 machine).
A vectorised numpy Kuhn–Munkres that advanced a whole stack per step
(113 µs per pair at B = 16, 9.8 at B = 4096) and a loop over a
from-scratch scalar Kuhn–Munkres (29 and 34) won at no batch size, so
there is no solver to choose.  :func:`hungarian_batch` is the one call
site, for the partial matching too; an independent Kuhn–Munkres lives
in the tests as its oracle.

**One cost construction.**  Every distance of a pair is this kernel's:
the one-pair Definition 6 of :mod:`repro.core.min_matching` is a pack of
two sets, and Definition 4 (:mod:`repro.core.permutation`) is the pair
path with its entries left squared — with ``ω = 0`` the dummy cost is
``‖x‖²`` exactly — summed by :func:`ascending_sum` and rooted once
(§4.2's reduction at the packed capacity).

**Tie-canonical distances.**  Omega padding makes all virtual rows (and
columns) of a problem identical, so a ragged pair has many optimal
assignments, all matching the same multiset of costs.  The distance is
:func:`ascending_sum` of the matched costs: the terms in ascending
order, added one after another.  That is a function of the multiset,
not of the optimum a solver's tie-breaking happens to return, nor of
the capacity: the extra virtual-virtual pairs of a wider layout cost
exactly zero, sort first and leave every partial sum as it was
(NumPy's ``sum`` regroups its terms from eight on, so its float would
depend on how many zeros padded them).  DESIGN.md states the contract,
residual ties included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.vector_set import VectorSet
from repro.exceptions import DistanceError

#: Pairs per kernel invocation when chunking large workloads; bounds the
#: (chunk, K, K) cost tensor to a few MB at the paper's k <= 9 (measured
#: fastest among 1024..16384 on the n=300 pairwise workload).
DEFAULT_CHUNK_SIZE = 4096


# -- packed databases ---------------------------------------------------------


@dataclass(frozen=True)
class PaddedQuery:
    """One query set padded to a :class:`PackedSets` layout."""

    data: np.ndarray      # (K, d), rows beyond `size` hold omega
    sq_norms: np.ndarray  # (K,)
    size: int


@dataclass(frozen=True)
class PackedSets:
    """A database of <=K-cardinality vector sets in one padded tensor.

    Attributes
    ----------
    data:
        ``(n, K, d)`` tensor; rows beyond ``sizes[i]`` hold ``omega``
        (the virtual elements of the omega-padding formulation).
    sizes:
        ``(n,)`` true cardinalities.
    sq_norms:
        ``(n, K)`` squared Euclidean norms of the padded rows,
        precomputed for the Gram-identity cost assembly.
    omega:
        The ``(d,)`` reference point (Definition 7); the weight of an
        unmatched element is its distance to ``omega``.
    """

    data: np.ndarray
    sizes: np.ndarray
    sq_norms: np.ndarray
    omega: np.ndarray

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def __len__(self) -> int:
        return self.n

    @property
    def capacity(self) -> int:
        return self.data.shape[1]

    @property
    def dimension(self) -> int:
        return self.data.shape[2]

    @classmethod
    def pack(
        cls,
        sets: Sequence[np.ndarray | VectorSet],
        capacity: int | None = None,
        omega: np.ndarray | None = None,
    ) -> "PackedSets":
        """Pack a sequence of ``(m_i, d)`` arrays / :class:`VectorSet`."""
        arrays = [
            np.asarray(s.vectors if isinstance(s, VectorSet) else s, dtype=float)
            for s in sets
        ]
        if not arrays:
            raise DistanceError("cannot pack an empty collection of sets")
        dimension = arrays[0].shape[1] if arrays[0].ndim == 2 else -1
        for i, arr in enumerate(arrays):
            if arr.ndim != 2 or not len(arr) or arr.shape[1] != dimension:
                raise DistanceError(
                    f"set {i} is not a non-empty (m, {dimension}) array: {arr.shape}"
                )
        sizes = np.array([len(arr) for arr in arrays], dtype=np.intp)
        max_size = int(sizes.max())
        if capacity is None:
            capacity = max_size
        elif capacity < max_size:
            raise DistanceError(f"capacity {capacity} below largest set ({max_size})")
        if omega is None:
            omega = np.zeros(dimension)
        omega = np.asarray(omega, dtype=float)
        if omega.shape != (dimension,):
            raise DistanceError("omega has wrong dimension")
        return cls.from_ragged(np.concatenate(arrays), sizes, capacity, omega)

    @classmethod
    def from_ragged(
        cls, rows: np.ndarray, sizes: np.ndarray, capacity: int, omega: np.ndarray
    ) -> "PackedSets":
        """Pack sets stored back to back: *rows* is the ``(sum(sizes), d)``
        concatenation of the sets, ``sizes[i]`` the cardinality of set
        ``i``.  One scatter, no per-set work."""
        rows = np.asarray(rows, dtype=float)
        sizes = np.asarray(sizes, dtype=np.intp)
        omega = np.asarray(omega, dtype=float)
        if rows.ndim != 2 or omega.shape != rows.shape[1:]:
            raise DistanceError(
                f"rows {rows.shape} and omega {omega.shape} do not share a dimension"
            )
        if not len(sizes) or sizes.min() < 1 or sizes.max() > capacity:
            raise DistanceError(
                f"every set needs between 1 and {capacity} vectors"
            )
        if int(sizes.sum()) != len(rows):
            raise DistanceError(
                f"sizes sum to {int(sizes.sum())} but {len(rows)} rows were given"
            )
        data = np.empty((len(sizes), capacity, rows.shape[1]))
        data[:] = omega
        owner = np.repeat(np.arange(len(sizes)), sizes)
        first = np.cumsum(sizes) - sizes
        data[owner, np.arange(len(rows)) - first[owner]] = rows
        sq_norms = np.einsum("nkd,nkd->nk", data, data)
        return cls(data=data, sizes=sizes, sq_norms=sq_norms, omega=omega)

    def prefix(self, n: int) -> "PackedSets":
        """The first *n* sets, as views over the same buffers."""
        return PackedSets(
            data=self.data[:n],
            sizes=self.sizes[:n],
            sq_norms=self.sq_norms[:n],
            omega=self.omega,
        )

    def write_row(self, row: int, vectors: np.ndarray) -> None:
        """Overwrite set *row* in place with the ``(m, d)`` array
        *vectors* (``1 <= m <= capacity``), re-padding with omega; the
        row ends up bit for bit what :meth:`pack` would have made it."""
        block = self.data[row : row + 1]
        block[0, : len(vectors)] = vectors
        block[0, len(vectors) :] = self.omega
        self.sizes[row] = len(vectors)
        self.sq_norms[row] = np.einsum("nkd,nkd->nk", block, block)[0]

    def pad_query(self, query: np.ndarray | VectorSet) -> PaddedQuery:
        """Pad one query set to this layout (reusable across batches)."""
        arr = np.asarray(
            query.vectors if isinstance(query, VectorSet) else query, dtype=float
        )
        if arr.ndim != 2 or not len(arr) or arr.shape[1] != self.dimension:
            raise DistanceError(
                f"query is not a non-empty (m, {self.dimension}) array: {arr.shape}"
            )
        if len(arr) > self.capacity:
            raise DistanceError(
                f"query of size {len(arr)} exceeds packed capacity {self.capacity}"
            )
        data = np.empty((self.capacity, self.dimension))
        data[:] = self.omega
        data[: len(arr)] = arr
        return PaddedQuery(
            data=data, sq_norms=np.einsum("kd,kd->k", data, data), size=len(arr)
        )


# -- batched assignment -------------------------------------------------------


def ascending_sum(terms: np.ndarray) -> np.ndarray:
    """Sum along the last axis in ascending order, one term after
    another — the one summation of Definition 6's matched costs and of
    the bounds that must never exceed them.  Sorts *terms* in place.

    Sequential, unlike ``ndarray.sum``, whose grouping changes from
    eight terms on: with it, zero terms before the first non-zero one
    (the virtual-virtual pairs of omega padding) leave the float
    unchanged, so a distance does not depend on the packed capacity.
    Up to seven terms it is bit for bit what ``sum`` returns.
    """
    terms.sort(axis=-1)
    return np.add.accumulate(terms, axis=-1)[..., -1]


def hungarian_batch(costs: np.ndarray) -> np.ndarray:
    """Solve a ``(B, n, n)`` stack of square assignment problems, one
    :func:`scipy.optimize.linear_sum_assignment` call per problem.

    Returns the ``(B, n)`` integer array whose ``result[b, i]`` is the
    column assigned to row ``i`` of problem ``b``.  Which optimum a tied
    problem gets is the solver's choice; only its value is specified.
    """
    stack = np.asarray(costs, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise DistanceError(f"expected (B, n, n) cost stack, got {stack.shape}")
    if not np.all(np.isfinite(stack)):
        raise DistanceError("cost matrices must be finite")
    # Imported on the first solve: scipy.optimize is slow to import, and
    # a process that never solves (repro info, db init) need not pay it.
    from scipy.optimize import linear_sum_assignment

    # Square problems: the returned row indices are arange(n).
    columns = [linear_sum_assignment(matrix)[1] for matrix in stack]
    return np.array(columns, dtype=np.intp).reshape(stack.shape[:2])


# -- batched minimal matching -------------------------------------------------


def _cost_tensor(
    x_data: np.ndarray,
    x_sq: np.ndarray,
    y_data: np.ndarray,
    y_sq: np.ndarray,
    squared: bool = False,
) -> np.ndarray:
    """Stacked cross-distance matrices of omega-padded sets.

    ``x_data`` is ``(K, d)`` (one query, broadcast over the batch) or
    ``(C, K, d)``; ``y_data`` is ``(C, K, d)``.  Returns the C-contiguous
    ``(C, K, K)`` stack, ``x``'s rows first.  *squared* (pairs only)
    leaves the entries squared: Definition 4's element costs, and with
    ``ω = 0`` its dummy cost ``‖x‖²``.
    """
    if x_data.ndim == 2:
        # The stored sets' rows first: the layout einsum writes fastest,
        # with the dots of the x-first layout bit for bit.
        dots = np.einsum("cld,kd->clk", y_data, x_data)
        dots *= 2.0
        sq = y_sq[:, :, None] + x_sq
        sq -= dots
        np.maximum(sq, 0.0, out=sq)
        np.sqrt(sq, out=sq)
        return np.ascontiguousarray(sq.transpose(0, 2, 1))
    dots = np.einsum("ckd,cld->ckl", x_data, y_data)
    sq = x_sq[:, :, None] + y_sq[:, None, :] - 2.0 * dots
    np.maximum(sq, 0.0, out=sq)
    return sq if squared else np.sqrt(sq, out=sq)


def query_costs(
    query: PaddedQuery, packed: PackedSets, indices: np.ndarray | None = None
) -> np.ndarray:
    """The ``(len(indices), K, K)`` cost tensor from one padded query to
    the listed sets (default: all): the stack :func:`match_many` solves,
    for a caller that bounds it first (:func:`assignment_bounds`)."""
    rows = slice(None) if indices is None else np.asarray(indices, dtype=np.intp)
    return _cost_tensor(
        query.data, query.sq_norms, packed.data[rows], packed.sq_norms[rows]
    )


def assignment_bounds(cost: np.ndarray) -> np.ndarray:
    """A lower bound on every problem of a ``(B, K, K)`` cost stack that
    never exceeds the distance :func:`_finish` computes from the same
    entries — bit for bit, with no slack.

    Each row and each column of a perfect assignment is matched exactly
    once, so ``max(Σ row minima, Σ column minima)`` bounds the optimum
    (the dual-feasible bound of the assignment LP).  The minima are
    summed by :func:`ascending_sum`, as ``_finish`` sums the matched
    costs: the i-th smallest row (column) minimum is at most the i-th
    smallest matched cost, and a fixed float summation never decreases
    when a term grows.
    """
    # K - 1 elementwise minima over (B, K) slices: a minimum rounds
    # nothing, and NumPy reduces the short axes of .min(axis=...) slowly.
    rows = cost[:, :, 0].copy()
    columns = cost[:, 0, :].copy()
    for j in range(1, cost.shape[2]):
        np.minimum(rows, cost[:, :, j], out=rows)
        np.minimum(columns, cost[:, j, :], out=columns)
    return np.maximum(ascending_sum(rows), ascending_sum(columns))


def _solve(cost: np.ndarray, squared: bool = False):
    """Solve a cost stack: ``(distances, assignment)``.  With *squared*
    entries each distance is the root of their matched sum (§4.2)."""
    batch, capacity, _ = cost.shape
    assignment = hungarian_batch(cost)
    b_idx = np.arange(batch)[:, None]
    rows = np.arange(capacity)[None, :]
    # Ascending summation: optima that differ only in which of the
    # identical virtual rows / columns they use match the same cost
    # multiset, so the float does not depend on a solver's tie-breaking.
    distances = ascending_sum(cost[b_idx, rows, assignment])
    return (np.sqrt(distances) if squared else distances), assignment


def _finish(
    cost: np.ndarray,
    x_sizes: np.ndarray | None = None,
    y_sizes: np.ndarray | None = None,
    squared: bool = False,
):
    """Solve a cost stack and extract distances, and the identity flags
    too when the true cardinalities *x_sizes* / *y_sizes* are given."""
    distances, assignment = _solve(cost, squared)
    if x_sizes is None:
        return distances
    rows = np.arange(cost.shape[1])[None, :]
    # A pair is "real" when both endpoints are non-virtual; the matching
    # is the identity alignment when every real pair matches x_i to y_i.
    matched = (rows < x_sizes[:, None]) & (assignment < y_sizes[:, None])
    identity = matched.any(axis=1) & np.all(~matched | (assignment == rows), axis=1)
    return distances, identity


def match_many(
    query: np.ndarray | VectorSet | PaddedQuery,
    packed: PackedSets,
    indices: np.ndarray | None = None,
    return_flags: bool = False,
    costs: np.ndarray | None = None,
):
    """Minimal matching distances from one query to many packed sets.

    Parameters
    ----------
    query:
        ``(m, d)`` array, :class:`VectorSet`, or a
        :class:`PaddedQuery` from :meth:`PackedSets.pad_query` (reuse it
        to amortize padding across repeated calls for the same query).
    packed:
        The database, packed once via :meth:`PackedSets.pack`.
    indices:
        Optional subset of database indices (default: all sets).
    return_flags:
        Also return per-pair identity-alignment flags (Table 1).
    costs:
        The cost tensor of exactly these pairs, for a caller that
        already built it with :func:`query_costs` (default: built here).

    Returns
    -------
    ``(len(indices),)`` distances, or ``(distances, is_identity)``.
    """
    prepared = query if isinstance(query, PaddedQuery) else packed.pad_query(query)
    if costs is None:
        costs = query_costs(prepared, packed, indices)
    if not return_flags:
        return _finish(costs)
    y_sizes = packed.sizes if indices is None else packed.sizes[indices]
    x_sizes = np.full(len(y_sizes), prepared.size, dtype=np.intp)
    return _finish(costs, x_sizes, y_sizes)


def match_pairs(
    packed: PackedSets,
    i_idx: np.ndarray,
    j_idx: np.ndarray,
    right: PackedSets | None = None,
    return_flags: bool = False,
):
    """Minimal matching distances for explicit index pairs.

    ``right`` selects the ``j`` side from a second packed database (it
    must share capacity, dimension and omega); by default both indices
    address *packed*.  Used for pairwise matrices (``right=None``) and
    for many-queries-vs-database workloads.
    """
    if right is None:
        right = packed
    elif (
        right.capacity != packed.capacity
        or right.dimension != packed.dimension
        or not np.array_equal(right.omega, packed.omega)
    ):
        raise DistanceError("packed databases have incompatible layouts")
    i_idx = np.asarray(i_idx, dtype=np.intp)
    j_idx = np.asarray(j_idx, dtype=np.intp)
    if i_idx.shape != j_idx.shape or i_idx.ndim != 1:
        raise DistanceError("index arrays must be equal-length 1-D")
    return _match_pairs(packed, i_idx, j_idx, right, return_flags)


def _match_pairs(left, i_idx, j_idx, right, return_flags=False, squared=False):
    """:func:`match_pairs` on checked indices; *squared* is Definition 4."""
    cost = _cost_tensor(
        left.data[i_idx], left.sq_norms[i_idx], right.data[j_idx], right.sq_norms[j_idx],
        squared,
    )
    if not return_flags:
        return _finish(cost, squared=squared)
    return _finish(cost, left.sizes[i_idx], right.sizes[j_idx], squared)


def _solve_pair(x, y, capacity: int | None = None, squared: bool = False):
    """One pair on the pair path at *capacity* (default: the larger
    set's size): ``(distance, padded assignment)``, ``x``'s rows first."""
    packed = PackedSets.pack([x, y], capacity=capacity)
    distances, assignment = _solve(
        _cost_tensor(
            packed.data[:1], packed.sq_norms[:1], packed.data[1:], packed.sq_norms[1:],
            squared,
        ),
        squared,
    )
    return float(distances[0]), assignment[0]


# -- full pairwise matrices ---------------------------------------------------

def _pairwise_share(task):
    """One contiguous share of a matrix's pairs, ``DEFAULT_CHUNK_SIZE``
    per kernel call: ``(distances, is_identity flags)``."""
    packed, i_idx, j_idx, return_flags, squared = task
    distances = np.empty(len(i_idx))
    identity = np.zeros(len(i_idx), dtype=bool)
    for start in range(0, len(i_idx), DEFAULT_CHUNK_SIZE):
        chunk = slice(start, start + DEFAULT_CHUNK_SIZE)
        output = _match_pairs(
            packed, i_idx[chunk], j_idx[chunk], packed, return_flags, squared
        )
        distances[chunk], identity[chunk] = output if return_flags else (output, False)
    return distances, identity


def pairwise_matrix(
    sets: Sequence[np.ndarray | VectorSet],
    capacity: int | None = None,
    omega: np.ndarray | None = None,
    n_jobs: int | None = None,
    return_flags: bool = False,
):
    """Full symmetric minimal-matching distance matrix.

    Only the ``i < j`` half is computed (symmetric halving),
    ``DEFAULT_CHUNK_SIZE`` pairs per kernel call.  The calls split into
    one contiguous share per worker of ``n_jobs`` (``-1`` for all cores),
    never more shares than calls, run by :func:`repro.parallel.pool_map`;
    the packed tensor ships once per share, and every call covers the
    same pairs whatever the worker count.

    Returns the ``(n, n)`` matrix, or ``(matrix, flags)`` with the
    boolean proper-permutation flags (*not* identity-aligned — the
    Table 1 statistic) when ``return_flags`` is set.
    """
    packed = PackedSets.pack(sets, capacity=capacity, omega=omega)
    return _pairwise(packed, n_jobs, return_flags)


def _pairwise(packed, n_jobs, return_flags=False, squared=False):
    """:func:`pairwise_matrix` of a packed layout; *squared* is
    Definition 4 (:func:`repro.core.permutation.permutation_distance_matrix`)."""
    from repro.parallel import pool_map, resolve_n_jobs

    n = packed.n
    i_all, j_all = np.triu_indices(n, k=1)
    calls = -(-len(i_all) // DEFAULT_CHUNK_SIZE)
    shares = max(1, min(resolve_n_jobs(n_jobs), calls))
    cuts = [
        min(len(i_all), DEFAULT_CHUNK_SIZE * (calls * share // shares))
        for share in range(shares + 1)
    ]
    tasks = [
        (packed, i_all[lo:hi], j_all[lo:hi], return_flags, squared)
        for lo, hi in zip(cuts, cuts[1:])
    ]
    matrix = np.zeros((n, n))
    flags = np.zeros((n, n), dtype=bool) if return_flags else None
    for (_, i_idx, j_idx, *_), (distances, identity) in zip(
        tasks, pool_map(_pairwise_share, tasks, shares)
    ):
        matrix[i_idx, j_idx] = matrix[j_idx, i_idx] = distances
        if return_flags:  # proper permutation: the optimum is NOT the identity
            flags[i_idx, j_idx] = flags[j_idx, i_idx] = ~identity
    return (matrix, flags) if return_flags else matrix
