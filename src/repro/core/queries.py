"""Filter-and-refine query processing on vector set data (Section 4.3).

The engine stores one extended centroid per database object.  Queries
first rank/filter on the centroids — whose Euclidean distance, scaled by
``k``, lower-bounds the minimal matching distance (Lemma 2) — and only
refine surviving candidates with the exact O(k^3) matching distance:

* ε-range queries prune every object whose centroid is farther than
  ``ε / k`` from the query centroid (the paper's filter step),
* k-nn queries use the optimal multi-step algorithm of Seidl & Kriegel:
  candidates are consumed in ascending lower-bound order and the search
  stops as soon as the next lower bound exceeds the current k-th exact
  distance.

Refinement goes through the batched kernel of :mod:`repro.core.batch`:
the database lives in one omega-padded ``(n, k, d)`` tensor — packed at
construction, then maintained in place by ``add`` / ``replace`` /
``remove`` at a cost independent of ``n``.

**The refine cascade.**  A candidate's cost tensor exists before its
assignment problem is solved, and any perfect assignment on it costs at
least ``max(Σ row minima, Σ column minima)``
(:func:`~repro.core.batch.assignment_bounds`) — on a corpus whose
centroids all coincide, a far tighter bound than Lemma 2.  Every query
runs one loop, :meth:`FilterRefineEngine._cascade`, window by window
over a *candidate source*: the whole centroid column, or the rows given
to :meth:`~FilterRefineEngine.knn_refine_subset` (the Hamming shortlist
of :mod:`repro.approx`), whose centroid distances alone are computed:

1. *Pull* candidates from the source: while the pruning radius is
   unknown (fewer than k neighbours found), the next *block_size*;
   after that, every candidate whose centroid bound does not exceed the
   radius frozen at the end of the previous window.  A range query's
   radius is ε throughout.
2. *Bound* the window: one cost tensor, and per candidate the combined
   bound ``max(k * centroid distance, assignment bound)``.
3. *Solve* in blocks of *block_size*, in ascending ``(bound, oid)``
   order, re-testing the bounds against the current radius before each
   block: the first bound that strictly exceeds it ends the window.

The search ends at the first empty pull.  Every candidate whose combined
bound does not exceed the final k-th distance is solved — its centroid
bound never exceeds a radius the loop pulls with, and its bound never
exceeds one it solves with — so the answer is a sequential scan's of the
source, and a bound that ties the radius is still solved, which resolves
ties at the k-th distance canonically by ascending oid.  That takes a bound
that stays below the *computed* distance, not just the real one: the
assignment bound sums sorted minima in the shape the kernel sums sorted
matched costs, which makes it hold bit for bit (DESIGN.md).  What the
windows cost over the strictly sequential order is counted in
:attr:`QueryStats.extra_refinements`: candidates solved although their
bound exceeds the final k-th distance, tested against a radius that had
not shrunk to it yet.

The exact distance is the paper's: the minimal matching distance with
Euclidean element distance and the weight ``w(x) = ||x - omega||``,
the same omega as the centroids — exactly the precondition of Lemma 2.

The centroid ranking is one vectorised pass per query: the distance
from the query centroid to every source row of the centroid column, in
the float form an STR pack's leaf entries give it
(:func:`repro.index.arraycore._mindist_many` of a point box), so the
candidate stream is, bit for bit, a fresh pack's ``ranking_chunks``.
The cascade cuts each window straight from that column — a partition
while the radius is unknown, a mask under it after — and sorts only the
window (:class:`_Candidates`).  The paper's X-tree serves the same order
from disk pages; in memory the pass over the column is faster at every
size a workload runs (EXPERIMENTS.md).  The pack stays in
:mod:`repro.index` for the access-structure ablation and the tests that
hold this column to it; Table 2 runs on the X-tree.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.batch import (
    PackedSets,
    assignment_bounds,
    match_many,
    query_costs,
)
from repro.core.centroid import extended_centroid
from repro.core.vector_set import VectorSet
from repro.exceptions import InvariantError, QueryError
from repro.obs import registry, span
from repro.obs import querylog

#: Candidates solved per batched kernel call in the refine cascade; see
#: FilterRefineEngine(block_size=...).
DEFAULT_BLOCK_SIZE = 16


@dataclass
class QueryStats:
    """Work accounting for one similarity query.

    Attributes
    ----------
    candidates_ranked:
        Candidates produced by the filter step (centroid comparisons).
    exact_computations:
        Minimal-matching distances actually evaluated (the expensive
        O(k^3) refinements).
    pruned:
        Objects never refined, by either lower bound.
    extra_refinements:
        Refinements of candidates whose lower bound exceeds the final
        k-th distance: solved against a radius that had not shrunk to it
        yet — the price of refining in windows and blocks (always 0 for
        range queries).
    bound_pruned:
        Candidates whose cost tensor was built but whose assignment
        problem was never solved, because the cascade's combined bound
        excluded them (a subset of ``pruned``).
    """

    candidates_ranked: int = 0
    exact_computations: int = 0
    pruned: int = 0
    extra_refinements: int = 0
    bound_pruned: int = 0

    def as_dict(self) -> dict[str, int]:
        """Flat numeric mapping: feeds the metrics registry via
        ``registry().count_many(prefix, stats.as_dict())``."""
        return {
            "candidates_ranked": self.candidates_ranked,
            "exact_computations": self.exact_computations,
            "pruned": self.pruned,
            "extra_refinements": self.extra_refinements,
            "bound_pruned": self.bound_pruned,
        }

    def __str__(self) -> str:
        total = self.exact_computations + self.pruned
        return (
            f"ranked {self.candidates_ranked}, refined "
            f"{self.exact_computations}/{total} ({self.pruned} pruned, "
            f"{self.bound_pruned} by the assignment bound, "
            f"{self.extra_refinements} overshoot)"
        )


@dataclass(frozen=True)
class QueryMatch:
    """One result of a similarity query."""

    object_id: int
    distance: float


def _as_set(
    vectors: np.ndarray | VectorSet, dimension: int | None, capacity: int, label: str
) -> np.ndarray:
    """*vectors* as a non-empty ``(m <= capacity, dimension)`` float array."""
    arr = np.asarray(
        vectors.vectors if isinstance(vectors, VectorSet) else vectors, dtype=float
    )
    if (
        arr.ndim != 2
        or not len(arr)
        or (dimension is not None and arr.shape[1] != dimension)
    ):
        raise QueryError(f"{label} has incompatible shape {arr.shape}")
    if len(arr) > capacity:
        raise QueryError(f"{label} exceeds capacity {capacity}")
    return arr


def _doubled(buf: np.ndarray) -> np.ndarray:
    """*buf* copied into the front of a buffer with twice the rows."""
    grown = np.empty((2 * len(buf),) + buf.shape[1:], dtype=buf.dtype)
    grown[: len(buf)] = buf
    return grown


class _Candidates:
    """A candidate source's rows in ascending ``(centroid distance, oid)``
    order, taken from the front in windows.  Only a window is ever
    sorted: it is cut from the distance column by a partition (a window
    of at most *limit*) or a mask (the bounds within a radius), never
    from a sorted copy of the whole column.  *rows* maps the column's
    positions to engine rows (``None``: position ``i`` is row ``i``)."""

    def __init__(
        self, dists: np.ndarray, oids: np.ndarray, capacity: int, rows: np.ndarray | None
    ):
        self._dists = dists
        self._bounds = capacity * dists
        self._oids = oids
        self._rows = rows
        self._left = np.ones(len(dists), dtype=bool)  # rows not yet taken
        self._taken = 0
        self._rejected = False

    @property
    def ranked(self) -> int:
        """Candidates examined: every one taken, plus the one whose
        centroid bound ended the last window (pulled, then rejected)."""
        return self._taken + self._rejected

    def _smallest(self, rows: np.ndarray, limit: int) -> np.ndarray:
        """The *limit* of *rows* first in ``(distance, oid)`` order."""
        dists = self._dists[rows]
        kth = np.partition(dists, limit - 1)[limit - 1]
        below, tied = rows[dists < kth], rows[dists == kth]
        tied = tied[np.argsort(self._oids[tied])[: limit - len(below)]]
        return np.concatenate((below, tied))

    def take(self, limit: float, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """The longest prefix of at most *limit* candidates whose centroid
        bounds (``capacity`` x centroid distance) do not exceed *radius*,
        as ``(engine rows, centroid bounds)``."""
        # Bounds ascend with distances, so the rows within the radius are
        # a prefix of the stream.
        rows = np.flatnonzero(self._left & (self._bounds <= radius))
        if len(rows) > limit:
            rows = self._smallest(rows, int(limit))
            rejected = False
        else:
            # A candidate left past the radius ends the window early.
            rejected = len(rows) < min(limit, len(self._dists) - self._taken)
        if len(rows):
            rows = rows[np.lexsort((self._oids[rows], self._dists[rows]))]
            self._rejected = False  # the candidate rejected before, if any
            self._left[rows] = False
            self._taken += len(rows)
        self._rejected |= rejected
        return (rows if self._rows is None else self._rows[rows]), self._bounds[rows]


class FilterRefineEngine:
    """Answer ε-range and k-nn queries over a collection of vector sets.

    Parameters
    ----------
    sets:
        The database: a sequence of ``(m_i, d)`` arrays or
        :class:`VectorSet` objects — or an already packed
        :class:`~repro.core.batch.PackedSets`, which the engine adopts
        without copying (and from then on owns: mutations write into it).
    capacity:
        The cardinality bound ``k`` shared by all sets.
    omega:
        Reference point of the extended centroids (default: origin; a
        :class:`~repro.core.batch.PackedSets` brings its own).
    block_size:
        Candidates solved per batched kernel call in the refine cascade,
        and the size of its windows while the k-th distance is unknown.
        Larger blocks amortize the solver dispatch better but test the
        bounds against the shrinking radius less often; answers do not
        depend on it.
    oids:
        External object ids, one per set (default: positions
        ``0..n-1``).  Results carry them, so a mutable database keeps
        sparse ids after deletions without renumbering.  Ties in the
        centroid ranking and in k-nn results resolve canonically by
        ascending oid, matching the index layer's convention.
    centroids:
        The ``(n, d)`` extended centroids of *sets*, for a caller that
        already holds them (default: computed here, one
        :func:`extended_centroid` per set).  They are trusted, not
        re-derived.
    codes:
        An ``(n, words)`` uint64 column of per-object codes carried
        row-aligned beside the sets — the packed sketches of
        :mod:`repro.approx` — or ``None`` (default) for an engine
        without one.  Like *centroids*, trusted; with a column, every
        :meth:`add` and :meth:`replace` takes the object's code.

    **Mutation.**  :meth:`add`, :meth:`replace` and :meth:`remove` keep
    the packed tensor, the squared norms, the centroid table, the code
    column and the oid column current in place, in buffers that double
    when full;
    ``remove`` moves the last row into the hole, so the live rows stay a
    dense prefix and nothing is ever compacted.  Rows are therefore in no
    particular order, and nothing observable depends on it: every answer
    is ranked by ``(distance, oid)``, and :meth:`digest` proves the
    contents equal a from-scratch build's.

    **Locking.**  The engine takes no lock of its own.  The mutation
    methods need the caller's *exclusive* lock (no query in flight); a
    query needs at least a shared one for its whole duration.  Arrays the
    engine hands out (:attr:`oids`, :attr:`centroids`, :attr:`codes`) are
    views of the live buffers, overwritten by the next mutation: none may
    outlive the lock it was read under.
    """

    def __init__(
        self,
        sets: Sequence[np.ndarray | VectorSet] | PackedSets,
        capacity: int,
        omega: np.ndarray | None = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        oids: Sequence[int] | None = None,
        centroids: np.ndarray | None = None,
        codes: np.ndarray | None = None,
    ):
        if capacity < 1:
            raise QueryError("capacity must be >= 1")
        if block_size < 1:
            raise QueryError("block_size must be >= 1")
        self.capacity = capacity
        self.block_size = block_size
        if not len(sets):
            raise QueryError("database must not be empty")
        if isinstance(sets, PackedSets):
            if sets.capacity != capacity or (
                omega is not None and not np.array_equal(omega, sets.omega)
            ):
                raise QueryError("packed sets were built for another capacity or omega")
            store = sets
        else:
            arrays: list[np.ndarray] = []
            dimension = None
            for i, vectors in enumerate(sets):
                arrays.append(_as_set(vectors, dimension, capacity, f"set {i}"))
                dimension = arrays[0].shape[1]
            store = PackedSets.from_ragged(
                np.concatenate(arrays),
                np.fromiter(map(len, arrays), dtype=np.intp, count=len(arrays)),
                capacity,
                np.zeros(dimension) if omega is None else omega,
            )
        n = store.n
        self.dimension = store.dimension
        self.omega = store.omega
        if oids is None:
            oid_column = np.arange(n, dtype=np.int64)
        else:
            oid_column = np.array(oids, dtype=np.int64)
            if oid_column.shape != (n,):
                raise QueryError(f"{len(oids)} oids for {n} sets")
        # Row buffers, all indexed alike; rows [0, _n) are live.  _store
        # spans the buffers, _packed is the live prefix the kernel sees.
        self._n = n
        self._store = store
        self._packed = store
        self._oid_buf = oid_column
        self._row_of = dict(zip(oid_column.tolist(), range(n)))
        if len(self._row_of) != n:
            raise QueryError("object ids must be unique")
        if centroids is None:
            self._centroid_buf = self._centroids_of(store)
        else:
            self._centroid_buf = np.array(centroids, dtype=float)
            if self._centroid_buf.shape != (n, self.dimension):
                raise QueryError(
                    f"centroids have shape {self._centroid_buf.shape}, "
                    f"expected {(n, self.dimension)}"
                )
        self._code_buf = None
        if codes is not None:
            self._code_buf = np.array(codes, dtype=np.uint64)
            if self._code_buf.ndim != 2 or len(self._code_buf) != n:
                raise QueryError(f"codes have shape {self._code_buf.shape} for {n} sets")

    # -- contents ----------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def oids(self) -> np.ndarray:
        """External object ids in row order (a view; see *Locking*)."""
        return self._oid_buf[: self._n]

    @property
    def centroids(self) -> np.ndarray:
        """Extended centroids, row-aligned with :attr:`oids` (a view)."""
        return self._centroid_buf[: self._n]

    @property
    def codes(self) -> np.ndarray | None:
        """The code column, row-aligned with :attr:`oids` (a view), or
        ``None`` for an engine without one."""
        return None if self._code_buf is None else self._code_buf[: self._n]

    def __contains__(self, oid: int) -> bool:
        return oid in self._row_of

    def _row(self, oid: int) -> int:
        row = self._row_of.get(int(oid))
        if row is None:
            raise QueryError(f"no object with id {oid}")
        return row

    def get(self, oid: int) -> np.ndarray:
        """An owned copy of the unpadded set stored under *oid*."""
        row = self._row(oid)
        return self._store.data[row, : self._store.sizes[row]].copy()

    def ragged(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Everything stored, as owned arrays in ascending-oid order:
        ``(oids, offsets, rows, centroids)`` — the unpadded sets back to
        back in *rows*, set ``i`` being ``rows[offsets[i]:offsets[i + 1]]``
        (what :meth:`PackedSets.from_ragged` takes, and the layout the
        database snapshots carry)."""
        order = np.argsort(self.oids)
        packed = self._packed
        sizes = packed.sizes[order]
        offsets = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        live = np.arange(self.capacity) < sizes[:, None]
        return self.oids[order], offsets, packed.data[order][live], self.centroids[order]

    @classmethod
    def joined(cls, engines: Sequence["FilterRefineEngine"]) -> "FilterRefineEngine":
        """One engine holding the live rows of *engines* back to back, as
        they lie: row order is unobservable (see *Mutation*).  The
        engines share capacity, ω, block size and whether they carry a
        code column, and no object id."""
        first = engines[0]
        stores = [engine._packed for engine in engines]
        packed = PackedSets(
            data=np.concatenate([store.data for store in stores]),
            sizes=np.concatenate([store.sizes for store in stores]),
            sq_norms=np.concatenate([store.sq_norms for store in stores]),
            omega=first.omega,
        )
        return cls(
            packed,
            capacity=first.capacity,
            block_size=first.block_size,
            oids=np.concatenate([engine.oids for engine in engines]),
            centroids=np.concatenate([engine.centroids for engine in engines]),
            codes=None if first.codes is None else np.concatenate(
                [engine.codes for engine in engines]
            ),
        )

    def digest(self) -> str:
        """SHA-256 over everything the engine stores per object — oid,
        cardinality, padded rows, squared norms, centroid — taken in
        ascending-oid order (:meth:`ragged`'s), so an incrementally
        maintained engine and a from-scratch build of the same contents
        hash alike."""
        order = np.argsort(self.oids)
        packed = self._packed
        hasher = hashlib.sha256(
            f"{self._n}:{self.capacity}:{self.dimension}".encode()
        )
        for column in (
            self.oids, packed.sizes, packed.data, packed.sq_norms, self.centroids
        ):
            hasher.update(column[order].tobytes())
        return hasher.hexdigest()

    def _centroids_of(self, packed: PackedSets) -> np.ndarray:
        """One :func:`extended_centroid` per packed set, row-aligned."""
        return np.vstack(
            [
                extended_centroid(block[:size], self.capacity, self.omega)
                for block, size in zip(packed.data, packed.sizes)
            ]
        )

    def check_invariants(self) -> None:
        """The row buffers against each other: the ``oid -> row`` map is a
        bijection onto the live rows, every padded tail holds omega, and
        the squared norms and the centroid of each row are bit for bit
        those of its set.  Raises :class:`InvariantError` naming the
        first disagreement."""
        packed, oids = self._packed, self.oids.tolist()
        if len(self._row_of) != self._n or any(
            self._row_of.get(oid) != row for row, oid in enumerate(oids)
        ):
            raise InvariantError(
                "engine oid -> row map is not a bijection onto the live rows"
            )
        tail = np.arange(self.capacity) >= packed.sizes[:, None]
        for fault, cells in (
            ("padded tail of object {} is not omega",
             (packed.data != self.omega).any(axis=2) & tail),
            ("squared norms of object {} are stale",
             packed.sq_norms != np.einsum("nkd,nkd->nk", packed.data, packed.data)),
            ("stored centroid of object {} is not the extended centroid of its set",
             self.centroids != self._centroids_of(packed)),
        ):
            if cells.any():
                raise InvariantError(fault.format(oids[int(cells.any(axis=1).argmax())]))

    # -- mutation ----------------------------------------------------------

    def _buffers(self) -> tuple[np.ndarray, ...]:
        store = self._store
        codes = () if self._code_buf is None else (self._code_buf,)
        return (
            store.data, store.sizes, store.sq_norms, self._centroid_buf, self._oid_buf,
            *codes,
        )

    def _checked(self, vectors, centroid, code) -> tuple[np.ndarray, ...]:
        """Validated ``(set, centroid, code)`` of one mutation; every
        rejection happens here, before a buffer is touched."""
        arr = _as_set(vectors, self.dimension, self.capacity, "set")
        if centroid is None:
            centroid = extended_centroid(arr, self.capacity, self.omega)
        elif np.shape(centroid) != (self.dimension,):
            raise QueryError(f"centroid has shape {np.shape(centroid)}")
        if self._code_buf is None:
            if code is not None:
                raise QueryError("this engine carries no code column")
        elif np.shape(code) != self._code_buf.shape[1:]:
            raise QueryError(
                f"code has shape {np.shape(code)}, expected {self._code_buf.shape[1:]}"
            )
        return arr, centroid, code

    def _write(self, row: int, arr: np.ndarray, centroid: np.ndarray, code) -> None:
        self._store.write_row(row, arr)
        self._centroid_buf[row] = centroid
        if code is not None:
            self._code_buf[row] = code

    def add(
        self,
        oid: int,
        vectors: np.ndarray | VectorSet,
        centroid: np.ndarray | None = None,
        code: np.ndarray | None = None,
    ) -> None:
        """Append one set under the new id *oid*; *centroid* is its
        extended centroid when the caller already computed it, *code* its
        row of the code column (required exactly when there is one)."""
        oid = int(oid)
        if oid in self._row_of:
            raise QueryError(f"object id {oid} already present")
        checked = self._checked(vectors, centroid, code)
        row = self._n
        if row == len(self._oid_buf):
            data, sizes, sq_norms, self._centroid_buf, self._oid_buf, *codes = (
                _doubled(buf) for buf in self._buffers()
            )
            self._store = PackedSets(data, sizes, sq_norms, self.omega)
            if codes:
                self._code_buf = codes[0]
        self._write(row, *checked)
        self._oid_buf[row] = oid
        self._row_of[oid] = row
        self._n = row + 1
        self._packed = self._store.prefix(self._n)

    def replace(
        self,
        oid: int,
        vectors: np.ndarray | VectorSet,
        centroid: np.ndarray | None = None,
        code: np.ndarray | None = None,
    ) -> None:
        """Overwrite the set (and code) stored under *oid* in its row."""
        self._write(self._row(oid), *self._checked(vectors, centroid, code))

    def remove(self, oid: int) -> None:
        """Drop the set stored under *oid*: the last live row moves into
        its place.  An engine is never empty, so the last object cannot
        be removed — discard the engine instead."""
        oid = int(oid)
        row = self._row(oid)
        last = self._n - 1
        if not last:
            raise QueryError("cannot remove the only object of an engine")
        del self._row_of[oid]
        if row != last:
            for buf in self._buffers():
                buf[row] = buf[last]
            self._row_of[int(self._oid_buf[row])] = row
        self._n = last
        self._packed = self._store.prefix(last)

    # -- filter step -------------------------------------------------------

    def _candidates(
        self, query_centroid: np.ndarray, rows: np.ndarray | None = None
    ) -> _Candidates:
        """The candidate stream of one query: the distance from
        *query_centroid* to every stored centroid, or to those of *rows*.

        ``|c - q|`` is exactly what ``_mindist_many`` of the point box
        ``[c, c]`` sums per coordinate (``max(c - q, 0) + max(q - c, 0)``,
        float subtraction being sign-symmetric), squared and summed per
        row, so every distance is bit for bit the one a pack's leaf entry
        gives, whichever rows are asked for."""
        if rows is None:
            centroids, oids = self.centroids, self.oids
        else:
            centroids, oids = self._centroid_buf[rows], self._oid_buf[rows]
        diff = centroids - query_centroid
        dists = np.sqrt(np.sum(diff * diff, axis=1))
        return _Candidates(dists, oids, self.capacity, rows)

    # -- refinement --------------------------------------------------------

    def _query_array(self, query: np.ndarray | VectorSet) -> np.ndarray:
        arr = np.asarray(
            query.vectors if isinstance(query, VectorSet) else query, dtype=float
        )
        if arr.ndim != 2 or arr.shape[1] != self.dimension:
            raise QueryError(f"query set has incompatible shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise QueryError("query set must be finite")
        return arr

    def _refine_many(
        self, prepared, rows: Sequence[int], costs: np.ndarray | None = None
    ) -> np.ndarray:
        """Exact distances from the padded query *prepared* (padded once
        per query, reused across all its blocks) to the sets in the
        given rows; *costs* is their cost tensor when already built."""
        return match_many(
            prepared, self._packed, indices=np.asarray(rows, dtype=np.intp), costs=costs
        )

    def _cascade(
        self,
        query_arr: np.ndarray,
        stats: QueryStats,
        radius: Callable[[], float],
        accept: Callable[[np.ndarray, np.ndarray], None],
        rows: np.ndarray | None = None,
    ) -> tuple[float, int]:
        """The refine cascade of the module notes over every row, or over
        *rows* (distinct) only.  *radius* reports the current pruning radius
        (``inf`` while it is unknown); *accept* takes every solved block
        as ``(oids, exact distances)``.  Fills in *stats* and returns
        ``(refine seconds, solve blocks)``."""
        center = extended_centroid(query_arr, self.capacity, self.omega)
        prepared = self._packed.pad_query(query_arr)
        stream = self._candidates(center, rows)
        solved: list[np.ndarray] = []  # the bounds of every solved candidate
        seconds, blocks = 0.0, 0
        while True:
            frozen = radius()
            limit = self.block_size if frozen == np.inf else np.inf
            rows, centroid_bounds = stream.take(limit, frozen)
            if not len(rows):
                break
            with span("query.refine", candidates=len(rows)) as rsp:
                oids = self._oid_buf[rows]
                costs = query_costs(prepared, self._packed, rows)
                bounds = np.maximum(centroid_bounds, assignment_bounds(costs))
                order = np.lexsort((oids, bounds))
                done = 0
                while done < len(order):
                    block = order[done : done + self.block_size]
                    # Ascending order: the first bound past the radius
                    # ends the window.
                    current = radius()
                    if bounds[block[-1]] > current:
                        block = block[: int(np.argmax(bounds[block] > current))]
                        if not len(block):
                            break
                    registry().histogram("query.block_candidates").observe(len(block))
                    exacts = self._refine_many(prepared, rows[block], costs[block])
                    accept(oids[block], exacts)
                    solved.append(bounds[block])
                    blocks += 1
                    done += len(block)
            seconds += rsp.seconds
            stats.exact_computations += done
            stats.bound_pruned += len(order) - done
        stats.candidates_ranked = stream.ranked
        stats.pruned = self._n - stats.exact_computations
        if solved:
            stats.extra_refinements = int((np.concatenate(solved) > radius()).sum())
        return seconds, blocks

    # -- telemetry ---------------------------------------------------------

    def _record_query(
        self,
        kind: str,
        stats: QueryStats,
        *,
        seconds: float = 0.0,
        refine_seconds: float = 0.0,
        blocks: int = 0,
        **extra,
    ) -> None:
        """Per-query telemetry: registry counters + one wide event.

        Delegates to :func:`repro.obs.querylog.record_query`, which
        always accounts the counters and — subject to sampling / the
        slow-query threshold — emits one ``query`` record carrying
        exactly the fields of ``stats.as_dict()`` (so trace consumers
        see the same numbers the caller gets back) plus phase timings
        and whatever context the database layer contributed.
        """
        querylog.record_query(
            kind,
            stats.as_dict(),
            self._n,
            seconds=seconds,
            refine_seconds=refine_seconds,
            blocks=blocks,
            **extra,
        )

    # -- queries -----------------------------------------------------------

    def range_query(
        self,
        query: np.ndarray | VectorSet,
        epsilon: float,
    ) -> tuple[list[QueryMatch], QueryStats]:
        """All objects within minimal matching distance *epsilon*.

        The refine cascade (module notes) with ε as its fixed radius:
        only candidates whose centroid bound (Lemma 2) and then whose
        combined bound do not exceed ε are solved.
        """
        if not epsilon >= 0:  # also rejects NaN
            raise QueryError("epsilon must be non-negative")
        stats = QueryStats()
        with span("query.range", epsilon=epsilon) as sp:
            oids: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
            exacts: list[np.ndarray] = [np.empty(0)]

            def accept(block_oids: np.ndarray, block_exacts: np.ndarray) -> None:
                within = block_exacts <= epsilon
                oids.append(block_oids[within])
                exacts.append(block_exacts[within])

            refine_seconds, blocks = self._cascade(
                self._query_array(query), stats, lambda: epsilon, accept
            )
            results = self._nearest_of(np.concatenate(oids), np.concatenate(exacts))
            sp.set(results=len(results))
        self._record_query(
            "range",
            stats,
            seconds=sp.seconds,
            refine_seconds=refine_seconds,
            blocks=blocks,
            epsilon=epsilon,
            results=len(results),
        )
        return results, stats

    def knn_query(
        self,
        query: np.ndarray | VectorSet,
        n_neighbors: int,
    ) -> tuple[list[QueryMatch], QueryStats]:
        """The *n_neighbors* nearest objects by minimal matching distance.

        Optimal multi-step k-nn (Seidl & Kriegel 1998) through the refine
        cascade (module notes), whose pruning radius is the current k-th
        exact distance.  Every object whose lower bound does not exceed
        the final k-th distance is solved, so ties at the k-th distance
        resolve canonically by ascending object id (an object with a
        strictly greater bound can never tie, since its exact distance
        is at least the bound), and results are independent of the
        order in which the cascade solves them.
        """
        if n_neighbors < 1:
            raise QueryError("n_neighbors must be >= 1")
        return self._knn(self._query_array(query), n_neighbors)

    def _knn(
        self, query_arr: np.ndarray, n_neighbors: int, rows: np.ndarray | None = None
    ) -> tuple[list[QueryMatch], QueryStats]:
        """The k-nn cascade over every row (``knn``) or over *rows* only
        (``knn_subset``), its telemetry recorded."""
        kind = "knn" if rows is None else "knn_subset"
        stats = QueryStats()
        with span(f"query.{kind}", k=n_neighbors) as sp:
            # Max-heap over (distance, oid) via negation: heap[0] is the
            # current k-th candidate, the first to be displaced.
            heap: list[tuple[float, int]] = []

            def radius() -> float:
                return -heap[0][0] if len(heap) == n_neighbors else np.inf

            def accept(oids: np.ndarray, exacts: np.ndarray) -> None:
                for oid, exact in zip(oids.tolist(), exacts.tolist()):
                    if len(heap) < n_neighbors:
                        heapq.heappush(heap, (-exact, -oid))
                    elif (exact, oid) < (-heap[0][0], -heap[0][1]):
                        heapq.heapreplace(heap, (-exact, -oid))

            refine_seconds, blocks = self._cascade(
                query_arr, stats, radius, accept, rows
            )
            if rows is not None:
                # The caller's filter ranked the subset.
                stats.candidates_ranked = len(rows)
            results = [QueryMatch(-neg_oid, -neg_dist) for neg_dist, neg_oid in heap]
            results.sort(key=lambda match: (match.distance, match.object_id))
            sp.set(results=len(results))
        self._record_query(
            kind,
            stats,
            seconds=sp.seconds,
            refine_seconds=refine_seconds,
            blocks=blocks,
            k=n_neighbors,
        )
        return results, stats

    @staticmethod
    def _nearest_of(
        oids: np.ndarray, exacts: np.ndarray, limit: int | None = None
    ) -> list[QueryMatch]:
        """Refined objects as matches in the canonical ``(distance,
        oid)`` order, cut to the *limit* closest."""
        order = np.lexsort((oids, exacts))[:limit]
        return [QueryMatch(int(oids[idx]), float(exacts[idx])) for idx in order]

    def knn_sequential(
        self, query: np.ndarray | VectorSet, n_neighbors: int
    ) -> tuple[list[QueryMatch], QueryStats]:
        """Baseline without the filter: exact distance to every object
        (the "Vect. Set seq. scan" row of Table 2), evaluated through
        the batched kernel in database order."""
        if n_neighbors < 1:
            raise QueryError("n_neighbors must be >= 1")
        n = self._n
        stats = QueryStats(candidates_ranked=n, exact_computations=n)
        with span("query.scan", k=n_neighbors) as sp:
            exacts = match_many(self._query_array(query), self._packed)
            results = self._nearest_of(self.oids, exacts, n_neighbors)
        # No filter step: the whole scan is refinement, one kernel call.
        self._record_query(
            "scan",
            stats,
            seconds=sp.seconds,
            refine_seconds=sp.seconds,
            blocks=1,
            k=n_neighbors,
        )
        return results, stats

    def knn_refine_subset(
        self,
        query: np.ndarray | VectorSet,
        n_neighbors: int,
        oids: Sequence[int] | np.ndarray,
    ) -> tuple[list[QueryMatch], QueryStats]:
        """Exact k-nn restricted to an explicit candidate subset.

        The k-nn cascade of :meth:`knn_query` with the listed objects —
        e.g. the Hamming shortlist of :mod:`repro.approx` — as its
        candidate source, so it answers what solving every one of them
        would, in the canonical ``(distance, oid)`` order.  The stats are
        the cascade's, but ``candidates_ranked`` counts the listed
        objects.  Unknown or repeated oids raise :class:`QueryError`
        before anything is solved.
        """
        if n_neighbors < 1:
            raise QueryError("n_neighbors must be >= 1")
        query_arr = self._query_array(query)
        oids = np.asarray(oids, dtype=np.int64)
        try:
            rows = np.fromiter(
                map(self._row_of.__getitem__, oids.tolist()),
                dtype=np.intp,
                count=len(oids),
            )
        except KeyError as exc:
            raise QueryError(f"unknown object id {exc.args[0]}") from None
        if len(np.unique(rows)) != len(rows):
            raise QueryError("object ids must be unique")
        return self._knn(query_arr, n_neighbors, rows)
