"""Mutable similarity database: add/remove/update without a rebuild.

The paper's architecture (Section 4.3) is static: extract features for
the whole collection, build an X-tree over the extended centroids, and
serve filter/refine queries.  :class:`SimilarityDatabase` makes the
same pipeline *mutable* — objects flow through extraction → feature
cache → centroid and sketch computation → the refinement engine's rows
— without ever serving stale candidates and without a mutation paying
for a rebuild of anything it did not touch:

* **Mutations** (``add``/``add_grid``/``remove``/``update``) take the
  write side of a :class:`repro.concurrency.RWLock`, bump a version
  counter, and record the object in the engine's rows.
  An object may carry a payload of string identity
  fields (:func:`~repro.db.storage.check_payload`), kept beside it
  until it is removed.
* **Queries** (``knn_query``/``range_query``) take the read side, so
  any number of threads can query concurrently while mutations wait;
  each query observes exactly one database version
  (:meth:`read_view` exposes that version for consistency testing) and
  writes no database state — not even a cache.
* **The refinement engine is the object store.**  Every set, its
  extended centroid and its sketch code live once, in the row buffers
  of one :class:`~repro.core.queries.FilterRefineEngine`: the first ``add``
  creates it (under the write lock), ``load`` packs it with one ragged
  scatter (before the database is shared), and from then on every
  ``add`` / ``update`` / ``remove`` writes its one row under the write
  lock it already holds, at a cost independent of the database size.
  Only emptying the database drops the engine, so no reader can ever
  race a build.
* **The index is the engine's centroid column.**  A query ranks the
  stored extended centroids with one vectorised distance pass over the
  engine's centroid rows and cuts its refine windows from it
  (:class:`~repro.core.queries.FilterRefineEngine`), in the canonical
  ``(distance, oid)`` order of a fresh STR pack — so a mutation has no
  index of its own to maintain, and nothing is ever packed, in memory
  or on disk.
  :meth:`SimilarityDatabase.engine_digest`,
  :meth:`SimilarityDatabase.index_digest`,
  :meth:`SimilarityDatabase.sketch_digest` and
  :meth:`SimilarityDatabase.check_invariants` prove the maintained
  state equal to a from-scratch build.
* **The sketch tier is the engine's code column.**  An approximate
  query Hamming-ranks the engine's codes through a
  :class:`~repro.approx.hamming.HammingIndex` view built for that
  query, so the tier has no store, no upkeep and no rebuild of its own.
* **Persistence** (``save``/``checkpoint``/``load``) is
  :mod:`repro.db.storage`, called with the lock already held: a
  snapshot file holds the object store (sketch codes included) and the
  payloads, so a restarted process answers its first query with zero
  rebuild work.  With ``durable=True`` every mutation is appended to the
  write-ahead log of :mod:`repro.wal` *before* it is applied (under the
  write lock), ``save()`` becomes a checkpoint, and ``load()`` the
  recovery ladder; :attr:`last_recovery` reports which rung served.

Because every ranking breaks distance ties canonically by ascending
object id, answers and :class:`~repro.core.queries.QueryStats` never
depend on the order of the engine's rows.

There is one index, so there is no backend to choose: ``backend=``
accepts ``"xtree"`` alone and stores nothing.  Layouts that recorded
``"xtree"``, ``"scan"``, ``"rstar"`` or ``"mtree"`` open alike (their
index members are not read); the pointer trees stay in
:mod:`repro.index` for Table 2 and the ablations.
"""

from __future__ import annotations

import hashlib
import numbers
import operator
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from repro.approx import ApproxFilterRefineEngine, SetSketcher
from repro.concurrency import RWLock
from repro.core.centroid import extended_centroid
from repro.core.queries import (
    DEFAULT_BLOCK_SIZE,
    FilterRefineEngine,
    QueryMatch,
    QueryStats,
)
from repro.core.vector_set import VectorSet
from repro.db import storage
from repro.db.storage import DEFAULT_KEEP_GENERATIONS, check_payload
from repro.exceptions import InvariantError, QueryError, StorageError
from repro.obs import querylog, registry

#: The magnitude domain of a stored or query set: every coordinate
#: satisfies ``|x| <= MAGNITUDE_BOUND``.  Within it every Gram entry,
#: centroid distance and sketch activation the kernels compute stays
#: finite for any dimension and capacity an array can index, with a
#: factor of at least 1e88 to spare (DESIGN.md "The magnitude domain").
MAGNITUDE_BOUND = 1e100


class DatabaseView:
    """A consistent read view: queries against one database version.

    Created by :meth:`SimilarityDatabase.read_view`; the read lock is
    held for the lifetime of the ``with`` block, so :attr:`version` and
    every query result belong to the same database state.  (A sharded
    database views its pinned shards' join the same way, under their
    read locks.)
    """

    def __init__(self, db: "SimilarityDatabase"):
        self._db = db
        self.version = db._version
        self.size = len(db)

    def knn_query(
        self,
        query,
        n_neighbors: int,
        *,
        mode: str = "exact",
        shortlist: int | None = None,
    ):
        arr = self._db._checked_query(
            query, n_neighbors=n_neighbors, mode=mode, shortlist=shortlist
        )
        return self._knn(arr, n_neighbors, mode, shortlist)

    def range_query(self, query, epsilon: float):
        return self._range(self._db._checked_query(query, epsilon=epsilon), epsilon)

    # Trusted-input forms: *arr* and the arguments already passed
    # ``_checked_query`` (at the database boundary, before the lock).

    def _knn(self, arr, n_neighbors, mode="exact", shortlist=None):
        if mode == "approx":
            return self._db._approx_knn_locked(arr, n_neighbors, shortlist)
        return self._db._knn_locked(arr, n_neighbors)

    def _range(self, arr, epsilon):
        return self._db._range_locked(arr, epsilon)


_NOT_GIVEN = object()


def _integral(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise QueryError(f"{name} must be an integer, got {value!r}") from None


def _at_least(name: str, value, low: int) -> int:
    value = _integral(name, value)
    if value < low:
        raise QueryError(f"{name} must be >= {low}")
    return value


def _check_domain(arr: np.ndarray, what: str, entries: str) -> None:
    """Refuse *arr* unless every entry is inside the magnitude domain."""
    if not (np.abs(arr) <= MAGNITUDE_BOUND).all():
        if not np.isfinite(arr).all():
            raise QueryError(f"{what} must be finite")
        raise QueryError(
            f"{entries} beyond ±{MAGNITUDE_BOUND:g} make matching costs not finite"
        )


def check_omega(omega) -> np.ndarray | None:
    """The ``omega=`` keyword of both database classes: ``None`` (the
    origin) or a vector inside the magnitude domain, since ω pads every
    stored set and query; else :class:`QueryError`, before anything is
    written."""
    if omega is None:
        return None
    try:
        arr = np.asarray(omega, dtype=float)
    except (TypeError, ValueError):
        raise QueryError(f"omega must be a vector of numbers, got {omega!r}") from None
    if arr.ndim != 1:
        raise QueryError(f"omega must be a vector, got shape {arr.shape}")
    _check_domain(arr, "omega", "omega entries")
    return arr


def check_backend(backend) -> None:
    """The ``backend=`` keyword of both database classes: ``"xtree"``,
    the one index there is, else :class:`QueryError`."""
    if not isinstance(backend, str) or backend != "xtree":
        raise QueryError(f"unknown backend {backend!r}; the one backend is 'xtree'")


def check_object_id(oid) -> int:
    """The one object-id check of every database entry point that takes
    one (plain and sharded): integral and within int64 — what the
    snapshots, the sketch tier, the WAL records and the shard routing
    store — else :class:`QueryError`, before any lock or log record."""
    oid = _integral("object id", oid)
    if not -(2**63) <= oid < 2**63:
        raise QueryError(f"object id {oid} does not fit in 64 bits")
    return oid


def check_query_args(
    *,
    n_neighbors=_NOT_GIVEN,
    epsilon=_NOT_GIVEN,
    mode: str = "exact",
    shortlist: int | None = None,
) -> None:
    """The one argument check of every database query (plain, view,
    sharded): anything it rejects raises :class:`QueryError` before a
    lock is taken or a kernel sees it."""
    if mode not in ("exact", "approx"):
        raise QueryError(f"unknown query mode {mode!r}")
    if shortlist is not None:
        if mode == "exact":
            raise QueryError("shortlist is only meaningful with mode='approx'")
        if _integral("shortlist", shortlist) < 1:
            raise QueryError("shortlist budget must be >= 1")
    if n_neighbors is not _NOT_GIVEN and _integral("n_neighbors", n_neighbors) < 1:
        raise QueryError("n_neighbors must be >= 1")
    if epsilon is not _NOT_GIVEN and not (
        isinstance(epsilon, numbers.Real) and 0 <= epsilon < np.inf
    ):
        raise QueryError("epsilon must be a finite, non-negative number")


class SimilarityDatabase:
    """A mutable collection of vector sets with incremental indexing.

    Parameters
    ----------
    capacity:
        The cardinality bound ``k`` shared by all sets (Definition 8).
    backend:
        ``"xtree"``, the only value (:func:`check_backend`); stored
        nowhere.  Every query ranks the filter step's candidates with one
        vectorised pass over the engine's centroid rows.
    omega:
        Reference point for extended centroids and matching weights
        (default: origin).
    block_size:
        Refinement block size, forwarded to :class:`FilterRefineEngine`.
    model / pipeline / cache:
        Feature model (e.g. :class:`VectorSetModel`), normalization
        pipeline and feature cache used by :meth:`add_grid`.  Optional —
        :meth:`add` with pre-extracted sets needs none of them.
    durable / path / fsync / keep_generations / source:
        ``durable=True`` creates a write-ahead-logged database in the
        directory *path* (which must not already hold one — recover an
        existing one with :meth:`load`).  *fsync* is the WAL flush
        policy (``"always"``, ``"none"``, ``"every-N"`` or an int);
        *keep_generations* controls how many snapshot generations stay
        on disk for the recovery ladder; *source* optionally names a
        snapshot file (``.npz`` or dense, saved by :meth:`save`) with the
        same capacity, whose objects, oids and payloads the ladder's
        last rung re-adds when nothing else recovers (only with
        ``durable=True``); a relative *source* is relative to *path*,
        the durable directory.
    lock_timeout:
        When set, every lock acquisition (both sides) raises
        :class:`~repro.exceptions.LockTimeout` after this many seconds
        instead of blocking forever.
    sketch / sketch_params:
        ``sketch=True`` (default) keeps the approximate candidate tier
        of :mod:`repro.approx`: every object's packed binary sketch is
        a row of the engine's code column, and
        ``knn_query(..., mode="approx", shortlist=m)`` answers from an
        exact refine over the Hamming shortlist.  *sketch_params*
        overrides :class:`~repro.approx.sketch.SetSketcher` parameters
        (``width``/``nnz``/``wta``/``seed``/``pool``).
    """

    def __init__(
        self,
        capacity: int,
        *,
        backend: str = "xtree",
        omega: np.ndarray | None = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        model=None,
        pipeline=None,
        cache=None,
        durable: bool = False,
        path: str | Path | None = None,
        fsync="always",
        keep_generations: int = DEFAULT_KEEP_GENERATIONS,
        source: str | Path | None = None,
        lock_timeout: float | None = None,
        sketch: bool = True,
        sketch_params: dict | None = None,
    ):
        # Every numeric setting is checked here, before a durable
        # directory is created or any object is logged.
        capacity = _at_least("capacity", capacity, 1)
        block_size = _at_least("block_size", block_size, 1)
        keep_generations = _at_least("keep_generations", keep_generations, 1)
        check_backend(backend)
        omega = check_omega(omega)
        if source is not None and not durable:
            raise QueryError("source is only meaningful with durable=True")
        self.capacity = capacity
        self.block_size = block_size
        self.model = model
        self.pipeline = pipeline
        self.cache = cache
        self.dimension: int | None = None
        self._omega_arg = omega
        self.omega: np.ndarray | None = self._omega_arg
        self._version = 0
        self._engine: FilterRefineEngine | None = None
        # The payload of every object added with one, by oid.
        self._payloads: dict[int, dict] = {}
        self._lock = RWLock()
        self.lock_timeout = lock_timeout
        self.sketch_enabled = bool(sketch)
        self._sketch_params = dict(sketch_params or {})
        if not self.sketch_enabled and sketch_params:
            raise QueryError("sketch_params is only meaningful with sketch=True")
        self._sketcher: SetSketcher | None = None
        # A sketcher to take instead of building an equal one: a shard's
        # layout shares one (ShardedSimilarityDatabase sets it).
        self._sketch_donor: SetSketcher | None = None
        self._snapshot_dense = False
        # -- durability state ---------------------------------------------
        self.durable = bool(durable)
        self.fsync = fsync
        self.keep_generations = keep_generations
        self.source = None if source is None else str(source)
        self._layout = None
        self._wal = None
        self._generation = 0
        self._replaying = False
        self._closed = False
        self.last_recovery: storage.RecoveryReport | None = None
        if self.durable:
            if path is None:
                raise QueryError("durable=True needs a directory path")
            storage.create_durable(self, path)
        elif path is not None:
            raise QueryError("path is only meaningful with durable=True")

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return 0 if self._engine is None else len(self._engine)

    def __contains__(self, oid: int) -> bool:
        oid = check_object_id(oid)
        return self._engine is not None and oid in self._engine

    @property
    def version(self) -> int:
        """Monotone counter, bumped once per successful mutation."""
        return self._version

    @property
    def generation(self) -> int:
        """The published snapshot generation (0 until the first
        checkpoint; always 0 for non-durable databases)."""
        return self._generation

    def _oids(self) -> np.ndarray:
        """The stored object ids, ascending (caller holds either lock side)."""
        if self._engine is None:
            return np.empty(0, dtype=np.int64)
        return np.sort(self._engine.oids)

    def object_ids(self) -> list[int]:
        with self._lock.read(timeout=self.lock_timeout):
            return self._oids().tolist()

    def get(self, oid: int) -> np.ndarray:
        oid = check_object_id(oid)
        with self._lock.read(timeout=self.lock_timeout):
            if oid not in self:
                raise QueryError(f"no object with id {oid}")
            return self._engine.get(oid)

    def payload(self, oid: int) -> dict | None:
        """An owned copy of the payload stored with *oid*; ``None`` when
        it was added without one."""
        oid = check_object_id(oid)
        with self._lock.read(timeout=self.lock_timeout):
            if oid not in self:
                raise QueryError(f"no object with id {oid}")
            stored = self._payloads.get(oid)
            return None if stored is None else dict(stored)

    def index_digest(self) -> str:
        """SHA-256 over the live ``(oid, point)`` entries the filter step
        ranks — every stored extended centroid — in ascending oid.

        ``"empty"`` for a database without objects.  However it was
        mutated, a database digests like a fresh build of its sets.
        """
        with self._lock.read(timeout=self.lock_timeout):
            engine = self._engine
            if engine is None:
                return "empty"
            oids, points = engine.oids, engine.centroids
            order = np.argsort(oids)
            hasher = hashlib.sha256(oids[order].tobytes())
            hasher.update(points[order].tobytes())
            return hasher.hexdigest()

    def sketch_digest(self) -> str:
        """SHA-256 over the stored oids, then their sketch codes, in
        ascending oid.

        ``"disabled"`` when sketching is off, ``"empty"`` before the
        first add.  The differential harness compares this against a
        from-scratch rebuild to prove incremental maintenance exact.
        """
        with self._lock.read(timeout=self.lock_timeout):
            if not self.sketch_enabled:
                return "disabled"
            if self._sketcher is None:
                return "empty"
            hasher = hashlib.sha256()
            engine = self._engine
            if engine is not None:
                order = np.argsort(engine.oids)
                hasher.update(engine.oids[order].tobytes())
                hasher.update(engine.codes[order].tobytes())
            return hasher.hexdigest()

    def engine_digest(self) -> str:
        """:meth:`FilterRefineEngine.digest` of the live refinement engine.

        ``"empty"`` for a database without objects.  The differential
        harness compares this against a from-scratch engine to prove
        the in-place maintenance exact.
        """
        with self._lock.read(timeout=self.lock_timeout):
            if self._engine is None:
                return "empty"
            return self._engine.digest()

    def check_invariants(self) -> None:
        """Cross-check every structure that mirrors the engine's rows.

        The engine's own buffers must agree with each other
        (:meth:`FilterRefineEngine.check_invariants`: the stored
        centroids are bit for bit the extended centroids of the stored
        sets, padded tails hold omega, squared norms are current); every
        sketch code must be the sketch of the set in its row, bit for
        bit, and the engine must digest like a fresh packing of its
        unpadded rows.  Every payload must belong to a stored object.
        (The index is the engine's own centroid column.)  Raises
        :class:`~repro.exceptions.InvariantError` naming the first
        disagreement.
        """
        with self._lock.read(timeout=self.lock_timeout):
            self._check_invariants_locked()

    def _check_invariants_locked(self) -> None:
        engine, oids = self._engine, self._oids()
        if engine is not None:
            engine.check_invariants()
        stray = self._payloads.keys() - set(oids.tolist())
        if stray:
            raise InvariantError(
                f"payload of object {min(stray)} names no stored object"
            )
        if engine is None:
            return
        _, offsets, rows, _ = engine.ragged()
        sets = np.split(rows, offsets[1:-1])
        if self._sketcher is not None:
            # ragged() lists the sets in this ascending-oid order.
            codes = engine.codes[np.argsort(engine.oids)]
            for oid, code, arr in zip(oids.tolist(), codes, sets):
                if not np.array_equal(code, self._sketcher.sketch(arr)):
                    raise InvariantError(
                        f"sketch code of object {oid} is not the sketch of "
                        "its stored set"
                    )
        fresh = FilterRefineEngine(
            sets, capacity=self.capacity, omega=self.omega, oids=oids
        )
        if engine.digest() != fresh.digest():
            raise InvariantError(
                "engine rows differ from a fresh packing of the stored sets"
            )

    def close(self) -> None:
        """Flush and close the WAL segment (durable databases only).

        Safe to call twice.  A closed durable database still answers
        queries; every mutation raises :class:`StorageError` and leaves
        memory and disk untouched.
        """
        if self._wal is not None:
            self._wal.close()
            self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("database is closed")

    def __enter__(self) -> "SimilarityDatabase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals ---------------------------------------------------------

    def _as_set(self, vectors) -> np.ndarray:
        arr = np.asarray(
            vectors.vectors if isinstance(vectors, VectorSet) else vectors,
            dtype=float,
        )
        if arr.ndim != 2 or not len(arr):
            raise QueryError(f"expected a non-empty (m, d) array, got {arr.shape}")
        if len(arr) > self.capacity:
            raise QueryError(
                f"set holds {len(arr)} vectors, capacity is {self.capacity}"
            )
        _check_domain(arr, "vector sets", "vector set entries")
        if self.dimension is not None and arr.shape[1] != self.dimension:
            raise QueryError(
                f"dimension mismatch: database holds {self.dimension}-d "
                f"elements, got {arr.shape[1]}-d"
            )
        return arr

    def _checked_query(self, query, **args) -> np.ndarray:
        """Validate one query at the database boundary: the arguments
        (:func:`check_query_args`) and the vector set (like a stored
        set — non-empty, within ``MAGNITUDE_BOUND``, within capacity,
        right dimension)."""
        check_query_args(**args)
        return self._as_set(query)

    def _settle(self, arr: np.ndarray) -> np.ndarray | None:
        """The sketch code of *arr* about to be added (``None`` without a
        sketch tier).  The first add also fixes the dimension, ω and the
        sketcher; they are committed only once the code is built, so a
        refused first add leaves the database as empty as it was."""
        if self.dimension is not None:
            return self._code(arr)
        dimension = int(arr.shape[1])
        omega = np.zeros(dimension) if self.omega is None else self.omega
        if omega.shape != (dimension,):
            raise QueryError(f"omega has shape {omega.shape}, data is {dimension}-d")
        sketcher = self._new_sketcher(dimension)
        code = None if sketcher is None else sketcher.sketch(arr)
        self.dimension, self.omega, self._sketcher = dimension, omega, sketcher
        return code

    def _ensure_sketcher(self) -> None:
        """Materialize the sketcher once the dimension is known."""
        if self._sketcher is None and self.dimension is not None:
            self._sketcher = self._new_sketcher(self.dimension)

    def _new_sketcher(self, dimension: int) -> SetSketcher | None:
        """The sketcher of *dimension*-d sets (``None`` without a sketch
        tier): the donor's, when it is the one this database would build."""
        if not self.sketch_enabled:
            return None
        donor = self._sketch_donor
        if donor is not None and donor.fits(dimension, **self._sketch_params):
            return donor
        return SetSketcher(dimension, **self._sketch_params)

    def _code(self, arr: np.ndarray) -> np.ndarray | None:
        """The sketch code of *arr*, ``None`` without a sketch tier."""
        return None if self._sketcher is None else self._sketcher.sketch(arr)

    # -- the write-ahead log -------------------------------------------------

    def _wal_log(
        self, op: str, *, oid: int | None = None, array=None, payload=None
    ) -> None:
        """Append one mutation record *before* it is applied.

        No-op for non-durable databases and during recovery replay.
        The record is on stable storage (per the fsync policy) when
        this returns, so the mutation it precedes is recoverable the
        instant the caller's method returns — the acknowledged-write
        contract of ``fsync='always'``.  A payload rides in the record
        header; a record without one is the record of a payload-free
        database.
        """
        if self._wal is None or self._replaying:
            return
        extra = {} if payload is None else {"payload": payload}
        self._wal.append(op, oid=oid, array=array, **extra)

    # -- mutations ---------------------------------------------------------

    def add(self, oid: int, vectors, payload: dict | None = None) -> None:
        """Add one vector set under external id *oid*, with an optional
        *payload* of identity fields
        (:func:`~repro.db.storage.check_payload`)."""
        self._check_open()
        self._add(oid, vectors, check_payload(payload), op="add")

    def _add(self, oid: int, vectors, payload: dict | None, *, op: str) -> None:
        """:meth:`add` with *payload* already checked."""
        oid = check_object_id(oid)
        arr = self._as_set(vectors)
        with self._lock.write(timeout=self.lock_timeout):
            if oid in self:
                raise QueryError(f"object id {oid} already present")
            code = self._settle(arr)
            centroid = extended_centroid(arr, self.capacity, self.omega)
            self._wal_log(op, oid=oid, array=arr, payload=payload)
            if payload is not None:
                self._payloads[oid] = payload
            if self._engine is None:
                # Created under the write lock: no reader can see it half built.
                self._engine = FilterRefineEngine(
                    [arr],
                    capacity=self.capacity,
                    omega=self.omega,
                    block_size=self.block_size,
                    oids=[oid],
                    centroids=centroid[None, :],
                    codes=None if code is None else code[None, :],
                )
            else:
                self._engine.add(oid, arr, centroid, code)
            self._bump("add")

    def add_grid(self, oid: int, grid, payload: dict | None = None) -> np.ndarray:
        """Voxel-grid ingest: normalize, extract (through the feature
        cache), then :meth:`add`.  Returns the extracted set.

        Durable databases log the *extracted* set (an ``add_grid``
        record), so replay never needs the voxel grid or the feature
        model."""
        self._check_open()
        if self.model is None:
            raise QueryError("add_grid needs a database with a feature model")
        from repro.pipeline import Pipeline

        oid = check_object_id(oid)  # before extraction fills the cache
        payload = check_payload(payload)
        pipeline = self.pipeline or Pipeline()
        arr = pipeline.features_for_grid(grid, self.model, cache=self.cache)
        self._add(oid, arr, payload, op="add_grid")
        return arr

    def remove(self, oid: int) -> bool:
        """Remove the object stored under *oid* and its payload; False
        if absent."""
        self._check_open()
        oid = check_object_id(oid)
        with self._lock.write(timeout=self.lock_timeout):
            if oid not in self:
                return False
            self._wal_log("remove", oid=oid)
            self._payloads.pop(oid, None)
            if len(self._engine) == 1:
                self._engine = None  # an engine is never empty
            else:
                self._engine.remove(oid)
            self._bump("remove")
            return True

    def update(self, oid: int, vectors) -> None:
        """Replace the set stored under *oid* in one atomic mutation; its
        payload stays."""
        self._check_open()
        oid = check_object_id(oid)
        arr = self._as_set(vectors)
        with self._lock.write(timeout=self.lock_timeout):
            if oid not in self:
                raise QueryError(f"no object with id {oid}")
            code = self._code(arr)
            centroid = extended_centroid(arr, self.capacity, self.omega)
            self._wal_log("update", oid=oid, array=arr)
            self._engine.replace(oid, arr, centroid, code)
            self._bump("update")

    def _bump(self, op: str) -> None:
        self._version += 1
        reg = registry()
        if reg.enabled:
            reg.counter(f"db.mutations.{op}").inc()
            reg.gauge("db.size").set(len(self))

    # -- queries -----------------------------------------------------------

    def _empty_result(self) -> tuple[list[QueryMatch], QueryStats]:
        return [], QueryStats()

    def _query_context(self, mode: str):
        """Wide-event context for one query: mode and database version.
        A plain ``nullcontext`` while observability is disabled, so the
        disabled query path stays free."""
        if not registry().enabled:
            return nullcontext()
        return querylog.query_context(mode=mode, db_version=self._version)

    def _knn_locked(self, arr, n_neighbors: int):
        if self._engine is None:
            return self._empty_result()
        with self._query_context("exact"):
            return self._engine.knn_query(arr, n_neighbors)

    def _range_locked(self, arr, epsilon: float):
        if self._engine is None:
            return self._empty_result()
        with self._query_context("exact"):
            return self._engine.range_query(arr, epsilon)

    def _approx_knn_locked(self, arr, n_neighbors: int, shortlist: int | None):
        if self._engine is None:
            return self._empty_result()
        if self._sketcher is None:
            raise QueryError(
                "approx queries need the sketch tier; this database was "
                "built with sketch=False"
            )
        engine = ApproxFilterRefineEngine(self._engine, self._sketcher)
        with self._query_context("approx"):
            return engine.knn_query(arr, n_neighbors, shortlist=shortlist)

    def knn_query(
        self,
        query,
        n_neighbors: int,
        *,
        mode: str = "exact",
        shortlist: int | None = None,
    ):
        """The *n_neighbors* nearest objects by minimal matching
        distance: ``(list[QueryMatch], QueryStats)``.

        ``mode="exact"`` (default) is the paper's filter-refine pipeline.
        ``mode="approx"`` Hamming-ranks the sketch tier and refines only
        the *shortlist* best candidates with the exact distance — the
        returned distances are still exact, but objects outside the
        shortlist are never considered, so recall is traded for
        throughput (with ``shortlist >= len(db)`` results equal exact).
        """
        arr = self._checked_query(
            query, n_neighbors=n_neighbors, mode=mode, shortlist=shortlist
        )
        with self.read_view() as view:
            return view._knn(arr, n_neighbors, mode, shortlist)

    def range_query(self, query, epsilon: float):
        """All objects within matching distance *epsilon*."""
        arr = self._checked_query(query, epsilon=epsilon)
        with self.read_view() as view:
            return view._range(arr, epsilon)

    def knn_query_many(
        self,
        queries,
        n_neighbors: int,
        *,
        mode: str = "exact",
        shortlist: int | None = None,
    ):
        """Batch k-nn under one read-lock acquisition.

        Returns ``[(results, stats), ...]`` in query order, identical
        to calling :meth:`knn_query` per query — but the whole batch
        observes a single database version (no writer can interleave).
        """
        check_query_args(n_neighbors=n_neighbors, mode=mode, shortlist=shortlist)
        arrs = [self._as_set(query) for query in queries]
        with self.read_view() as view:
            return [view._knn(arr, n_neighbors, mode, shortlist) for arr in arrs]

    @contextmanager
    def read_view(self):
        """Hold the read lock across several queries: everything inside
        the ``with`` block sees one frozen database version."""
        with self._lock.read(timeout=self.lock_timeout):
            yield DatabaseView(self)


    # -- persistence (the layouts themselves live in repro.db.storage) -------

    def save(self, path: str | Path | None = None, *, dense: bool | None = None) -> Path:
        """Persist the database.

        Non-durable: write a CRC-checked snapshot archive atomically to
        *path* (required).  Durable: run a :meth:`checkpoint` (*path*,
        if given, must be the database directory; any other path writes
        a plain archive export instead).

        ``dense=True`` writes the flat mmap-able container of
        :mod:`repro.db.archive` instead of an ``.npz`` archive, whose
        arrays :meth:`load` maps instead of inflating (the engine packs
        its own copy of them); either container's every member is
        CRC-checked on every open.
        Default: whatever format this database was loaded from (``.npz``
        for a fresh database).  Durable checkpoints always use ``.npz``.
        """
        if self.durable and (
            path is None or Path(path).resolve() == self._layout.root.resolve()
        ):
            return self.checkpoint()
        if path is None:
            raise QueryError("save() needs a path for a non-durable database")
        with self._lock.read(timeout=self.lock_timeout):
            return storage.save(
                self, path, dense=self._snapshot_dense if dense is None else dense
            )

    def checkpoint(self) -> Path:
        """Publish a new snapshot generation and rotate the WAL
        (:func:`repro.db.storage.checkpoint`), under the write lock."""
        if not self.durable:
            raise QueryError("checkpoint() is only available with durable=True")
        self._check_open()
        with self._lock.write(timeout=self.lock_timeout):
            return storage.checkpoint(self)

    @classmethod
    def load(
        cls,
        path: str | Path,
        *,
        model=None,
        pipeline=None,
        cache=None,
        lock_timeout: float | None = None,
    ) -> "SimilarityDatabase":
        """Reconstruct a database from :meth:`save` output.

        A snapshot *file* opens with zero rebuild work: the stored sets
        are packed into the engine by one ragged scatter.  The index
        members of a layout written while snapshots carried an index are
        not read, whatever backend it recorded.  A
        durable *directory* runs the recovery ladder; the result's
        :attr:`last_recovery` reports which rung served and how degraded
        the recovery was.  See :mod:`repro.db.storage`.
        """
        return storage.open_plain(
            path, model=model, pipeline=pipeline, cache=cache, lock_timeout=lock_timeout
        )
