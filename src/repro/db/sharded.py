"""Sharded similarity database: K independent cores, queried as one.

Horizontal partitioning of :class:`repro.db.core.SimilarityDatabase`.
Objects are partitioned across K *shards* — each a complete
``SimilarityDatabase`` with its own RWLock, object store (sketch codes
included) and (when durable) WAL + snapshot generations — by a stable
hash of the object id (:func:`shard_of`).  Mutations route to exactly
one shard.

Queries see one database.  The paper's k-nn is one optimal multi-step
search: one candidate stream and one pruning radius over the whole
collection.  A query therefore pins every shard's read lock and joins
the shards into one non-durable database
(:func:`repro.db.storage.as_one`): the engines' row buffers, sketch
codes included, concatenated as they lie (row order is unobservable:
every ranking breaks distance ties by ascending oid).  The plain query
path answers over it, so a sharded database returns the answers *and*
the ``QueryStats`` of one ``SimilarityDatabase`` holding the same
objects, in exact and approx mode, for k-nn, range and batch queries
(the differential machine in ``tests/test_sharded_differential.py``
holds this equality through arbitrary mutation/reshard sequences).
The join is rebuilt per call (a serial batch pays it once) and never
cached, because a read lock writes no state.

Observability: a query logs the plain database's one wide event
(``knn``, ``range`` or ``approx_knn``), stamped with ``shards`` (and
``batch`` / ``jobs`` for batches), and adds 1 to ``query.count``.

Pooled batches: ``knn_query_many(..., n_jobs=J)`` with ``J >= 2`` is
parallel over *queries*.  The batch is split into
``min(J, len(queries))`` contiguous chunks; each pool worker opens the
last saved layout (:func:`repro.db.storage.open_sharded`), joins its
shards as one database (:func:`repro.db.storage.as_one`, the same join),
caches it by the save's token and the files' stat, and answers its chunk
with the plain ``knn_query_many``; the chunks come back in order, and
the workers' wide events with them.  The price is memory: each worker
holds all n objects, not n / K.

Consistency: a query pins *all* shard read locks (in ascending shard
order) for its duration, so every answer is exact with respect to one
consistent version vector — the tuple of per-shard version counters
(:meth:`ShardedSimilarityDatabase.version_vector`).  A ``LockTimeout``
on any shard releases the already-pinned shards and propagates
(counted under ``db.sharded.lock_timeouts``).

Persistence (:mod:`repro.db.storage`): ``save()`` writes a directory —
a ``sharded.json`` manifest plus one plain snapshot file per shard,
written and read back by the same functions as a plain database's.
``durable=True`` gives every shard its own WAL-managed directory under
one root; ``checkpoint()`` walks the shards in order (the
``between-shard-checkpoints`` crash point sits in each gap — the crash
harness proves recovery restores a consistent version vector from any
interleaving of shard generations).
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from collections import OrderedDict
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

from repro.core.queries import QueryMatch, QueryStats
from repro.db import storage
from repro.db.core import (
    DatabaseView,
    SimilarityDatabase,
    _at_least,
    check_backend,
    check_object_id,
    check_query_args,
)
from repro.db.storage import DEFAULT_KEEP_GENERATIONS, SHARDED_FORMAT, SHARDED_VERSION
from repro.db.storage import check_payload
from repro.exceptions import LockTimeout, QueryError, StorageError
from repro.obs import emit, querylog, registry, span
from repro.parallel import pool_map, resolve_n_jobs

__all__ = [
    "SHARDED_FORMAT",
    "SHARDED_VERSION",
    "ShardedSimilarityDatabase",
    "open_database",
    "shard_of",
]


def shard_of(oid: int, shards: int) -> int:
    """The shard owning *oid*: CRC32 of the little-endian int64 id.

    Process- and platform-stable (unlike ``hash()``), uniform enough
    for dense and sparse id spaces, and independent of insertion order
    — the routing half of the byte-identity contract.
    """
    if shards < 1:
        raise QueryError("shards must be >= 1")
    return zlib.crc32(struct.pack("<q", int(oid))) % shards


# -- process-pool tasks (module level so they pickle) ----------------------

#: A pool worker's saved layouts, each opened as one database, least
#: recently used first.  Two layouts answering in turn must both stay.
_LAYOUT_DBS: OrderedDict[tuple, SimilarityDatabase] = OrderedDict()
_LAYOUT_DB_LIMIT = 4


def _layout_db(token: str, paths: tuple[Path, ...]) -> SimilarityDatabase:
    """The saved layout *paths* opened as one database, once per worker.

    Keyed on the token of the ``save()`` (or open) that produced the
    layout plus every file's stat, so a later save is never served the
    earlier one's objects, even when it leaves equal timestamps."""
    try:
        stats = tuple(os.stat(path) for path in paths)
    except OSError as exc:
        raise StorageError(f"cannot read snapshot: {exc}") from exc
    key = (token, paths, *((s.st_ino, s.st_size, s.st_mtime_ns) for s in stats))
    db = _LAYOUT_DBS.pop(key, None)
    if db is None:
        db = storage.as_one(storage.open_sharded(paths[0].parent).shards)
    _LAYOUT_DBS[key] = db
    while len(_LAYOUT_DBS) > _LAYOUT_DB_LIMIT:
        _LAYOUT_DBS.popitem(last=False)
    return db


def _chunk_knn_task(task):
    """One chunk of a parallel batch: answer its queries against the
    saved layout opened as one database, reporting worker-side service
    time.  Each query's wide event carries the batch's *context*
    (shards, jobs, batch size); :func:`repro.parallel.pool_map` folds
    the events back into the parent.  Answers travel as plain pairs and
    dicts, which pickle an order of magnitude faster than the match and
    stats objects."""
    token, paths, queries, k, context = task
    db = _layout_db(token, paths)
    start = time.perf_counter()
    with querylog.query_context(**context):
        answers = [
            ([(m.object_id, m.distance) for m in matches], stats.as_dict())
            for matches, stats in db.knn_query_many(queries, k)
        ]
    return answers, time.perf_counter() - start


class ShardedSimilarityDatabase:
    """K independent :class:`SimilarityDatabase` shards behind one API.

    Parameters mirror ``SimilarityDatabase`` (``backend`` is checked
    alike and stored nowhere; every ``**shard_kwargs`` entry —
    ``omega``, ``block_size``, ``sketch``, ``sketch_params`` — is
    forwarded to each shard verbatim; ``source`` is refused, since a
    shard rebuilt from the whole archive would hold every shard's
    objects), plus:

    shards:
        Number of partitions K (>= 1).
    durable / path / fsync / keep_generations:
        ``durable=True`` creates a sharded WAL-managed layout under the
        directory *path*: a ``sharded.json`` manifest and one durable
        shard directory per partition.  Recover an existing layout with
        :meth:`load`.
    model / pipeline / cache:
        Feature extraction state lives at this layer — :meth:`add_grid`
        extracts once, then routes the feature set; shards never see
        voxel grids.
    """

    def __init__(
        self,
        capacity: int,
        *,
        shards: int = 4,
        backend: str = "xtree",
        durable: bool = False,
        path: str | Path | None = None,
        model=None,
        pipeline=None,
        cache=None,
        lock_timeout: float | None = None,
        fsync="always",
        keep_generations: int = DEFAULT_KEEP_GENERATIONS,
        **shard_kwargs,
    ):
        # Checked before any shard directory is created.
        capacity = _at_least("capacity", capacity, 1)
        shards = _at_least("shards", shards, 1)
        keep_generations = _at_least("keep_generations", keep_generations, 1)
        check_backend(backend)
        if shard_kwargs.get("source") is not None:
            raise QueryError(
                "source is not supported on a sharded database: each shard "
                "would rebuild from every object of the archive"
            )
        self.capacity = capacity
        self.n_shards = shards
        self.model = model
        self.pipeline = pipeline
        self.cache = cache
        self.lock_timeout = lock_timeout
        self.durable = bool(durable)
        self.fsync = fsync
        self.keep_generations = keep_generations
        self._root: Path | None = None
        self._saved: storage.SavedLayout | None = None
        self.last_recovery = None
        self.last_parallel_legs: list[float] | None = None
        if self.durable:
            if path is None:
                raise QueryError("durable=True needs a directory path")
            root = Path(path)
            storage.refuse_existing(root)
            # Each shard validates its settings before it creates its
            # directory, so a rejected setting leaves no layout behind.
            self.shards = [
                SimilarityDatabase(
                    capacity,
                    durable=True,
                    path=storage.shard_path(root, i, durable=True),
                    fsync=fsync,
                    keep_generations=keep_generations,
                    lock_timeout=lock_timeout,
                    **shard_kwargs,
                )
                for i in range(self.n_shards)
            ]
            self._root = root
            storage.write_manifest(self, root, durable=True)
        else:
            if path is not None:
                raise QueryError("path is only meaningful with durable=True")
            self.shards = [
                SimilarityDatabase(capacity, lock_timeout=lock_timeout, **shard_kwargs)
                for _ in range(self.n_shards)
            ]

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def __contains__(self, oid: int) -> bool:
        return oid in self._shard_for(oid)

    @property
    def version(self) -> int:
        """Total mutation count — the sum of the version vector."""
        return sum(shard.version for shard in self.shards)

    def version_vector(self) -> tuple[int, ...]:
        """Per-shard version counters; a query is exact
        with respect to exactly one value of this tuple.  Resharding
        replaces the vector (fresh shards start at their add counts)."""
        return tuple(shard.version for shard in self.shards)

    @property
    def dimension(self) -> int | None:
        for shard in self.shards:
            if shard.dimension is not None:
                return shard.dimension
        return None

    def object_ids(self) -> list[int]:
        out: list[int] = []
        for shard in self.shards:
            out.extend(shard.object_ids())
        return sorted(out)

    def get(self, oid: int) -> np.ndarray:
        return self._shard_for(oid).get(oid)

    def payload(self, oid: int) -> dict | None:
        return self._shard_for(oid).payload(oid)

    def index_digests(self) -> list[str]:
        return [shard.index_digest() for shard in self.shards]

    def sketch_digests(self) -> list[str]:
        return [shard.sketch_digest() for shard in self.shards]

    def close(self) -> None:
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "ShardedSimilarityDatabase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- routing and mutations ---------------------------------------------

    def _shard_for(self, oid: int) -> SimilarityDatabase:
        return self.shards[shard_of(check_object_id(oid), self.n_shards)]

    def _receiver(self, oid: int) -> SimilarityDatabase:
        """The shard owning *oid*, about to store a set.

        The shards of one layout sketch with one projection
        (:func:`repro.db.storage.as_one` sketches every query with the
        donor's), so a shard that has no sketcher yet is handed the
        donor's to take rather than generating an equal matrix again.
        """
        shard = self._shard_for(oid)
        if shard._sketcher is None:
            shard._sketch_donor = storage.donor(self.shards)._sketcher
        return shard

    def add(self, oid: int, vectors, payload: dict | None = None) -> None:
        self._receiver(oid).add(oid, vectors, payload)

    def add_grid(self, oid: int, grid, payload: dict | None = None) -> np.ndarray:
        if self.model is None:
            raise QueryError("add_grid needs a database with a feature model")
        from repro.pipeline import Pipeline

        shard = self._receiver(oid)  # rejects a malformed id before extraction
        shard._check_open()
        payload = check_payload(payload)
        pipeline = self.pipeline or Pipeline()
        arr = pipeline.features_for_grid(grid, self.model, cache=self.cache)
        shard.add(oid, arr, payload)
        return arr

    def remove(self, oid: int) -> bool:
        return self._shard_for(oid).remove(oid)

    def update(self, oid: int, vectors) -> None:
        self._shard_for(oid).update(oid, vectors)

    def _fresh_shard(self) -> SimilarityDatabase:
        """An empty in-memory shard configured like the live ones.

        The live shards are the only record of ω, block size and sketch
        parameters (a reloaded layout was never given constructor
        arguments), so the settings record
        (:func:`repro.db.storage.settings`) is read from
        :func:`repro.db.storage.donor`'s choice of them.
        """
        donor = storage.donor(self.shards)
        shard = storage.empty_like(donor, lock_timeout=self.lock_timeout)
        shard._sketch_donor = donor._sketcher
        return shard

    def reshard(self, new_shards: int) -> None:
        """Redistribute every object across *new_shards* fresh shards.

        Takes every current shard's write lock (ascending order) for a
        consistent cut, builds K' fresh shards by ascending-oid
        insertion — each new shard is literally a fresh build — and
        swaps the shard list atomically.  Pinned readers keep querying
        the old shards they hold; new queries see the new layout.
        Durable layouts cannot reshard in place (the manifest pins K).
        """
        new_shards = _at_least("shards", new_shards, 1)
        if self.durable:
            raise QueryError(
                "reshard() is not available on a durable sharded database; "
                "load into a non-durable one, reshard, and re-init"
            )
        if new_shards == self.n_shards:
            return
        with ExitStack() as stack:
            for shard in self.shards:
                stack.enter_context(shard._lock.write(timeout=self.lock_timeout))
            stored: list[tuple[int, np.ndarray]] = []
            payloads: dict[int, dict] = {}
            for shard in self.shards:
                if shard._engine is not None:
                    oids, offsets, rows, _ = shard._engine.ragged()
                    stored.extend(zip(oids.tolist(), np.split(rows, offsets[1:-1])))
                payloads.update(shard._payloads)
            stored.sort(key=lambda item: item[0])
            fresh = [self._fresh_shard() for _ in range(new_shards)]
            for oid, arr in stored:
                fresh[shard_of(oid, new_shards)].add(oid, arr, payloads.get(oid))
            self.shards = fresh
            self.n_shards = new_shards
            self._saved = None
        if registry().enabled:
            registry().counter("db.sharded.reshards").inc()
        emit("db.reshard", shards=new_shards, objects=len(stored))

    # -- queries ---------------------------------------------------------------

    @contextmanager
    def read_views(self):
        """All shard read locks, ascending order: one consistent cut.

        The sharded counterpart of
        :meth:`~repro.db.core.SimilarityDatabase.read_view`: yields the
        list of per-shard :class:`~repro.db.core.DatabaseView` objects,
        whose versions form the consistent vector every query inside
        the ``with`` block is exact against.

        Ascending acquisition order is the lock-ordering discipline —
        every multi-shard locker (queries, save, reshard) walks shards
        the same way, so two of them can never deadlock.  A timeout on
        any shard releases the already-pinned prefix and propagates.
        """
        try:
            with ExitStack() as stack:
                yield [stack.enter_context(s.read_view()) for s in self.shards]
        except LockTimeout:
            if registry().enabled:
                registry().counter("db.sharded.lock_timeouts").inc()
            raise

    def _as_one(self, views) -> DatabaseView:
        """The shards pinned by *views* as one database
        (:func:`repro.db.storage.as_one`), viewed for this call only."""
        return DatabaseView(storage.as_one([view._db for view in views]))

    def _answer(self, ask, **context):
        """``ask(view)`` under every shard's read lock, *view* being the
        pinned shards as one database; each wide event it logs carries
        the shard count and *context*."""
        with self.read_views() as views:
            one = self._as_one(views)
            if not registry().enabled:
                return ask(one)
            with querylog.query_context(shards=len(views), **context):
                return ask(one)

    def _checked_query(self, query, **args) -> np.ndarray:
        """Validate one query before any shard lock is taken, against a
        shard that already knows the element dimension."""
        shard = next(
            (s for s in self.shards if s.dimension is not None), self.shards[0]
        )
        return shard._checked_query(query, **args)

    def knn_query(
        self,
        query,
        n_neighbors: int,
        *,
        mode: str = "exact",
        shortlist: int | None = None,
    ):
        """k-nn over the shards as one database: the answer and the
        ``QueryStats`` of one ``SimilarityDatabase`` holding the same
        objects, in exact and approx mode."""
        arr = self._checked_query(
            query, n_neighbors=n_neighbors, mode=mode, shortlist=shortlist
        )
        return self._answer(lambda one: one._knn(arr, n_neighbors, mode, shortlist))

    def range_query(self, query, epsilon: float):
        """All objects within *epsilon*, over the shards as one database."""
        arr = self._checked_query(query, epsilon=epsilon)
        return self._answer(lambda one: one._range(arr, epsilon))

    # -- batch queries -------------------------------------------------------

    def knn_query_many(
        self,
        queries,
        n_neighbors: int,
        *,
        mode: str = "exact",
        shortlist: int | None = None,
        n_jobs: int | None = None,
    ):
        """Batch k-nn under one pinned version vector.

        Results equal ``[knn_query(q, k) for q in queries]`` with no
        writer interleaving; in-process, the shards are joined into one
        database once for the whole batch.  ``n_jobs >= 2`` splits the batch into
        ``min(n_jobs, len(queries))`` chunks of whole queries, each
        answered by a pool worker over the last saved layout opened as
        one database (exact mode only; the save must not be stale; see
        the module notes) — the path the ``sharded_batch_knn`` workload
        of ``benchmarks/e2e`` measures.  Pooled stats are those of one
        database holding every object; :attr:`last_parallel_legs` holds
        each chunk's worker-side seconds.
        """
        check_query_args(n_neighbors=n_neighbors, mode=mode, shortlist=shortlist)
        queries = [self._checked_query(q) for q in queries]
        jobs = resolve_n_jobs(n_jobs)
        if jobs >= 2 and self.n_shards >= 2 and len(queries):
            return self._parallel_knn_many(queries, n_neighbors, mode, jobs)
        return self._answer(
            lambda one: [one._knn(q, n_neighbors, mode, shortlist) for q in queries],
            batch=len(queries),
        )

    def _parallel_knn_many(self, queries, n_neighbors, mode, jobs):
        if mode != "exact":
            raise QueryError(
                "parallel batch queries support mode='exact' only; "
                "approx batches run in-process"
            )
        saved = self._saved
        if saved is None:
            raise QueryError(
                "parallel batch queries serve the saved sharded snapshot that "
                "only save(path) to a directory (or loading such a save) "
                "leaves; a durable layout's checkpoints and its load leave "
                "none: call save(path) first"
            )
        if self.version_vector() != saved.versions:
            raise QueryError(
                "sharded snapshot is stale (mutations since the last "
                "save()); save() again before parallel batch queries"
            )
        chunks = min(jobs, len(queries))
        bounds = [len(queries) * i // chunks for i in range(chunks + 1)]
        context = {"shards": self.n_shards, "jobs": jobs, "batch": len(queries)}
        tasks = [
            (saved.token, saved.paths, queries[lo:hi], n_neighbors, context)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        with span("query.sharded_scatter", shards=self.n_shards, jobs=jobs):
            legs = pool_map(_chunk_knn_task, tasks, jobs)
        self.last_parallel_legs = [seconds for _, seconds in legs]
        with span("query.sharded_merge"):
            return [
                ([QueryMatch(oid, dist) for oid, dist in pairs], QueryStats(**stats))
                for answers, _ in legs
                for pairs, stats in answers
            ]

    # -- persistence (the layouts themselves live in repro.db.storage) -------

    def save(self, path: str | Path | None = None, *, dense: bool = False) -> Path:
        """Persist the sharded database to a directory.

        Non-durable: one atomically-written snapshot archive per shard
        plus the ``sharded.json`` manifest, under every shard's read lock
        (ascending order).  Durable: ``save()`` with no path (or the
        layout root) runs :meth:`checkpoint`.
        """
        if self.durable and (
            path is None or Path(path).resolve() == self._root.resolve()
        ):
            return self.checkpoint()
        if path is None:
            raise QueryError(
                "save() needs a directory for a non-durable sharded database"
            )
        with ExitStack() as stack:
            for shard in self.shards:
                stack.enter_context(shard._lock.read(timeout=self.lock_timeout))
            paths = storage.save_sharded(self, path, dense=dense)
            self._saved = storage.SavedLayout(tuple(paths), self.version_vector())
        return Path(path)

    def checkpoint(self) -> Path:
        """Checkpoint every shard, ascending order
        (:func:`repro.db.storage.checkpoint_sharded`).

        A crash between two shard checkpoints leaves a *mixed* but fully
        recoverable layout, so every acknowledged mutation survives,
        which is all "consistent version vector" means here: recovery
        equals a fresh build of the acknowledged prefix, shard by shard.
        """
        if not self.durable:
            raise QueryError("checkpoint() is only available with durable=True")
        return storage.checkpoint_sharded(self)

    @classmethod
    def load(
        cls,
        path: str | Path,
        *,
        model=None,
        pipeline=None,
        cache=None,
        lock_timeout: float | None = None,
    ) -> "ShardedSimilarityDatabase":
        """Reconstruct a sharded database from :meth:`save` output.

        Durable layouts run the per-shard recovery ladder;
        :attr:`last_recovery` is then the list of per-shard
        :class:`~repro.db.storage.RecoveryReport` objects.  Non-durable
        layouts open each shard archive with the plain opener.  With no *pipeline* given, the one the layout was
        created with is rebuilt from the manifest's ``resolution``.
        """
        return storage.open_sharded(
            path, model=model, pipeline=pipeline, cache=cache, lock_timeout=lock_timeout
        )


def open_database(
    path: str | Path,
    *,
    model=None,
    pipeline=None,
    cache=None,
    lock_timeout: float | None = None,
):
    """Open any saved layout with the class that wrote it.

    A directory carrying a ``sharded.json`` manifest loads as a
    :class:`ShardedSimilarityDatabase`; anything else (snapshot archive
    file or single durable directory) loads as a
    :class:`SimilarityDatabase`.
    """
    return storage.open_layout(
        path, model=model, pipeline=pipeline, cache=cache, lock_timeout=lock_timeout
    )
