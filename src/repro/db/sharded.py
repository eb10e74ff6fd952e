"""Sharded similarity database: scatter-gather over K independent cores.

Horizontal scale-out for :class:`repro.db.core.SimilarityDatabase`.
Objects are partitioned across K *shards* — each a complete
``SimilarityDatabase`` with its own RWLock, spatial index, sketch tier,
and (when durable) WAL + snapshot generations — by a stable hash of the
object id (:func:`shard_of`).  Mutations route to exactly one shard;
queries scatter to every shard and merge the per-shard answers.

The merge is not approximate.  Every access method in this codebase
breaks distance ties canonically by ascending object id, so the global
k-nn of the union is exactly the (distance, oid)-merge of the per-shard
k-nns, truncated to k — a sharded database returns *byte-identical*
results to a single-shard build holding the same objects (the
differential machine in ``tests/test_sharded_differential.py`` holds
this equality through arbitrary mutation/reshard sequences, for every
backend, exact and approx modes).

Approximate mode needs one extra step for that equality: the Hamming
shortlist of a single-shard build is the global top-``budget`` by
(hamming, oid), which is *not* the union of per-shard top-``budget``
shortlists restricted per shard.  The sharded path therefore merges the
per-shard ``(hamming, oid)`` rankings into the exact global shortlist
first, then hands each shard only the candidates it owns for the exact
subset refine.  Merged ``QueryStats`` equal the single-shard build's
field for field.

Observability: every scatter leg runs under a ``shard=i`` querylog
context frame (the shard's own wide events — ``knn``, ``range``,
``knn_subset`` — carry it), and the sharded layer records one merged
wide event per query (``sharded_knn`` / ``sharded_range`` /
``sharded_approx_knn``) whose stats are the per-shard merge and whose
phase arithmetic keeps the PR 9 invariant: total == filter + refine,
with the scatter across shards as the filter phase and the merge as the
refine phase.

Pooled batches: ``knn_query_many(..., n_jobs=J)`` with ``J >= 2`` is
parallel over *queries*, not shards.  The batch is split into
``min(J, len(queries))`` contiguous chunks; each pool worker opens the
last saved layout's shard files as one database
(:func:`repro.db.storage.open_shards_as_one`, cached per worker by the
save's token and the files' stat) and answers its chunk with the plain
``knn_query_many``; the chunks come back in order.  Every query runs one
refine cascade with the global k-th distance as its radius, so pooled
``QueryStats`` count the work done: those of one ``SimilarityDatabase``
holding the same objects, not the per-shard sum the in-process scatter
reports.  The price is memory: each worker holds all n objects, not
n / K.

Consistency: a scatter-gather query pins *all* shard read locks (in
ascending shard order) for its duration, so every answer is exact with
respect to one consistent version vector — the tuple of per-shard
version counters (:meth:`ShardedSimilarityDatabase.version_vector`).
A ``LockTimeout`` on any shard releases the already-pinned shards and
propagates (counted under ``db.sharded.lock_timeouts``).

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
from contextlib import ExitStack, contextmanager, nullcontext
from pathlib import Path

import numpy as np

from repro.approx.engine import default_shortlist
from repro.core.queries import QueryMatch, QueryStats
from repro.db import storage
from repro.db.core import SimilarityDatabase, check_object_id, check_query_args
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


def _sort_key(match: QueryMatch):
    return (match.distance, match.object_id)


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
        db = storage.open_shards_as_one(paths)
    _LAYOUT_DBS[key] = db
    while len(_LAYOUT_DBS) > _LAYOUT_DB_LIMIT:
        _LAYOUT_DBS.popitem(last=False)
    return db


def _chunk_knn_task(task):
    """One chunk of a parallel batch: answer its queries against the
    saved layout opened as one database, reporting worker-side service
    time.  Answers travel as plain pairs and dicts, which pickle an
    order of magnitude faster than the match and stats objects."""
    token, paths, queries, k = task
    db = _layout_db(token, paths)
    start = time.perf_counter()
    answers = [
        ([(m.object_id, m.distance) for m in matches], stats.as_dict())
        for matches, stats in db.knn_query_many(queries, k)
    ]
    return answers, time.perf_counter() - start


class ShardedSimilarityDatabase:
    """K independent :class:`SimilarityDatabase` shards behind one API.

    Parameters mirror ``SimilarityDatabase`` (every ``**shard_kwargs``
    entry — ``omega``, ``block_size``, ``index_capacity``,
    ``sketch``, ``sketch_params`` — is forwarded to each shard
    verbatim; ``source`` is refused, since a shard rebuilt from the
    whole archive would hold every shard's objects), plus:

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
        if shards < 1:
            raise QueryError("shards must be >= 1")
        if shard_kwargs.get("source") is not None:
            raise QueryError(
                "source is not supported on a sharded database: each shard "
                "would rebuild from every object of the archive"
            )
        self.capacity = capacity
        self.backend = backend
        self.n_shards = int(shards)
        self.model = model
        self.pipeline = pipeline
        self.cache = cache
        self.lock_timeout = lock_timeout
        self.durable = bool(durable)
        self.fsync = fsync
        self.keep_generations = int(keep_generations)
        self._root: Path | None = None
        self._saved: storage.SavedLayout | None = None
        self.last_recovery = None
        self.last_parallel_legs: list[float] | None = None
        if self.durable:
            if path is None:
                raise QueryError("durable=True needs a directory path")
            root = Path(path)
            if storage.layout_of(root) == "sharded":
                raise StorageError(
                    f"{root} already holds a sharded database; recover it "
                    "with ShardedSimilarityDatabase.load()"
                )
            # Each shard validates its settings before it creates its
            # directory, so a rejected setting leaves no layout behind.
            self.shards = [
                SimilarityDatabase(
                    capacity,
                    backend=backend,
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
            storage.write_manifest(self, root)
        else:
            if path is not None:
                raise QueryError("path is only meaningful with durable=True")
            self.shards = [
                SimilarityDatabase(
                    capacity,
                    backend=backend,
                    lock_timeout=lock_timeout,
                    **shard_kwargs,
                )
                for i in range(self.n_shards)
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
        """Per-shard version counters; a scatter-gather query is exact
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

    def add(self, oid: int, vectors, payload: dict | None = None) -> None:
        self._shard_for(oid).add(oid, vectors, payload)

    def add_grid(self, oid: int, grid, payload: dict | None = None) -> np.ndarray:
        if self.model is None:
            raise QueryError("add_grid needs a database with a feature model")
        from repro.pipeline import Pipeline

        shard = self._shard_for(oid)  # rejects a malformed id before extraction
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

    def compact(self, *, shards: int | None = None) -> None:
        """Rebuild every shard index; ``shards=K'`` rebalances first.

        Compaction is the natural rebalance point: the indexes are
        being rebuilt anyway, so redistributing to a new shard count
        costs one extra pass over the objects.
        """
        if shards is not None and int(shards) != self.n_shards:
            self.reshard(int(shards))
        for shard in self.shards:
            shard.compact()

    def _fresh_shard(self) -> SimilarityDatabase:
        """An empty in-memory shard configured like the live ones.

        The live shards are the only record of ω, block size, index
        capacity and sketch parameters (a reloaded layout was never
        given constructor arguments): a shard that holds objects owns a
        sketcher that knows its parameters, so it is preferred as the
        donor of the settings record (:func:`repro.db.storage.settings`).
        """
        donor = next(
            (s for s in self.shards if s._sketcher is not None), self.shards[0]
        )
        return storage.empty_like(donor, lock_timeout=self.lock_timeout)

    def reshard(self, new_shards: int) -> None:
        """Redistribute every object across *new_shards* fresh shards.

        Takes every current shard's write lock (ascending order) for a
        consistent cut, builds K' fresh shards by ascending-oid
        insertion — each new shard is literally a fresh build — and
        swaps the shard list atomically.  Pinned readers keep querying
        the old shards they hold; new queries see the new layout.
        Durable layouts cannot reshard in place (the manifest pins K).
        """
        new_shards = int(new_shards)
        if new_shards < 1:
            raise QueryError("shards must be >= 1")
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

    # -- scatter-gather queries ---------------------------------------------

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

    def _shard_ctx(self, position: int):
        if not registry().enabled:
            return nullcontext()
        return querylog.query_context(shard=position)

    def _outer_ctx(self, mode: str, views):
        if not registry().enabled:
            return nullcontext()
        return querylog.query_context(
            backend=self.backend,
            mode=mode,
            db_version=sum(view.version for view in views),
            shards=self.n_shards,
            io_baseline=querylog.io_baseline(),
        )

    @staticmethod
    def _merge_matches(per_shard, limit: int | None = None):
        merged = sorted(
            (m for results, _ in per_shard for m in results), key=_sort_key
        )
        return merged if limit is None else merged[:limit]

    @staticmethod
    def _merge_stats(per_shard) -> QueryStats:
        out = QueryStats()
        for _, stats in per_shard:
            out.merge(stats)
        return out

    def _record(self, kind, stats, total, *, filter_seconds, refine_seconds, **extra):
        """One merged wide event with the PR 9 phase invariant intact:
        total == filter + refine, where filter is the scatter across
        shards and refine is the gather/merge."""
        if not registry().enabled:
            return
        with querylog.query_context(filter_seconds=filter_seconds):
            querylog.record_query(
                kind,
                stats.as_dict(),
                total,
                seconds=refine_seconds,
                refine_seconds=refine_seconds,
                **extra,
            )

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
        """Scatter-gather k-nn, byte-identical to a single-shard build.

        Exact mode merges the per-shard k-nns on (distance, oid) and
        truncates — every member of the global top-k is in its owning
        shard's top-k, so the merge loses nothing.  Approx mode first
        reconstructs the *global* Hamming shortlist (see module notes),
        then scatters the subset refine.
        """
        arr = self._checked_query(
            query, n_neighbors=n_neighbors, mode=mode, shortlist=shortlist
        )
        with self.read_views() as views:
            return self._scatter_knn(views, arr, n_neighbors, mode, shortlist)

    def range_query(self, query, epsilon: float):
        """All objects within *epsilon*: the sorted union of per-shard
        range answers (each already in canonical order)."""
        arr = self._checked_query(query, epsilon=epsilon)
        with self.read_views() as views:
            return self._scatter_exact(
                views,
                "sharded_range",
                lambda view: view._range(arr, epsilon),
                None,
                {"epsilon": epsilon},
            )

    def _scatter_knn(self, views, arr, n_neighbors, mode, shortlist, batch=None):
        if mode == "approx":
            if not any(view.size for view in views):
                return [], QueryStats()
            with self._outer_ctx("approx", views):
                return self._scatter_approx(
                    views, arr, n_neighbors, shortlist, batch
                )
        return self._scatter_exact(
            views,
            "sharded_knn",
            lambda view: view._knn(arr, n_neighbors),
            n_neighbors,
            {"k": n_neighbors},
            batch,
        )

    def _scatter_exact(self, views, kind, leg, limit, extra, batch=None):
        """Exact scatter → merge → record: run *leg* on every pinned
        view, merge on ``(distance, oid)`` (cut to *limit*), and log one
        merged *kind* event."""
        total = sum(view.size for view in views)
        if total == 0:
            return [], QueryStats()
        with self._outer_ctx("exact", views):
            with span(
                "query.sharded_scatter", force=True, shards=self.n_shards
            ) as scatter_sp:
                per_shard = []
                for i, view in enumerate(views):
                    with self._shard_ctx(i):
                        per_shard.append(leg(view))
            with span("query.sharded_merge", force=True) as merge_sp:
                results = self._merge_matches(per_shard, limit)
                stats = self._merge_stats(per_shard)
            extra = {**extra, "results": len(results)}
            if batch is not None:
                extra["batch"] = batch
            self._record(
                kind,
                stats,
                total,
                filter_seconds=scatter_sp.seconds,
                refine_seconds=merge_sp.seconds,
                **extra,
            )
        return results, stats

    def _scatter_approx(self, views, arr, n_neighbors, shortlist, batch=None):
        """Approx scatter-gather over the *global* Hamming shortlist.

        Phase one (the filter, timed as such): sketch the query once —
        every shard's sketcher carries the identical seeded projection,
        content-addressed by digest — rank each shard's codes, and merge
        the per-shard (hamming, oid) rankings into the exact shortlist a
        single-shard build would produce.  Phase two: each shard refines
        only the candidates it owns; the (distance, oid) merge of those
        partial top-ks is the single-shard answer, and the merged stats
        are its stats (Σ owned == budget, Σ (n_i - owned_i) == n -
        budget).
        """
        budget = (
            default_shortlist(n_neighbors) if shortlist is None else int(shortlist)
        )
        budget = max(budget, n_neighbors)
        total = sum(view.size for view in views)
        active = [i for i, view in enumerate(views) if view.size]
        for i in active:
            if self.shards[i]._hamming is None:
                raise QueryError(
                    "approx queries need the sketch tier; this database "
                    "was built with sketch=False"
                )
        with span("query.sharded_shortlist", force=True, budget=budget) as ssp:
            code = self.shards[active[0]]._sketcher.sketch(arr)
            hams, oids, owners = [], [], []
            for i in active:
                hamming = self.shards[i]._hamming
                hams.append(hamming.distances(code[None, :])[0])
                oids.append(hamming.oids)
                owners.append(np.full(len(hamming), i, dtype=np.int64))
            ham = np.concatenate(hams)
            oid = np.concatenate(oids)
            owner = np.concatenate(owners)
            order = np.lexsort((oid, ham))[: min(budget, len(oid))]
            chosen_oids = oid[order]
            chosen_owner = owner[order]
        with span("query.sharded_refine", force=True) as rsp:
            per_shard = []
            skipped = 0
            for i in active:
                owned = chosen_oids[chosen_owner == i]
                if not len(owned):
                    # No shortlist member lives here: the whole shard is
                    # pruned, exactly as a single-shard build would have
                    # pruned those objects.
                    skipped += views[i].size
                    continue
                with self._shard_ctx(i):
                    per_shard.append(
                        self.shards[i]._engine.knn_refine_subset(
                            arr, n_neighbors, owned
                        )
                    )
            results = self._merge_matches(per_shard, n_neighbors)
            stats = self._merge_stats(per_shard)
            stats.pruned += skipped
        extra = {
            "k": n_neighbors,
            "results": len(results),
            "budget": budget,
            "shortlist_size": len(chosen_oids),
        }
        if batch is not None:
            extra["batch"] = batch
        self._record(
            "sharded_approx_knn",
            stats,
            total,
            filter_seconds=ssp.seconds,
            refine_seconds=rsp.seconds,
            **extra,
        )
        return results, stats

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
        writer interleaving.  ``n_jobs >= 2`` splits the batch into
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
        with self.read_views() as views:
            return [
                self._scatter_knn(
                    views, q, n_neighbors, mode, shortlist, batch=len(queries)
                )
                for q in queries
            ]

    def _parallel_knn_many(self, queries, n_neighbors, mode, jobs):
        if mode != "exact":
            raise QueryError(
                "parallel batch queries support mode='exact' only; "
                "approx scatter-gather runs in-process"
            )
        saved = self._saved
        if saved is None:
            raise QueryError(
                "parallel batch queries serve the saved sharded snapshot; "
                "call save() (or load a saved layout) first"
            )
        if self.version_vector() != saved.versions:
            raise QueryError(
                "sharded snapshot is stale (mutations since the last "
                "save()); save() again before parallel batch queries"
            )
        chunks = min(jobs, len(queries))
        bounds = [len(queries) * i // chunks for i in range(chunks + 1)]
        tasks = [
            (saved.token, saved.paths, queries[lo:hi], n_neighbors)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        with span(
            "query.sharded_scatter",
            force=True,
            shards=self.n_shards,
            jobs=jobs,
        ) as scatter_sp:
            legs = pool_map(_chunk_knn_task, tasks, chunks)
        self.last_parallel_legs = [seconds for _, seconds in legs]
        with span("query.sharded_merge", force=True) as merge_sp:
            out = [
                ([QueryMatch(oid, dist) for oid, dist in pairs], QueryStats(**stats))
                for answers, _ in legs
                for pairs, stats in answers
            ]
        if registry().enabled:
            share = 1.0 / len(queries)
            total = len(self)
            with querylog.query_context(
                backend=self.backend,
                mode="exact",
                db_version=sum(saved.versions),
                shards=self.n_shards,
            ):
                for matches, stats in out:
                    self._record(
                        "sharded_knn",
                        stats,
                        total,
                        filter_seconds=scatter_sp.seconds * share,
                        refine_seconds=merge_sp.seconds * share,
                        k=n_neighbors,
                        results=len(matches),
                        batch=len(queries),
                        jobs=jobs,
                    )
        return out

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
        layouts load each shard archive with its index served from the
        saved node tables.  With no *pipeline* given, the one the layout was
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
