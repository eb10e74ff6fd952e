"""The four workloads: what each builds, opens and runs per timed op.

Every workload drives the database through its public API only
(``SimilarityDatabase`` / ``ShardedSimilarityDatabase`` /
``open_database`` / ``Pipeline.features_for_grid``).  A workload saves
into a directory of its own, ``<saved>/db`` being the database path, so
a traced run can copy the saved state and replay the same ops on it.
Durable databases use ``fsync="always"``.

Sizes are what fits the benchmark contract's time cap (about 30 s per
run) when set-up and the pass over the op list are repeated four to ten
times in a run: a pass holds the 200 queries the p95 rule needs or a
small multiple, and ``n`` keeps a round at 2-6 s.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter

from benchmarks.e2e import inputs as gen
from benchmarks.e2e.inputs import KNN_K, SET_K, Op

# The line below is the benchmark's only handle on the program.
from repro.db import ShardedSimilarityDatabase, SimilarityDatabase, open_database


class Workload:
    """One workload instance for one ``(seed, quick)``.

    Subclasses set the sizes and implement :meth:`build`, :meth:`open`,
    :meth:`execute` and :meth:`entries`; ``self.inputs`` hands out the
    ops and ``self.mirror()`` is what the oracle scans.
    """

    name: str
    n: int
    #: Timed ops of one pass of an untraced run (the length of the
    #: workload's op list).
    pass_ops: int
    #: Timed ops of each pass of a traced run (a fixed count, so the
    #: count-type layer metrics repeat exactly).
    trace_ops: int
    #: Every how many ops an exact answer is compared with the oracle
    #: (keyed and approximate ones always are).
    check_every = 2

    def __init__(self, seed: int, quick: bool):
        if quick:
            self.n = max(KNN_K + 2, self.n // 10)
            self.pass_ops = max(20, self.pass_ops // 10)
            self.trace_ops = max(20, self.trace_ops // 10)
        self.seed = seed
        self.quick = quick
        self.inputs = self.make_inputs()
        self.pass_ops = len(self.inputs.ops)
        self.trace_ops = min(self.trace_ops, self.pass_ops)

    def make_inputs(self):
        raise NotImplementedError

    # -- set-up ------------------------------------------------------------

    def build(self, saved: Path) -> list[float]:
        """Ingest the corpus object by object into a database under the
        existing directory *saved*, save, close; returns the seconds
        each insert took."""
        raise NotImplementedError

    def open(self, saved: Path):
        raise NotImplementedError

    def warm_up(self, db) -> None:
        for op in self.inputs.warm_ops:
            self.execute(db, op)

    def first_query(self, db, variant: int = 0):
        """The first 10-nn after an open: ``(matches, stats)``.  What it
        costs depends on the query, so there are ``FIRST_QUERIES``
        variants of it (``self.first_sets``)."""
        return db.knn_query(self.first_sets[variant], KNN_K)

    def finish(self, db) -> int:
        """Final save/checkpoint and close; returns the live objects."""
        live = len(db)
        db.close()
        return live

    def cleanup(self) -> None:
        pass

    # -- timed phase -------------------------------------------------------

    def execute(self, db, op: Op):
        raise NotImplementedError

    def entries(self, op: Op, raw):
        """``[(kind, query_set, matches, stats), ...]`` for the queries
        of one op (empty for a mutation)."""
        raise NotImplementedError

    def weight(self, op: Op) -> int:
        """Completed operations one op stands for."""
        return 1

    def mirror(self):
        """``(sets, version)``: the live sets as the benchmark knows them."""
        raise NotImplementedError

    def pool_speedup(self, db, latencies: list[float]) -> float | None:
        return None


def _ingest(corpus, add) -> list[float]:
    """Add the corpus object by object; the seconds each insert took."""
    walls = []
    for oid, item in corpus:
        start = perf_counter()
        add(oid, item)
        walls.append(perf_counter() - start)
    return walls


class PartsGridKnn(Workload):
    name = "parts_grid_knn"
    n = 600
    pass_ops = 400
    trace_ops = 300

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        from repro import Pipeline, VectorSetModel

        self.pipeline = Pipeline(resolution=gen.RESOLUTION)
        self.model = VectorSetModel(SET_K)
        self._sets: dict[int, object] = {}

    def make_inputs(self):
        return gen.GridInputs(self.seed, self.n, self.pass_ops, self.trace_ops)

    def _feature_cache(self, saved: Path):
        from repro.features.cache import FeatureCache

        return FeatureCache(root=saved / "cache")

    def build(self, saved: Path) -> list[float]:
        # A cache directory of its own per build: ingest extracts cold.
        db = SimilarityDatabase(
            SET_K,
            backend="xtree",
            durable=True,
            path=saved / "db",
            fsync="always",
            model=self.model,
            pipeline=self.pipeline,
            cache=self._feature_cache(saved),
        )

        def add(oid, grid):
            self._sets[oid] = db.add_grid(oid, grid)

        walls = _ingest(self.inputs.corpus, add)
        db.checkpoint()
        db.close()
        # The first objects of the family pattern: the same families for
        # every seed.
        self.first_sets = [self._sets[oid] for oid in range(gen.FIRST_QUERIES)]
        return walls

    def open(self, saved: Path):
        return open_database(
            saved / "db",
            model=self.model,
            pipeline=self.pipeline,
            cache=self._feature_cache(saved),
        )

    def execute(self, db, op: Op):
        features = self.pipeline.features_for_grid(op.data, self.model, cache=db.cache)
        return features, db.knn_query(features, KNN_K)

    def entries(self, op, raw):
        features, (matches, stats) = raw
        return [("knn", features, matches, stats)]

    def mirror(self):
        return self._sets, 0


class DegenerateExactKnn(Workload):
    name = "degenerate_exact_knn"
    n = 144
    pass_ops = 200
    trace_ops = 80
    batch = 0

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        self.first_sets = self.inputs.first_sets
        self._sets = dict(self.inputs.corpus)

    def make_inputs(self):
        queries = 20 if self.quick else 200
        return gen.SetQueryInputs(self.seed, self.n, queries, self.batch)

    def build(self, saved: Path) -> list[float]:
        db = SimilarityDatabase(SET_K, backend="xtree")
        walls = _ingest(self.inputs.corpus, db.add)
        db.save(saved / "db", dense=True)
        return walls

    def open(self, saved: Path):
        return open_database(saved / "db")

    def execute(self, db, op: Op):
        return db.knn_query(op.data, KNN_K)

    def entries(self, op, raw):
        matches, stats = raw
        return [("knn", op.data, matches, stats)]

    def mirror(self):
        return self._sets, 0


class ShardedBatchKnn(DegenerateExactKnn):
    """Same corpus and queries as ``degenerate_exact_knn`` (same seed
    labels, same sizes), scattered over two shards and two workers."""

    name = "sharded_batch_knn"
    pass_ops = 20
    trace_ops = 12
    batch = gen.BATCH_SIZE
    jobs = 2
    speedup_queries = 40

    def build(self, saved: Path) -> list[float]:
        db = ShardedSimilarityDatabase(SET_K, shards=2, backend="xtree")
        walls = _ingest(self.inputs.corpus, db.add)
        db.save(saved / "db")
        return walls

    def execute(self, db, op: Op):
        return db.knn_query_many(op.data, KNN_K, n_jobs=self.jobs)

    def entries(self, op, raw):
        return [("knn", query, *result) for query, result in zip(op.data, raw)]

    def weight(self, op: Op) -> int:
        return len(op.data)

    def pool_speedup(self, db, latencies: list[float]) -> float:
        """Wall of the first queries answered in-process (``n_jobs=1``)
        over the wall the pool took for the same batches, which are the
        first ops of the pass that measured *latencies*."""
        queries = self.inputs.queries[: self.speedup_queries]
        batches = [
            queries[at : at + self.batch] for at in range(0, len(queries), self.batch)
        ]
        start = perf_counter()
        for batch in batches:
            db.knn_query_many(batch, KNN_K, n_jobs=1)
        return (perf_counter() - start) / sum(latencies[: len(batches)])

    def cleanup(self) -> None:
        # The program leaves its pool to an atexit hook that does not
        # wait; the benchmark must have seen its workers end.
        from repro.parallel import shared_pool

        shared_pool(self.jobs).shutdown(wait=True)


class MixedDurableRw(Workload):
    name = "mixed_durable_rw"
    n = 800
    pass_ops = 600
    trace_ops = 400
    check_every = 4  # an oracle scan of n = 800 takes ~12 ms

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        self.first_sets = self.inputs.first_sets

    def make_inputs(self):
        return gen.MixedOpStream(self.seed, self.n, self.pass_ops, self.trace_ops)

    def build(self, saved: Path) -> list[float]:
        db = SimilarityDatabase(
            SET_K, backend="xtree", durable=True, path=saved / "db", fsync="always"
        )
        walls = _ingest(self.inputs.corpus, db.add)
        db.checkpoint()
        db.close()
        return walls

    def open(self, saved: Path):
        return open_database(saved / "db")

    def execute(self, db, op: Op):
        kind = op.kind
        if kind == "knn":
            return db.knn_query(op.data, KNN_K)
        if kind == "approx":
            return db.knn_query(
                op.data, KNN_K, mode="approx", shortlist=gen.APPROX_SHORTLIST
            )
        if kind == "range":
            return db.range_query(op.data, gen.RANGE_EPSILON)
        if kind == "add":
            return db.add(op.oid, op.data)
        if kind == "update":
            return db.update(op.oid, op.data)
        if not db.remove(op.oid):
            raise LookupError(f"remove({op.oid}) found nothing to remove")
        return None

    def entries(self, op, raw):
        if op.kind in ("knn", "approx", "range"):
            return [(op.kind, op.data, *raw)]
        return []

    def mirror(self):
        return self.inputs.sets, self.inputs.version

    def finish(self, db) -> int:
        live = len(db)
        db.checkpoint()
        db.close()
        return live


WORKLOADS = {
    cls.name: cls
    for cls in (PartsGridKnn, DegenerateExactKnn, ShardedBatchKnn, MixedDurableRw)
}


def disk_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
