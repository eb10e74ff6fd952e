"""Cross-shard differential machine: sharded == single-shard, always.

The equality contract of :mod:`repro.db.sharded`: a scatter-gather
query against K independent shards returns *byte-identical* results —
same ids, same float distances, same order — to a single-shard
``SimilarityDatabase`` holding the same objects.  A hypothesis rule
machine drives arbitrary add/remove/update/compact/reshard sequences
against a (sharded, mirror) pair per backend and checks knn, range,
batch, and approx-mode answers after every step; integer coordinates
keep every distance exactly representable, so the comparison is
literal equality, never approximate.

The non-stateful tests cover the seams the machine can't reach:
routing stability, manifest round-trips, reshard after a reload, the
parallel batch path against its serial answer, and the stale-snapshot
guard.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.queries import QueryStats
from repro.db import (
    BACKENDS,
    ShardedSimilarityDatabase,
    SimilarityDatabase,
    open_database,
    shard_of,
)
from repro.exceptions import QueryError, SnapshotIntegrityError, StorageError
from repro.testing.faults import corrupt_bytes
from tests.conftest import (
    assert_answers_like_a_fresh_pack,
    assert_engine_is_fresh,
    reads_only,
)

CAPACITY = 3
DIM = 3

coordinates = st.integers(min_value=-16, max_value=16)
vector_sets = st.lists(
    st.tuples(*[coordinates] * DIM), min_size=1, max_size=CAPACITY
).map(lambda rows: np.asarray(rows, dtype=float))


def pairs(results):
    return [(m.object_id, m.distance) for m in results]


class ShardedDifferentialMachine(RuleBasedStateMachine):
    """One (sharded, mirror) pair per backend; equality after every step."""

    def __init__(self):
        super().__init__()
        self.dbs = {
            backend: (
                ShardedSimilarityDatabase(
                    CAPACITY, shards=3, backend=backend, index_capacity=4
                ),
                SimilarityDatabase(
                    CAPACITY, backend=backend, index_capacity=4
                ),
            )
            for backend in BACKENDS
        }
        self.model: dict[int, np.ndarray] = {}
        self.next_oid = 0

    # -- mutations ---------------------------------------------------------

    @rule(arr=vector_sets, stride=st.integers(min_value=1, max_value=9))
    def add(self, arr, stride):
        # Strided ids keep the CRC routing honest on sparse id spaces.
        oid = self.next_oid
        self.next_oid += stride
        for sharded, mirror in self.dbs.values():
            sharded.add(oid, arr)
            mirror.add(oid, arr)
        self.model[oid] = arr

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove(self, data):
        oid = data.draw(st.sampled_from(sorted(self.model)))
        for sharded, mirror in self.dbs.values():
            assert sharded.remove(oid) is True
            assert mirror.remove(oid) is True
        del self.model[oid]

    @rule()
    def remove_absent(self):
        missing = self.next_oid + 1
        for sharded, mirror in self.dbs.values():
            assert sharded.remove(missing) is False
            assert mirror.remove(missing) is False

    @precondition(lambda self: self.model)
    @rule(arr=vector_sets, data=st.data())
    def update(self, arr, data):
        oid = data.draw(st.sampled_from(sorted(self.model)))
        for sharded, mirror in self.dbs.values():
            sharded.update(oid, arr)
            mirror.update(oid, arr)
        self.model[oid] = arr

    @rule()
    def compact(self):
        for sharded, mirror in self.dbs.values():
            sharded.compact()
            mirror.compact()

    @rule(new_shards=st.integers(min_value=1, max_value=5))
    def reshard(self, new_shards):
        # Only the sharded side repartitions; the mirror is untouched —
        # query equality must be insensitive to the partitioning.
        for sharded, _ in self.dbs.values():
            sharded.reshard(new_shards)
            assert sharded.n_shards == new_shards

    @rule(new_shards=st.integers(min_value=1, max_value=4))
    def rebalance_on_compact(self, new_shards):
        for sharded, _ in self.dbs.values():
            sharded.compact(shards=new_shards)
            assert sharded.n_shards == new_shards

    # -- drawn queries ------------------------------------------------------

    @precondition(lambda self: self.model)
    @rule(query=vector_sets, k=st.integers(min_value=1, max_value=6))
    def knn_matches(self, query, k):
        for backend, (sharded, mirror) in self.dbs.items():
            got, _ = sharded.knn_query(query, k)
            want, _ = mirror.knn_query(query, k)
            assert pairs(got) == pairs(want), backend

    @precondition(lambda self: self.model)
    @rule(query=vector_sets, epsilon=st.floats(0.0, 12.0, allow_nan=False))
    def range_matches(self, query, epsilon):
        for backend, (sharded, mirror) in self.dbs.items():
            got, _ = sharded.range_query(query, epsilon)
            want, _ = mirror.range_query(query, epsilon)
            assert pairs(got) == pairs(want), backend

    @precondition(lambda self: self.model)
    @rule(
        query=vector_sets,
        k=st.integers(min_value=1, max_value=4),
        budget=st.integers(min_value=1, max_value=10),
    )
    def approx_matches(self, query, k, budget):
        # Approx mode must reconstruct the *global* Hamming shortlist:
        # results AND merged stats equal the single-shard build's.
        for backend, (sharded, mirror) in self.dbs.items():
            got, got_stats = sharded.knn_query(
                query, k, mode="approx", shortlist=budget
            )
            want, want_stats = mirror.knn_query(
                query, k, mode="approx", shortlist=budget
            )
            assert pairs(got) == pairs(want), backend
            assert got_stats.as_dict() == want_stats.as_dict(), backend

    @precondition(lambda self: self.model)
    @rule(queries=st.lists(vector_sets, min_size=1, max_size=3))
    def batch_matches(self, queries):
        for backend, (sharded, mirror) in self.dbs.items():
            got = sharded.knn_query_many(queries, 4)
            want = mirror.knn_query_many(queries, 4)
            assert [pairs(r) for r, _ in got] == [
                pairs(r) for r, _ in want
            ], backend

    # -- standing invariants ------------------------------------------------

    @invariant()
    def membership_agrees(self):
        expected = sorted(self.model)
        for backend, (sharded, mirror) in self.dbs.items():
            assert sharded.object_ids() == expected, backend
            assert mirror.object_ids() == expected, backend
            assert len(sharded) == len(mirror) == len(expected)
            assert sum(len(s) for s in sharded.shards) == len(expected)

    @invariant()
    def engines_match_fresh(self):
        # Every shard maintains its own engine in place; the probes
        # below keep them live.
        for sharded, mirror in self.dbs.values():
            for db in (*sharded.shards, mirror):
                assert_engine_is_fresh(db)

    @invariant()
    def probe_query_matches(self):
        # A deterministic probe after *every* step (rule-drawn queries
        # only run when hypothesis picks those rules).
        if not self.model:
            return
        probe = np.asarray([[1.0, -2.0, 3.0]])
        for backend, (sharded, mirror) in self.dbs.items():
            got, _ = reads_only(sharded, lambda db: db.knn_query(probe, 3))
            want, _ = mirror.knn_query(probe, 3)
            assert pairs(got) == pairs(want), backend
            # Every core plus delta, each shard's and the mirror's, answers
            # and counts like a fresh pack of its objects.
            for db in (*sharded.shards, mirror):
                assert_answers_like_a_fresh_pack(db, [probe], k=3, epsilon=6.0)
            got, _ = sharded.knn_query(probe, 3, mode="approx", shortlist=4)
            want, _ = mirror.knn_query(probe, 3, mode="approx", shortlist=4)
            assert pairs(got) == pairs(want), backend


TestShardedDifferential = ShardedDifferentialMachine.TestCase


# -- routing ---------------------------------------------------------------


def test_routing_is_stable_and_total():
    for oid in (0, 1, 7, 10**9, -3):
        owners = [shard_of(oid, 4) for _ in range(3)]
        assert len(set(owners)) == 1
        assert 0 <= owners[0] < 4
    assert shard_of(123, 1) == 0
    with pytest.raises(QueryError):
        shard_of(1, 0)


def test_routing_spreads_dense_ids():
    owners = {shard_of(oid, 4) for oid in range(64)}
    assert owners == {0, 1, 2, 3}


# -- persistence seams -----------------------------------------------------


def build_pair(rng, count=30, shards=4, backend="xtree"):
    sharded = ShardedSimilarityDatabase(CAPACITY, shards=shards, backend=backend)
    mirror = SimilarityDatabase(CAPACITY, backend=backend)
    sets = {}
    for oid in range(count):
        arr = rng.integers(-8, 9, size=(int(rng.integers(1, CAPACITY + 1)), DIM)).astype(float)
        sharded.add(oid, arr)
        mirror.add(oid, arr)
        sets[oid] = arr
    return sharded, mirror, sets


def test_save_load_roundtrip(tmp_path, rng):
    sharded, mirror, sets = build_pair(rng)
    root = sharded.save(tmp_path / "layout")
    assert (root / "sharded.json").exists()
    back = ShardedSimilarityDatabase.load(root)
    assert back.n_shards == 4
    assert back.object_ids() == sorted(sets)
    query = sets[0]
    assert pairs(back.knn_query(query, 8)[0]) == pairs(
        mirror.knn_query(query, 8)[0]
    )
    assert pairs(
        back.knn_query(query, 5, mode="approx", shortlist=12)[0]
    ) == pairs(mirror.knn_query(query, 5, mode="approx", shortlist=12)[0])
    # Reloaded shards are node-for-node what was saved.
    assert back.index_digests() == sharded.index_digests()
    assert back.sketch_digests() == sharded.sketch_digests()


@pytest.mark.parametrize(
    "count, sketch_kwargs",
    [
        (40, {"sketch": False}),
        (40, {"sketch_params": {"seed": 11, "width": 128}}),
        # Fewer objects than shards: the reloaded layout has empty
        # shards, which carry no sketcher to read the seed from.
        (3, {"sketch_params": {"seed": 11, "width": 128}}),
    ],
    ids=["no-sketch", "seeded-sketch", "seeded-sketch-empty-shards"],
)
def test_reshard_after_reload_keeps_shard_parameters(
    tmp_path, rng, count, sketch_kwargs
):
    """A reloaded layout reshards exactly like the instance that wrote
    it: fresh shards inherit ω, block size, index capacity and sketch
    parameters from the live shards, not constructor defaults."""
    params = dict(
        omega=np.full(4, 5.0),
        block_size=4,
        index_capacity=5,
        **sketch_kwargs,
    )
    live = ShardedSimilarityDatabase(5, shards=4, **params)
    sets = [
        rng.standard_normal((int(rng.integers(1, 6)), 4)) * 3.0
        for _ in range(count)
    ]
    for oid, arr in enumerate(sets):
        live.add(oid, arr)
    back = open_database(live.save(tmp_path / "layout"))
    live.reshard(3)
    back.reshard(3)
    for shard in back.shards:
        assert np.array_equal(shard.omega, params["omega"])
        assert shard.block_size == 4
        assert shard.index_capacity == 5
        assert shard.sketch_enabled is sketch_kwargs.get("sketch", True)
    assert back.index_digests() == live.index_digests()
    assert back.sketch_digests() == live.sketch_digests()

    def answers(db, query):
        out = [db.knn_query(query, 5), db.range_query(query, 9.0)]
        if sketch_kwargs.get("sketch", True):
            out.append(db.knn_query(query, 5, mode="approx", shortlist=8))
        return [(pairs(results), stats.as_dict()) for results, stats in out]

    for query in sets[:5]:
        assert answers(back, query) == answers(live, query)


def test_open_database_dispatches(tmp_path, rng):
    sharded, mirror, sets = build_pair(rng, count=12)
    sharded_root = sharded.save(tmp_path / "sharded")
    single_path = mirror.save(tmp_path / "single.npz")
    opened = open_database(sharded_root)
    assert isinstance(opened, ShardedSimilarityDatabase)
    assert isinstance(open_database(single_path), SimilarityDatabase)
    with pytest.raises(StorageError):
        ShardedSimilarityDatabase.load(tmp_path)


def test_save_prunes_orphan_archives_after_reshard(tmp_path, rng):
    sharded, _, sets = build_pair(rng, count=12, shards=4)
    root = sharded.save(tmp_path / "layout")
    assert len(list(root.glob("shard-*.npz"))) == 4
    sharded.reshard(2)
    sharded.save(root)
    assert len(list(root.glob("shard-*.npz"))) == 2
    back = ShardedSimilarityDatabase.load(root)
    assert back.n_shards == 2
    assert back.object_ids() == sorted(sets)


def test_parallel_batch_matches_serial(tmp_path, rng):
    sharded, mirror, sets = build_pair(rng)
    queries = [sets[1], sets[2], sets[3]]
    sharded.save(tmp_path / "layout")
    parallel = sharded.knn_query_many(queries, 6, n_jobs=2)
    serial = sharded.knn_query_many(queries, 6)
    single = [mirror.knn_query(q, 6) for q in queries]
    assert [pairs(r) for r, _ in parallel] == [pairs(r) for r, _ in serial]
    assert [pairs(r) for r, _ in parallel] == [pairs(r) for r, _ in single]
    # A pool worker answers whole queries over every shard at once: its
    # stats are the single database's, not the per-shard sum.
    assert [s.as_dict() for _, s in parallel] == [
        s.as_dict() for _, s in single
    ]
    assert len(sharded.last_parallel_legs) == 2  # min(n_jobs, queries) chunks


def assert_pooled_like_mirror(sharded, mirror, queries, k, jobs=2):
    """The pooled batch answers, in query order, what the serial scatter
    and the single database answer, with the single database's stats,
    from one leg per chunk."""
    pooled = sharded.knn_query_many(queries, k, n_jobs=jobs)
    serial = sharded.knn_query_many(queries, k)
    single = [mirror.knn_query(q, k) for q in queries]
    assert len(pooled) == len(queries)
    assert [pairs(r) for r, _ in pooled] == [pairs(r) for r, _ in serial]
    assert [pairs(r) for r, _ in pooled] == [pairs(r) for r, _ in single]
    assert [s.as_dict() for _, s in pooled] == [s.as_dict() for _, s in single]
    assert len(sharded.last_parallel_legs) == min(jobs, len(queries))


@pytest.mark.parametrize("shards", [2, 3, 5])
@pytest.mark.parametrize("batch", [1, 2, 5])  # 1, jobs and 2 * jobs + 1
def test_pooled_batch_answers_like_one_database(tmp_path, rng, shards, batch):
    sharded, mirror, sets = build_pair(rng, count=24, shards=shards)
    sharded.save(tmp_path / "layout")
    # Distinct queries in a shuffled order: an answer out of place shows.
    order = rng.permutation(len(sets))[:batch]
    assert_pooled_like_mirror(sharded, mirror, [sets[int(i)] for i in order], 5)


def test_pooled_batch_over_a_dense_save(tmp_path, rng):
    sharded, mirror, sets = build_pair(rng, count=20, shards=3)
    sharded.save(tmp_path / "layout", dense=True)
    assert_pooled_like_mirror(sharded, mirror, [sets[i] for i in (4, 0, 9)], 6)


def test_pooled_batch_after_reshard_and_save(tmp_path, rng):
    sharded, mirror, sets = build_pair(rng, count=20, shards=2)
    root = sharded.save(tmp_path / "layout")
    sharded.knn_query_many([sets[0]], 3, n_jobs=2)
    sharded.reshard(5)
    with pytest.raises(QueryError, match="saved sharded snapshot"):
        sharded.knn_query_many([sets[0]], 3, n_jobs=2)
    sharded.save(root)
    assert_pooled_like_mirror(sharded, mirror, [sets[i] for i in (7, 3, 11, 1, 5)], 4)


def test_pooled_batch_with_k_larger_than_a_shard(tmp_path, rng):
    sharded, mirror, sets = build_pair(rng, count=12, shards=5)
    sharded.save(tmp_path / "layout")
    assert max(len(shard) for shard in sharded.shards) < 8
    assert_pooled_like_mirror(sharded, mirror, [sets[i] for i in (2, 6, 10)], 8)
    assert_pooled_like_mirror(sharded, mirror, [sets[3]], 20)  # k > n


def test_pooled_batch_never_serves_an_earlier_save(tmp_path, rng):
    """A save that leaves the shard files' timestamps as they were must
    still reach the pool workers (a coarse clock does that, so does a
    restored mtime)."""
    sharded, mirror, sets = build_pair(rng, count=20, shards=2)
    root = sharded.save(tmp_path / "layout")
    files = sorted(root.glob("shard-*.npz"))
    times = {path: os.stat(path).st_mtime_ns for path in files}
    for _ in range(4):  # every worker caches the first save
        assert sharded.knn_query_many([sets[5]] * 2, 3, n_jobs=2)[0][0][0].object_id == 5
    sharded.remove(5)
    mirror.remove(5)
    sharded.save(root)
    for path, mtime in times.items():
        os.utime(path, ns=(mtime, mtime))
    for _ in range(4):
        assert_pooled_like_mirror(sharded, mirror, [sets[5], sets[5]], 3)


def test_worker_layout_cache_is_bounded(tmp_path, rng):
    """A worker keeps the few layouts it answered last, not one per save."""
    from repro.db import sharded as module

    sharded, _, _ = build_pair(rng, count=8, shards=2)
    sharded.save(tmp_path / "layout")
    paths = sharded._saved.paths
    module._LAYOUT_DBS.clear()
    try:
        opened = [module._layout_db(f"save-{i}", paths) for i in range(6)]
        assert len(module._LAYOUT_DBS) == module._LAYOUT_DB_LIMIT >= 2
        assert module._layout_db("save-4", paths) is opened[4]
        assert module._layout_db("save-5", paths) is opened[5]
        assert module._layout_db("save-0", paths) is not opened[0]
    finally:
        module._LAYOUT_DBS.clear()


def test_pooled_batch_reports_a_corrupt_shard_typed(tmp_path, rng):
    sharded, mirror, sets = build_pair(rng, count=20, shards=3)
    root = sharded.save(tmp_path / "layout")
    damaged = root / "shard-00001.npz"
    corrupt_bytes(damaged, offset=damaged.stat().st_size // 2, count=16)
    with pytest.raises(SnapshotIntegrityError, match="shard-00001.npz"):
        sharded.knn_query_many([sets[0], sets[1]], 3, n_jobs=2)
    # The pool survives the error: a healthy layout still answers.
    healthy, healthy_mirror, healthy_sets = build_pair(rng, count=20, shards=3)
    healthy.save(tmp_path / "healthy")
    assert_pooled_like_mirror(healthy, healthy_mirror, [healthy_sets[0], healthy_sets[1]], 3)


def test_pooled_batch_refuses_shards_that_disagree(tmp_path, rng):
    sharded, _, sets = build_pair(rng, count=12, shards=2)
    root = sharded.save(tmp_path / "layout")
    other = ShardedSimilarityDatabase(CAPACITY, shards=2, block_size=3)
    for oid, arr in sets.items():
        other.add(oid, arr)
    other.save(tmp_path / "other")
    (tmp_path / "other" / "shard-00001.npz").replace(root / "shard-00001.npz")
    with pytest.raises(StorageError, match="shard-00001.npz.*'block_size'"):
        sharded.knn_query_many([sets[0]], 3, n_jobs=2)


def test_parallel_batch_guards(tmp_path, rng):
    sharded, _, sets = build_pair(rng, count=10)
    with pytest.raises(QueryError, match="saved sharded snapshot"):
        sharded.knn_query_many([sets[0]], 3, n_jobs=2)
    sharded.save(tmp_path / "layout")
    sharded.add(999, sets[0])
    with pytest.raises(QueryError, match="stale"):
        sharded.knn_query_many([sets[0]], 3, n_jobs=2)
    with pytest.raises(QueryError, match="exact"):
        sharded.knn_query_many([sets[0]], 3, mode="approx", n_jobs=2)


def test_constructor_and_mode_validation(tmp_path):
    with pytest.raises(QueryError):
        ShardedSimilarityDatabase(CAPACITY, shards=0)
    with pytest.raises(QueryError):
        ShardedSimilarityDatabase(CAPACITY, path=tmp_path / "x")
    db = ShardedSimilarityDatabase(CAPACITY, shards=2)
    with pytest.raises(QueryError):
        db.knn_query(np.ones((1, DIM)), 3, mode="nope")
    with pytest.raises(QueryError):
        db.knn_query(np.ones((1, DIM)), 3, shortlist=5)
    with pytest.raises(QueryError):
        db.reshard(0)
    with pytest.raises(QueryError):
        db.save()
    results, stats = db.knn_query(np.ones((1, DIM)), 3)
    assert results == [] and stats.as_dict() == QueryStats().as_dict()
