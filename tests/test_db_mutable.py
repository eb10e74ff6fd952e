"""Acceptance tests for the mutable similarity database.

The two headline guarantees from the issue:

* after ANY interleaved add/remove/update workload, a k-nn query
  against the maintained database returns *byte-identical* results to
  a freshly built one;
* a snapshot saved, reloaded in a NEW PROCESS, and queried returns the
  same results with ZERO rebuild work (no ``insert`` and no pack runs
  on load — asserted by monkeypatching, and by ``index_digest``
  equality across the process boundary).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from contextlib import contextmanager

from repro import obs
from repro.db import (
    DB_FORMAT,
    ShardedSimilarityDatabase,
    SimilarityDatabase,
    open_database,
)
from repro.db.archive import read_archive, write_archive
from repro.exceptions import InvariantError, QueryError, StorageError
from repro.index import RStarTree, XTree, arraycore
from tests.conftest import (
    BACKENDS,
    RECORDED_BACKENDS,
    assert_engine_is_fresh,
    parent_config,
    parent_snapshot,
    restamp_layout,
    serialize_index,
    start_database,
)


@contextmanager
def capture_metrics():
    """Enable the process metrics registry for one test body."""
    reg = obs.registry()
    reg.reset()
    obs.enable()
    try:
        yield reg
    finally:
        reg.reset()
        obs.disable()

CAPACITY = 4
DIM = 3


def rand_set(rng):
    return rng.integers(-8, 9, size=(int(rng.integers(1, CAPACITY + 1)), DIM)).astype(
        float
    )


def churn(db, rng, adds=40, removes=12, updates=6):
    """A deterministic interleaved workload; returns the surviving sets."""
    contents = {}
    oid = 0
    for step in range(adds):
        arr = rand_set(rng)
        db.add(oid, arr)
        contents[oid] = arr
        oid += 1
        if step % 3 == 2 and removes:
            victim = int(rng.choice(sorted(contents)))
            assert db.remove(victim)
            del contents[victim]
            removes -= 1
        if step % 5 == 4 and updates:
            target = int(rng.choice(sorted(contents)))
            arr = rand_set(rng)
            db.update(target, arr)
            contents[target] = arr
            updates -= 1
    return contents


def flip_code_word(db, oid):
    """Flip one bit of the stored sketch code of *oid*."""
    engine = db._engine
    engine._code_buf[engine._row(oid), 0] ^= np.uint64(1)


def swap_codes(db, oid):
    """Swap the stored sketch codes of *oid* and the object after it:
    each is a valid sketch, in the wrong row."""
    engine = db._engine
    rows = [engine._row(oid), engine._row(db.object_ids()[3])]
    engine._code_buf[rows] = engine._code_buf[rows[::-1]]


def shift_centroid(db, oid):
    """Move the stored centroid of *oid* off its set's extended centroid."""
    engine = db._engine
    engine._centroid_buf[engine._row(oid)] += 0.5


def engine_row(db, oid):
    """The live ``(padded set, squared norms)`` rows of *oid*."""
    packed, row = db._engine._packed, db._engine._row_of[oid]
    return packed.data[row], packed.sq_norms[row]


def results_tuple(results):
    return [(m.object_id, m.distance) for m in results]


def write_layout(kind, rng, path):
    """Churn a database into one of the four saved layouts (``npz`` /
    ``dense`` / ``durable`` / ``sharded``); returns the surviving sets.
    The durable one keeps a WAL tail to replay."""
    if kind == "durable":
        db = SimilarityDatabase(CAPACITY, durable=True, path=path)
    elif kind == "sharded":
        db = ShardedSimilarityDatabase(CAPACITY, shards=3)
    else:
        db = SimilarityDatabase(CAPACITY)
    contents = churn(db, rng, adds=24)
    if kind == "durable":
        db.checkpoint()
        contents[900] = rand_set(rng)
        db.add(900, contents[900])  # replayed from the log on open
        db.close()
    else:
        db.save(path, dense=kind == "dense")
    return contents


def fresh_database(contents):
    fresh = SimilarityDatabase(CAPACITY)
    for oid in sorted(contents):
        fresh.add(oid, contents[oid])
    return fresh


class TestIncrementalEqualsRebuilt:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_knn_byte_identical_to_fresh_build(self, backend, rng, tmp_path):
        db = start_database(backend, tmp_path / "db", CAPACITY)
        contents = churn(db, rng)
        # A brand-new database with the same final contents: its index
        # was bulk-built, never mutated.
        fresh = SimilarityDatabase(CAPACITY)
        for oid in sorted(contents):
            fresh.add(oid, contents[oid])
        for qi in range(6):
            query = rand_set(rng)
            for k in (1, 5, len(contents)):
                got, _ = db.knn_query(query, k)
                want, _ = fresh.knn_query(query, k)
                assert results_tuple(got) == results_tuple(want), (qi, k)

    def test_range_query_matches_sequential(self, rng):
        db = SimilarityDatabase(CAPACITY)
        churn(db, rng)
        query = rand_set(rng)
        everything, _ = db._engine.knn_sequential(query, len(db))
        for eps in (0.5, 2.75, 6.0):
            got, _ = db.range_query(query, eps)
            want = [m for m in everything if m.distance <= eps]
            assert results_tuple(got) == results_tuple(want)


class TestEngineInvalidation:
    def test_queries_never_see_stale_candidates(self, rng):
        """Every mutation must invalidate the packed engine: a removed
        object can never reappear, an added one is visible at once."""
        db = SimilarityDatabase(CAPACITY)
        a, b = rand_set(rng), rand_set(rng)
        db.add(1, a)
        db.add(2, b)
        assert {m.object_id for m in db.knn_query(a, 2)[0]} == {1, 2}
        db.remove(1)
        results, _ = db.knn_query(a, 5)
        assert [m.object_id for m in results] == [2]
        db.add(3, a)
        results, _ = db.knn_query(a, 1)
        assert results[0].object_id == 3 and results[0].distance == 0.0
        db.update(2, a)
        results, _ = db.knn_query(a, 5)
        assert {m.distance for m in results} == {0.0}

    def test_engine_rebuilds_are_lazy_and_batched(self, rng, tmp_path, monkeypatch):
        """One ``FilterRefineEngine.__init__`` per open, per first add and
        per add after the database was emptied - the engine is the object
        store - and none ever inside a query or any other mutation."""
        from repro.core.queries import FilterRefineEngine

        builds = []
        init = FilterRefineEngine.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(FilterRefineEngine, "__init__", counting_init)
        db = SimilarityDatabase(CAPACITY)
        assert not builds
        for oid in range(8):
            db.add(oid, rand_set(rng))
            assert len(builds) == 1  # the first add's
        for step in range(50):
            if step % 3 == 0:
                db.add(100 + step, rand_set(rng))
            elif step % 3 == 1:
                db.update(db.object_ids()[step % len(db)], rand_set(rng))
            else:
                assert db.remove(db.object_ids()[step % len(db)])
            query = rand_set(rng)
            db.knn_query(query, 2)
            db.knn_query(query, 2, mode="approx", shortlist=4)
            db.range_query(query, 3.0)
        assert len(builds) == 1
        for dense in (False, True):
            db.save(tmp_path / "db.snap", dense=dense)
            del builds[:]
            opened = SimilarityDatabase.load(tmp_path / "db.snap")
            assert len(builds) == 1  # the open's
            opened.knn_query(rand_set(rng), 2)
            opened.add(999, rand_set(rng))
            assert len(builds) == 1
        # Only emptying the database drops the engine.
        del builds[:]
        for oid in db.object_ids():
            db.remove(oid)
        assert db.knn_query(rand_set(rng), 2)[0] == [] and not builds
        db.add(0, rand_set(rng))
        db.knn_query(rand_set(rng), 2)
        assert len(builds) == 1

    @pytest.mark.parametrize("shards", [None, 2], ids=["plain", "2-shard"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_maintained_engine_answers_like_a_fresh_build(
        self, backend, shards, rng, tmp_path
    ):
        """With an engine live from the first object on, walk every kind
        of step — adds across buffer growths, removals that move the last
        row, shrinking and growing updates, emptying the
        database and refilling it, save and reload — holding incremental
        == fresh after each.  Results, ``QueryStats`` and wide events
        must then be literally those of a fresh build of the contents."""

        def make():
            return start_database(backend, tmp_path / "start", CAPACITY, shards=shards)

        query = rand_set(rng)

        def answers(db):
            return [
                db.knn_query(query, 5),
                db.range_query(query, 6.0),
                db.knn_query(query, 5, mode="approx", shortlist=7),
                *db.knn_query_many([query, query[:1]], 4),
            ]

        db, contents = make(), {}

        def step(op, oid, rows=None):
            if op == "remove":
                assert db.remove(oid)
                del contents[oid]
            else:
                contents[oid] = rng.integers(-8, 9, size=(rows, DIM)).astype(float)
                getattr(db, op)(oid, contents[oid])
            answers(db)
            for part in getattr(db, "shards", [db]):
                assert_engine_is_fresh(part)

        for oid in range(20):  # per engine: 1 -> 2 -> 4 -> 8 -> 16 rows
            step("add", oid, 1 + oid % CAPACITY)
        for oid in (0, 1, 2, 3):  # oldest rows: the last one moves in
            step("remove", oid)
        step("update", 5, 1)
        step("update", 5, CAPACITY)
        step("add", 40, 2)
        for oid in sorted(contents):
            step("remove", oid)
        assert len(db) == 0
        for oid in (7, 3, 11, 5, 9, 2):
            step("add", oid, 2)
        db = open_database(db.save(tmp_path / ("layout" if shards else "db.npz")))
        step("add", 50, 3)
        step("remove", 7)
        step("update", 3, CAPACITY)

        fresh = make()
        for oid in sorted(contents):
            fresh.add(oid, contents[oid])
        assert [(results_tuple(r), s) for r, s in answers(db)] == [
            (results_tuple(r), s) for r, s in answers(fresh)
        ]
        # The churned database's wide events are the fresh one's (no
        # rebuild between); its engines stay as churned.

        def observed(target, name):
            trace = tmp_path / f"{name}.jsonl"
            with capture_metrics():
                obs.configure_sink(trace)
                try:
                    got = answers(target)
                finally:
                    obs.close_sink()
            volatile = {"ts", "seconds", "filter_seconds", "refine_seconds", "db_version"}
            events = [
                {key: value for key, value in record.items() if key not in volatile}
                for record in map(json.loads, trace.read_text().splitlines())
                if record["event"] == "query"
            ]
            return [(results_tuple(r), stats.as_dict()) for r, stats in got], events

        got, got_events = observed(db, "mutated")
        want, want_events = observed(fresh, "fresh")
        assert got == want
        assert got_events == want_events and got_events
        # The public digest: engines churned in place against the ones
        # `fresh` grew by ascending-oid appends.
        digests = [
            [part.engine_digest() for part in getattr(target, "shards", [target])]
            for target in (db, fresh)
        ]
        assert digests[0] == digests[1] and "empty" not in digests[0]

    def test_mutation_counters(self, rng):
        db = SimilarityDatabase(CAPACITY)
        with capture_metrics() as reg:
            db.add(1, rand_set(rng))
            db.add(2, rand_set(rng))
            db.update(2, rand_set(rng))
            db.remove(1)
            assert reg.counter("db.mutations.add").value == 2
            assert reg.counter("db.mutations.update").value == 1
            assert reg.counter("db.mutations.remove").value == 1
            assert reg.gauge("db.size").value == 1


class TestCheckInvariants:
    def make(self, rng, backend="xtree", path=None):
        db = start_database(backend, path, CAPACITY)
        churn(db, rng, adds=16, removes=3, updates=2)
        return db

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_holds_through_churn_and_reload(self, backend, rng, tmp_path):
        db = self.make(rng, backend, tmp_path / "start")
        db.check_invariants()
        for dense in (False, True):
            path = tmp_path / f"snap-{dense}"
            db.save(path, dense=dense)
            SimilarityDatabase.load(path).check_invariants()
        start_database(backend, tmp_path / "empty", CAPACITY).check_invariants()

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (shift_centroid, "stored centroid of object"),
            (swap_codes, "sketch code of object"),
            (flip_code_word, "sketch code of object"),
            (lambda db, oid: db._engine._oid_buf.__setitem__(
                db._engine._row(oid), 10**9), "not a bijection"),
            (lambda db, oid: engine_row(db, oid)[0].__setitem__((-1, 0), 5.0),
             "padded tail of object"),
            (lambda db, oid: engine_row(db, oid)[1].__setitem__(0, -1.0),
             "squared norms of object"),
            (lambda db, oid: db._engine._row_of.__setitem__(
                oid, (db._engine._row_of[oid] + 1) % len(db)), "not a bijection"),
        ],
        ids=["centroid", "sketch", "sketch-code", "engine-ids",
             "engine-row", "sq-norm", "row-map"],
    )
    def test_names_the_first_disagreement(self, rng, tamper, message):
        """The faults that can still occur with one copy of every object:
        the engine's buffers against each other, and the sketch tier
        against the engine's rows."""
        db = self.make(rng)
        db.update(db.object_ids()[2], np.ones((1, DIM)))  # a row with a padded tail
        tamper(db, db.object_ids()[2])
        with pytest.raises(InvariantError, match=message):
            db.check_invariants()

    @pytest.mark.parametrize("dense", [False, True], ids=["npz", "dense"])
    def test_verify_rejects_a_wrong_stored_centroid(self, rng, tmp_path, dense):
        """Every CRC of the snapshot is valid; only the cross-check of
        the stored centroids against the stored sets can see it."""
        from repro.cli import main

        db = self.make(rng)
        good, bad = tmp_path / "good.db", tmp_path / "bad.db"
        db.save(good, dense=dense)
        shift_centroid(db, db.object_ids()[2])
        db.save(bad, dense=dense)
        assert main(["db", "verify", str(good)]) == 0
        assert main(["db", "verify", str(bad)]) == 1

    @pytest.mark.parametrize("dense", [False, True], ids=["npz", "dense"])
    def test_verify_rejects_a_flipped_sketch_code_word(self, rng, tmp_path, dense):
        """As above for the sketch tier: the ids agree and the CRCs are
        valid, one stored code is not the sketch of its set."""
        from repro.cli import main

        db = self.make(rng)
        flip_code_word(db, db.object_ids()[2])
        db.save(tmp_path / "bad.db", dense=dense)
        assert main(["db", "verify", str(tmp_path / "bad.db")]) == 1

    @pytest.mark.parametrize("layout", ["plain", "2-shard"])
    @pytest.mark.parametrize("dense", [False, True], ids=["npz", "dense"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_negative_object_ids_are_valid(self, rng, tmp_path, backend, dense, layout):
        """``check_object_id`` admits any int64, so a snapshot holding
        negative ids verifies and answers like the database it was saved
        from - also after a mutation of the reopened database."""
        from repro.cli import main

        shards = None if layout == "plain" else 2
        db = start_database(backend, tmp_path / "start", CAPACITY, shards=shards)
        for oid in (-5, -(2**40), *range(1, 15)):
            db.add(oid, rand_set(rng))
        db.save(tmp_path / "saved.db", dense=dense)
        assert main(["db", "verify", str(tmp_path / "saved.db")]) == 0
        reopened = open_database(tmp_path / "saved.db")
        probe, extra = rand_set(rng), rand_set(rng)

        def answers(database):
            return (
                results_tuple(database.knn_query(probe, 5)[0]),
                results_tuple(database.range_query(probe, 9.0)[0]),
                results_tuple(database.knn_query(database.get(-5), 1)[0]),
            )

        assert answers(reopened) == answers(db)
        assert answers(db)[2] == [(-5, 0.0)]
        db.add(-7, extra)
        reopened.add(-7, extra)
        assert answers(reopened) == answers(db)
        reopened.save(tmp_path / "resaved.db", dense=dense)
        assert main(["db", "verify", str(tmp_path / "resaved.db")]) == 0


class TestValidation:
    def test_rejects_bad_input(self, rng):
        db = SimilarityDatabase(CAPACITY)
        db.add(1, rand_set(rng))
        with pytest.raises(QueryError):
            db.add(1, rand_set(rng))  # duplicate id
        with pytest.raises(QueryError):
            db.add(2, rng.normal(size=(CAPACITY + 1, DIM)))  # over capacity
        with pytest.raises(QueryError):
            db.add(2, rng.normal(size=(2, DIM + 1)))  # wrong dimension
        with pytest.raises(QueryError):
            db.update(99, rand_set(rng))  # unknown id
        with pytest.raises(QueryError):
            db.add(2, np.full((1, DIM), np.nan))  # non-finite
        assert db.version == 1  # failed mutations must not bump
        assert db.remove(99) is False

    @pytest.mark.parametrize("layout", ["plain", "dense-reloaded", "2-shard"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_hostile_queries_raise_query_error(self, backend, layout, rng, tmp_path):
        """Every query entry point validates at the database boundary:
        one exception type, raised before any state is touched."""
        shards = 2 if layout == "2-shard" else None
        db = start_database(backend, tmp_path / "start", CAPACITY, shards=shards)
        for oid in range(12):
            db.add(oid, rand_set(rng))
        if layout == "dense-reloaded":
            db.save(tmp_path / "snap.dense", dense=True)
            db = SimilarityDatabase.load(tmp_path / "snap.dense")
        elif layout == "2-shard":
            db.save(tmp_path / "layout")  # arms the parallel batch path
        probe = rand_set(rng)

        def answers():
            return db.version, db.knn_query(probe, 3), db.range_query(probe, 6.0)

        before = answers()
        hostile_sets = [
            np.full((2, DIM), np.nan),
            np.array([[0.0, np.inf, 0.0]]),
            np.zeros((2, DIM + 1)),  # wrong dimension
            np.zeros((CAPACITY + 1, DIM)),  # over capacity
            np.empty((0, DIM)),
        ]
        calls = [lambda: db.knn_query(probe, 0)]
        for bad in hostile_sets:
            calls += [
                lambda bad=bad: db.knn_query(bad, 3),
                lambda bad=bad: db.knn_query(bad, 3, mode="approx", shortlist=6),
                lambda bad=bad: db.range_query(bad, 6.0),
                lambda bad=bad: db.knn_query_many([probe, bad], 3),
            ]
        calls += [
            lambda: db.knn_query_many([probe], 0),
            lambda: db.range_query(probe, -1.0),
            lambda: db.range_query(probe, float("nan")),
            lambda: db.range_query(probe, float("inf")),
            lambda: db.knn_query(probe, 3, shortlist=6),  # mode="exact"
            lambda: db.knn_query(probe, 3, mode="approx", shortlist=0),
            lambda: db.knn_query_many([probe], 3, shortlist=6),
            lambda: db.knn_query(probe, 3, mode="fuzzy"),
            # k, the shortlist budget and epsilon of the wrong type
            lambda: db.knn_query(probe, float("nan")),
            lambda: db.knn_query(probe, 2.5),
            lambda: db.knn_query(probe, "3"),
            lambda: db.knn_query(probe, None),
            lambda: db.knn_query_many([probe], 2.5),
            lambda: db.knn_query(probe, 3, mode="approx", shortlist=2.5),
            lambda: db.range_query(probe, "1"),
            lambda: db.range_query(probe, None),
        ]
        if layout == "2-shard":
            calls += [
                lambda: db.knn_query_many([probe, hostile_sets[0]], 3, n_jobs=2),
                lambda: db.knn_query_many([probe], 0, n_jobs=2),
                lambda: db.knn_query_many([probe], "3", n_jobs=2),
            ]
        else:
            with db.read_view() as view:
                for bad in hostile_sets:
                    with pytest.raises(QueryError):
                        view.knn_query(bad, 3)
                    with pytest.raises(QueryError):
                        view.range_query(bad, 6.0)
                with pytest.raises(QueryError):
                    view.range_query(probe, float("nan"))
                with pytest.raises(QueryError):
                    view.knn_query(probe, 2.5)
        for call in calls:
            with pytest.raises(QueryError):
                call()
        assert answers() == before

    @pytest.mark.parametrize("layout", ["plain", "durable", "2-shard"])
    def test_malformed_object_ids_leave_the_database_untouched(
        self, layout, rng, tmp_path, lshape_grid
    ):
        """An id that is not integral or does not fit int64 is rejected
        at the boundary — before the lock, the WAL and the index — so it
        can neither wedge later queries nor poison a durable log."""
        from repro.features.vector_set_model import VectorSetModel
        from repro.pipeline import Pipeline

        kwargs = dict(model=VectorSetModel(k=CAPACITY), pipeline=Pipeline(resolution=12))
        if layout == "2-shard":
            db = ShardedSimilarityDatabase(CAPACITY, shards=2, **kwargs)
        elif layout == "durable":
            db = SimilarityDatabase(CAPACITY, durable=True, path=tmp_path / "db", **kwargs)
        else:
            db = SimilarityDatabase(CAPACITY, **kwargs)
        for oid in range(12):
            db.add(oid, rand_set(rng))
        probe = rand_set(rng)
        shards = getattr(db, "shards", [db])

        def state(db):
            shards = getattr(db, "shards", [db])
            return (
                db.version,
                db.object_ids(),
                [(s.index_digest(), s.sketch_digest()) for s in shards],
                db.knn_query(probe, 3),
            )

        before = state(db)
        engines = [s.engine_digest() for s in shards]
        for bad in (2**70, -(2**63) - 1, 11.9, 3.5, np.float64(3.0), "7", None):
            for call in (
                lambda: db.add(bad, probe),
                lambda: db.add_grid(bad, lshape_grid),
                lambda: db.update(bad, probe),
                lambda: db.remove(bad),
                lambda: db.get(bad),
                lambda: bad in db,
            ):
                with pytest.raises(QueryError, match="object id"):
                    call()
            assert state(db) == before
            assert [s.engine_digest() for s in shards] == engines
            for shard in shards:
                shard.check_invariants()
        # Integral ids of any integer type are the same id.
        db.add(np.int64(2**62), probe)
        assert 2**62 in db and np.uint8(3) in db and db.remove(np.int64(2**62))
        if layout == "durable":
            db.close()
            reopened = SimilarityDatabase.load(tmp_path / "db")
            assert state(reopened)[1:] == before[1:]
            reopened.close()

    def test_unknown_backend_rejected(self):
        """``backend=`` names the one index there is: ``"xtree"`` is
        accepted and stored nowhere, anything else is refused."""
        for db in (
            SimilarityDatabase(CAPACITY, backend="xtree"),
            ShardedSimilarityDatabase(CAPACITY, shards=2, backend="xtree"),
        ):
            assert not hasattr(db, "backend")
        for backend in ("scan", "btree", "mtree", "rstar", None):
            with pytest.raises(QueryError, match="unknown backend"):
                SimilarityDatabase(CAPACITY, backend=backend)
            with pytest.raises(QueryError, match="unknown backend"):
                ShardedSimilarityDatabase(CAPACITY, shards=2, backend=backend)
        with pytest.raises(ImportError):
            from repro.index.arraycore import MTreeArrayCore  # noqa: F401

    def test_version_and_views(self, rng):
        db = SimilarityDatabase(CAPACITY)
        assert db.version == 0
        db.add(1, rand_set(rng))
        db.add(2, rand_set(rng))
        assert db.version == 2
        with db.read_view() as view:
            assert view.version == 2
            assert view.size == 2
            results, _ = view.knn_query(rand_set(rng), 2)
            assert len(results) == 2
        assert db.object_ids() == [1, 2]
        assert 1 in db and 99 not in db
        with pytest.raises(QueryError):
            db.get(99)

    def test_empty_database_queries(self, rng):
        db = SimilarityDatabase(CAPACITY)
        results, stats = db.knn_query(rand_set(rng), 3)
        assert results == [] and stats.exact_computations == 0
        results, _ = db.range_query(rand_set(rng), 1.0)
        assert results == []
        assert db.index_digest() == "empty"


class TestSnapshotAcceptance:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reload_is_zero_rebuild(self, backend, rng, tmp_path, monkeypatch):
        """load() must open the index without a single insert or pack."""
        db = start_database(backend, tmp_path / "start", CAPACITY)
        churn(db, rng)
        path = tmp_path / "db.snap"
        db.save(path)
        query = rand_set(rng)
        want, _ = db.knn_query(query, 7)
        digest = db.index_digest()

        def boom(*a, **k):  # any rebuild work fails the test
            raise AssertionError("load() must not insert or pack")

        for cls in (RStarTree, XTree):
            monkeypatch.setattr(cls, "insert", boom)
        monkeypatch.setattr(arraycore, "densify", boom)
        loaded = SimilarityDatabase.load(path)
        assert loaded.index_digest() == digest
        assert loaded.version == db.version
        got, _ = loaded.knn_query(query, 7)
        assert results_tuple(got) == results_tuple(want)

    def test_reload_in_new_process(self, rng, tmp_path):
        """The full acceptance criterion: a different interpreter loads
        the snapshot and answers identically, without rebuild work."""
        db = SimilarityDatabase(CAPACITY)
        churn(db, rng)
        path = tmp_path / "db.snap"
        db.save(path)
        query = rand_set(rng)
        want, _ = db.knn_query(query, 9)
        expected = {
            "digest": db.index_digest(),
            "results": [[m.object_id, m.distance] for m in want],
        }
        script = """
import json, sys
import numpy as np
from repro.db import SimilarityDatabase
from repro.index import RStarTree

def boom(*a, **k):
    raise SystemExit("rebuild work detected")
RStarTree.insert = boom  # XTree inherits

db = SimilarityDatabase.load(sys.argv[1])
query = np.asarray(json.loads(sys.argv[2]))
results, _ = db.knn_query(query, 9)
print(json.dumps({
    "digest": db.index_digest(),
    "results": [[m.object_id, m.distance] for m in results],
}))
"""
        src_dir = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path), json.dumps(query.tolist())],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src_dir), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == expected

    @pytest.mark.parametrize("legacy", ["lockstep", "scalar", "scipy", None])
    @pytest.mark.parametrize("kind", ["npz", "dense", "durable", "sharded"])
    def test_legacy_solver_key_is_ignored(self, kind, legacy, rng, tmp_path):
        """Files written before the assignment solver stopped being a
        setting carry ``"solver": ...`` in every snapshot meta block and
        durable config: they open and answer literally like a fresh
        build, whatever the value, and like files without the key."""
        path = tmp_path / "db"
        contents = write_layout(kind, rng, path)
        if legacy is not None:
            restamp_layout(
                path,
                lambda meta, arrays: meta.update(solver=legacy),
                lambda payload: payload.update(solver=legacy),
            )
        fresh = fresh_database(contents)
        opened = open_database(path)
        assert not hasattr(opened, "solver")
        for _ in range(4):
            query = rand_set(rng)
            for got, want in (
                (opened.knn_query(query, 6), fresh.knn_query(query, 6)),
                (opened.range_query(query, 5.0), fresh.range_query(query, 5.0)),
            ):
                assert results_tuple(got[0]) == results_tuple(want[0])
        if kind != "sharded":
            opened.save(tmp_path / "again.npz", dense=False)
            assert "solver" not in read_archive(tmp_path / "again.npz", DB_FORMAT)[0]
        if kind == "durable":
            opened.close()

    @pytest.mark.parametrize("kind", ["npz", "dense", "durable", "sharded"])
    def test_retired_backend_layout_opens_on_xtree(self, kind, rng, tmp_path):
        """A layout written while snapshots carried an index, whatever
        backend it recorded (in every meta block, in ``durable.json``, in
        the manifest), holds every set and stored centroid.  It opens on
        the one index there is - its index members are never parsed -
        answers literally like a fresh build, and writes no index when it
        is saved again."""
        for recorded in RECORDED_BACKENDS:
            path = tmp_path / recorded / "db"
            path.parent.mkdir()
            contents = write_layout(kind, rng, path)
            restamp_layout(path, parent_snapshot(recorded), parent_config(recorded))
            fresh = fresh_database(contents)
            opened = open_database(path)
            for shard in getattr(opened, "shards", [opened]):
                shard.check_invariants()
            if kind != "sharded":
                assert opened.index_digest() == fresh.index_digest()
            for _ in range(4):
                query = rand_set(rng)
                for got, want in (
                    (opened.knn_query(query, 6), fresh.knn_query(query, 6)),
                    (
                        opened.knn_query(query, 6, mode="approx", shortlist=12),
                        fresh.knn_query(query, 6, mode="approx", shortlist=12),
                    ),
                    (opened.range_query(query, 5.0), fresh.range_query(query, 5.0)),
                ):
                    assert results_tuple(got[0]) == results_tuple(want[0])
                    if kind != "sharded":
                        assert got[1] == want[1]
            # Still a working database: mutate, persist, reopen.
            opened.add(901, contents[min(contents)])
            saved = opened.save(
                None if kind == "durable" else tmp_path / recorded / "again"
            )
            opened.close()
            for file in sorted(saved.glob("shard-*")) if saved.is_dir() else [saved]:
                meta, arrays, _ = read_archive(file, DB_FORMAT)
                assert not {"backend", "index_capacity", "index_meta"} & meta.keys()
                assert not [name for name in arrays if name.startswith("index__")]
            again = open_database(path if kind == "durable" else saved)
            assert 901 in again
            for shard in getattr(again, "shards", [again]):
                shard.check_invariants()
            again.close()

    def test_snapshot_corruption_detected(self, rng, tmp_path):
        db = SimilarityDatabase(CAPACITY)
        churn(db, rng, adds=12)
        path = tmp_path / "db.snap"
        db.save(path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2 + 11] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(StorageError):
            SimilarityDatabase.load(path)

    def test_save_is_atomic_under_failure(self, rng, tmp_path, monkeypatch):
        """A crash mid-save must leave the previous snapshot intact."""
        db = SimilarityDatabase(CAPACITY)
        churn(db, rng, adds=8)
        path = tmp_path / "db.snap"
        db.save(path)
        good = path.read_bytes()
        db.add(500, rand_set(rng))
        import repro.db.archive as archive_mod

        def crash(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(archive_mod.os, "replace", crash)
        with pytest.raises(StorageError, match="disk full") as failure:
            db.save(path)
        assert str(path) in str(failure.value)
        assert isinstance(failure.value.__cause__, OSError)
        assert path.read_bytes() == good
        leftovers = [p for p in tmp_path.iterdir() if p.name != "db.snap"]
        assert leftovers == []

    def test_empty_database_roundtrip(self, tmp_path, rng):
        db = SimilarityDatabase(CAPACITY)
        path = tmp_path / "empty.snap"
        db.save(path)
        loaded = SimilarityDatabase.load(path)
        assert len(loaded) == 0
        loaded.add(1, rand_set(rng))  # stays usable
        assert loaded.knn_query(rand_set(rng), 1)[0][0].object_id == 1


def ragged_layout(contents):
    """The object store's four snapshot arrays as the parent commit's
    ``_snapshot_state`` built them, object by object from a dict."""
    from repro.core.centroid import extended_centroid

    oids = sorted(contents)
    offsets = np.zeros(len(oids) + 1, dtype=np.int64)
    np.cumsum([len(contents[oid]) for oid in oids], out=offsets[1:])
    return {
        "set_oids": np.asarray(oids, dtype=np.int64),
        "set_row_offsets": offsets,
        "set_data": np.concatenate([contents[oid] for oid in oids], axis=0),
        "centroids": np.vstack(
            [extended_centroid(contents[oid], CAPACITY) for oid in oids]
        ),
    }


def assert_same_arrays(got, want):
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)


class TestOneCopyStore:
    """The engine's rows are the object store: what is written, how a
    snapshot opens, and what ``get`` hands out."""

    @pytest.mark.parametrize("dense", [False, True], ids=["npz", "dense"])
    def test_snapshot_arrays_are_the_ascending_oid_ragged_layout(
        self, rng, tmp_path, dense
    ):
        """Swap-with-last removals scramble the engine's rows; the file
        still holds the ascending-oid layout, array for array."""
        db = SimilarityDatabase(CAPACITY)
        contents = churn(db, rng)
        assert db._engine.oids.tolist() != sorted(contents)  # rows are scrambled
        db.save(tmp_path / "db.snap", dense=dense)
        meta, arrays, _ = read_archive(tmp_path / "db.snap", DB_FORMAT)
        want = ragged_layout(contents)
        assert_same_arrays({name: arrays[name] for name in want}, want)
        assert meta["db_version"] == db.version and meta["dimension"] == DIM

    @pytest.mark.parametrize("dense", [False, True], ids=["npz", "dense"])
    def test_a_snapshot_in_the_parent_layout_opens_and_answers(
        self, rng, tmp_path, dense
    ):
        """A snapshot assembled the way the parent commit wrote one -
        per-object loops over a dict store, a pointer tree serialized
        node by node - opens, answers like a fresh build and is written
        back array for array."""
        from repro.approx import SetSketcher

        contents = {oid: rand_set(rng) for oid in (5, -3, 11, 2, 40, 7, 19, 23)}
        arrays = ragged_layout(contents)
        tree = XTree(DIM, capacity=4)
        for oid, centroid in zip(arrays["set_oids"].tolist(), arrays["centroids"]):
            tree.insert(centroid, oid)
        index_meta, index_arrays = serialize_index(tree)
        arrays.update({f"index__{name}": arr for name, arr in index_arrays.items()})
        sketcher = SetSketcher(DIM)
        arrays["sketch__proj"] = np.ascontiguousarray(sketcher.projection)
        arrays["sketch__oids"] = np.array(sorted(contents), dtype=np.int64)
        arrays["sketch__codes"] = np.stack(
            [sketcher.sketch(contents[oid]) for oid in sorted(contents)]
        )
        meta = {
            "format": DB_FORMAT, "version": 1, "capacity": CAPACITY,
            "backend": "xtree", "dimension": DIM, "omega": [0.0] * DIM,
            "block_size": 16, "index_capacity": 4, "db_version": 8,
            "resolution": None, "index_meta": index_meta,
            "sketch_enabled": True,
            "sketch_meta": {**sketcher.params(), "digest": sketcher.digest()},
        }
        path = tmp_path / "parent.snap"
        write_archive(path, meta, arrays, dense=dense)

        opened = open_database(path)
        opened.check_invariants()
        fresh = fresh_database(contents)
        assert opened.version == 8 and opened.object_ids() == sorted(contents)
        assert opened.engine_digest() == fresh.engine_digest()
        for _ in range(4):
            query = rand_set(rng)
            for got, want in (
                (opened.knn_query(query, 5), fresh.knn_query(query, 5)),
                (opened.knn_query(query, 5, mode="approx", shortlist=6),
                 fresh.knn_query(query, 5, mode="approx", shortlist=6)),
                (opened.range_query(query, 6.0), fresh.range_query(query, 6.0)),
            ):
                assert results_tuple(got[0]) == results_tuple(want[0])
                assert got[1] == want[1]
        # Written back, every array and meta key is the parent's but the
        # index: a snapshot carries none.
        opened.save(tmp_path / "again.snap")
        again_meta, again, again_dense = read_archive(
            tmp_path / "again.snap", DB_FORMAT
        )
        assert again_dense == dense
        assert_same_arrays(
            again, {name: arr for name, arr in arrays.items() if "index__" not in name}
        )
        for key in ("backend", "index_capacity", "index_meta"):
            del meta[key]
        assert {k: again_meta[k] for k in meta} == meta
        assert not {"backend", "index_capacity", "index_meta"} & again_meta.keys()

    @pytest.mark.parametrize("kind", ["npz", "dense", "durable", "sharded"])
    def test_open_and_first_queries_build_no_tree(
        self, kind, rng, tmp_path, monkeypatch
    ):
        """Every layout opens without building, inserting into or packing a
        tree: a query ranks the engine's centroid rows.  Mutations never insert
        into a pointer tree either."""
        path = tmp_path / "db"
        if kind == "durable":
            db = SimilarityDatabase(CAPACITY, durable=True, path=path)
        elif kind == "sharded":
            db = ShardedSimilarityDatabase(CAPACITY, shards=2)
        else:
            db = SimilarityDatabase(CAPACITY)
        churn(db, rng, adds=24)
        queries = [rand_set(rng) for _ in range(3)]

        def answers(target):
            return [
                (results_tuple(r), stats)
                for query in queries
                for r, stats in (
                    target.knn_query(query, 5),
                    target.knn_query(query, 5, mode="approx", shortlist=8),
                    target.range_query(query, 6.0),
                )
            ]

        want = answers(db)
        if kind == "durable":
            db.checkpoint()
            db.close()
        else:
            db.save(path, dense=kind == "dense")

        def boom(*args, **kwargs):
            raise AssertionError("open / first query built a pointer tree")

        monkeypatch.setattr(RStarTree, "insert", boom)  # XTree inherits
        with monkeypatch.context() as patched:
            patched.setattr(arraycore, "densify", boom)
            opened = open_database(path)
            assert answers(opened) == want
        parts = getattr(opened, "shards", [opened])
        for oid in (900, 901, 902, 903):
            opened.add(oid, rand_set(rng))
            opened.knn_query(queries[0], 3)
        for part in parts:
            part.check_invariants()
        opened.close()

    def test_get_returns_an_owned_bit_equal_copy(self, rng, tmp_path):
        """Smaller than, equal to and (rejected) larger than capacity."""
        db = SimilarityDatabase(CAPACITY)
        added = {
            1: rng.normal(size=(1, DIM)),
            2: rng.normal(size=(CAPACITY, DIM)),
            3: rng.normal(size=(2, DIM)),
        }
        for oid, arr in added.items():
            given = arr.copy()
            db.add(oid, given)
            given[:] = 0.0  # the engine's row is not the caller's array
        with pytest.raises(QueryError, match="capacity"):
            db.add(4, rng.normal(size=(CAPACITY + 1, DIM)))
        assert 4 not in db and len(db) == 3
        db.remove(1)  # moves the last row into row 0
        db.add(1, added[1])
        db.save(tmp_path / "db.npz")
        for target in (db, open_database(tmp_path / "db.npz")):
            for oid, arr in added.items():
                got = target.get(oid)
                assert got.dtype == np.float64 and got.shape == arr.shape
                assert got.tobytes() == arr.tobytes()
                assert got.flags.owndata and got.flags.writeable
                got[:] = 0.0  # the caller's copy, not the engine's row
                assert target.get(oid).tobytes() == arr.tobytes()
            target.check_invariants()


class TestMalformedSnapshots:
    """CRC-valid files whose contents do not fit together fail at the
    boundary, typed, naming the file and the key or array."""

    FAULTS = {
        "no-capacity": (lambda meta, arrays: meta.pop("capacity"), "capacity"),
        "no-omega": (lambda meta, arrays: meta.pop("omega"), "omega"),
        "no-dimension": (lambda meta, arrays: meta.pop("dimension"), "dimension"),
        "no-db-version": (lambda meta, arrays: meta.pop("db_version"), "db_version"),
        "no-block-size": (lambda meta, arrays: meta.pop("block_size"), "block_size"),
        "no-set-data": (lambda meta, arrays: arrays.pop("set_data"), "set_data"),
        "offsets-past-the-data": (
            lambda meta, arrays: arrays["set_row_offsets"].__setitem__(
                slice(1, None), arrays["set_row_offsets"][1:] + 1000
            ),
            "set_row_offsets",
        ),
        "offsets-not-monotone": (
            lambda meta, arrays: arrays["set_row_offsets"].__setitem__(
                slice(None), arrays["set_row_offsets"][::-1].copy()
            ),
            "set_row_offsets",
        ),
        "set-over-capacity": (
            lambda meta, arrays: arrays.update(
                set_row_offsets=np.delete(arrays["set_row_offsets"], [1, 2]),
                set_oids=arrays["set_oids"][2:],
                centroids=arrays["centroids"][2:],
            ),
            "set_row_offsets",
        ),
        "centroid-rows": (
            lambda meta, arrays: arrays.update(centroids=arrays["centroids"][:-1]),
            "centroids",
        ),
        "duplicate-oids": (
            lambda meta, arrays: arrays["set_oids"].__setitem__(
                0, arrays["set_oids"][-1]
            ),
            "set_oids",
        ),
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("kind", ["npz", "dense", "durable", "sharded"])
    def test_open_fails_typed_and_verify_sees_it(self, kind, fault, tmp_path):
        from repro.cli import main

        edit, named = self.FAULTS[fault]
        rng = np.random.default_rng(11)
        path = tmp_path / "db"
        full = lambda: rng.integers(-8, 9, size=(CAPACITY, DIM)).astype(float)
        if kind == "durable":
            db = SimilarityDatabase(CAPACITY, durable=True, path=path)
        elif kind == "sharded":
            db = ShardedSimilarityDatabase(CAPACITY, shards=2)
        else:
            db = SimilarityDatabase(CAPACITY)
        contents = {oid: full() for oid in range(12)}
        for oid, arr in contents.items():
            db.add(oid, arr)
        if kind == "durable":
            db.checkpoint()
            db.close()
        else:
            db.save(path, dense=kind == "dense")
        restamp_layout(path, edit, lambda payload: None)

        if kind == "durable":
            # The ladder skips the malformed generation and replays the log.
            recovered = open_database(path)
            assert recovered.last_recovery.fallbacks == 1
            assert named in recovered.last_recovery.failures[0]
            assert recovered.object_ids() == sorted(contents)
            recovered.check_invariants()
            recovered.close()
            assert main(["db", "verify", str(path)]) == 3
        else:
            with pytest.raises(StorageError, match=named) as caught:
                open_database(path)
            assert "db" in str(caught.value)  # names the file
            assert main(["db", "verify", str(path)]) == 1

    #: Breaks of the index a layout carried while snapshots held one: its
    #: members are never parsed, so none of these is a fault any more.
    INDEX_FAULTS = {
        "no-index-meta": lambda meta, arrays: meta.pop("index_meta"),
        "no-index-table": lambda meta, arrays: arrays.pop("index__node_level"),
        "unknown-index-kind": lambda meta, arrays: meta["index_meta"].update(
            kind="btree"
        ),
    }

    @pytest.mark.parametrize("fault", sorted(INDEX_FAULTS))
    @pytest.mark.parametrize("kind", ["npz", "dense", "durable", "sharded"])
    def test_index_is_not_parsed(self, kind, fault, tmp_path):
        """A layout recorded as ``xtree`` while snapshots carried an index,
        that index broken in a CRC-valid way: it opens without a fallback,
        answers like a fresh build and verifies clean."""
        from repro.cli import main

        rng = np.random.default_rng(11)
        path = tmp_path / "db"
        contents = write_layout(kind, rng, path)

        def broken(meta, arrays):
            parent_snapshot("xtree")(meta, arrays)
            self.INDEX_FAULTS[fault](meta, arrays)

        restamp_layout(path, broken, parent_config("xtree"))
        opened = open_database(path)
        if kind == "durable":
            assert opened.last_recovery.fallbacks == 0
        assert opened.object_ids() == sorted(contents)
        fresh = fresh_database(contents)
        for _ in range(3):
            query = rand_set(rng)
            got, want = opened.knn_query(query, 6), fresh.knn_query(query, 6)
            assert results_tuple(got[0]) == results_tuple(want[0])
        opened.close()
        assert main(["db", "verify", str(path)]) == 0


class TestGridIngestPath:
    def test_add_grid_flows_through_cache(self, lshape_grid, tire_grid):
        from repro.features.cache import FeatureCache
        from repro.features.vector_set_model import VectorSetModel
        from repro.pipeline import Pipeline

        model = VectorSetModel(k=CAPACITY)
        cache = FeatureCache()
        db = SimilarityDatabase(
            CAPACITY,
            model=model,
            pipeline=Pipeline(resolution=12),
            cache=cache,
        )
        first = db.add_grid(1, lshape_grid)
        assert cache.misses == 1 and cache.hits == 0
        db.add_grid(2, tire_grid)
        db.remove(1)
        again = db.add_grid(3, lshape_grid)  # second extraction: cache hit
        assert cache.hits == 1
        np.testing.assert_array_equal(first, again)
        results, _ = db.knn_query(first, 1)
        assert results[0].object_id == 3 and results[0].distance == 0.0

    def test_add_grid_requires_model(self, lshape_grid):
        db = SimilarityDatabase(CAPACITY)
        with pytest.raises(QueryError):
            db.add_grid(1, lshape_grid)
