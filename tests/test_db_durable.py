"""Durability acceptance tests: WAL-backed databases, the recovery
ladder, crash-point injection (in-process), and `repro db verify`.

The two headline guarantees from the issue:

* a durable database recovered after a crash at ANY registered crash
  point equals a fresh build over the mutations that survived in the
  log — never fewer than the acknowledged ones under ``fsync=always``;
* deliberately corrupting the newest snapshot generation degrades to
  the previous generation + a longer WAL replay (observable through
  the ``db.recovery.fallbacks`` counter), never a crash or a silent
  wrong answer.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.db import (
    ShardedSimilarityDatabase,
    SimilarityDatabase,
    open_database,
)
from repro.db.archive import read_archive, write_archive
from repro.db.core import MAGNITUDE_BOUND
from repro.exceptions import (
    LockTimeout,
    QueryError,
    SnapshotIntegrityError,
    StorageError,
)
from repro.testing.faults import (
    CRASH_POINTS,
    InjectedCrash,
    armed_crash_point,
    corrupt_bytes,
    tamper_npz_array,
)
from tests.conftest import BACKENDS, parent_snapshot, reads_only, start_database

CAPACITY = 3
DIM = 3

# The crash points a single-database mutation plan can reach;
# "between-shard-checkpoints" fires only inside the sharded
# checkpoint walk (covered by tests/test_sharded_crash.py).
SINGLE_DB_POINTS = tuple(
    p for p in CRASH_POINTS if p != "between-shard-checkpoints"
)


@contextmanager
def capture_metrics():
    reg = obs.registry()
    reg.reset()
    obs.enable()
    try:
        yield reg
    finally:
        reg.reset()
        obs.disable()


def rand_set(rng):
    return rng.integers(-8, 9, size=(int(rng.integers(1, CAPACITY + 1)), DIM)).astype(
        float
    )


def make_plan(rng, n=18):
    """A deterministic interleaved mutation plan with a checkpoint,
    expressed as replayable (op, oid, array) tuples."""
    plan, live, oid = [], set(), 0
    for step in range(n):
        plan.append(("add", oid, rand_set(rng)))
        live.add(oid)
        oid += 1
        if step % 5 == 3 and live:
            victim = int(rng.choice(sorted(live)))
            plan.append(("remove", victim, None))
            live.discard(victim)
        if step % 7 == 5 and live:
            target = int(rng.choice(sorted(live)))
            plan.append(("update", target, rand_set(rng)))
        if step == n // 2:
            plan.append(("checkpoint", None, None))
    return plan


def apply_step(db, step) -> None:
    op, oid, arr = step
    if op == "add":
        db.add(oid, arr)
    elif op == "remove":
        db.remove(oid)
    elif op == "update":
        db.update(oid, arr)
    elif op == "checkpoint":
        db.checkpoint()


def set_compression_method(path, member: str, method: int) -> None:
    """Overwrite the compression method of *member*'s central-directory
    entry in the zip file at *path*."""
    data = bytearray(Path(path).read_bytes())
    name = member.encode()
    entry = data.find(b"PK\x01\x02")
    while data[entry + 46 : entry + 46 + len(name)] != name:
        entry = data.find(b"PK\x01\x02", entry + 4)
        assert entry >= 0, f"{member} is not in {path}"
    data[entry + 10 : entry + 12] = method.to_bytes(2, "little")
    Path(path).write_bytes(bytes(data))


def fresh_build(plan):
    """The plan's final state built from scratch."""
    db = SimilarityDatabase(CAPACITY)
    for step in plan:
        if step[0] != "checkpoint":
            apply_step(db, step)
    return db


def same_contents(recovered, reference) -> bool:
    """Same object ids holding bit-equal sets, read through the public surface."""
    oids = reference.object_ids()
    return recovered.object_ids() == oids and all(
        np.array_equal(recovered.get(oid), reference.get(oid)) for oid in oids
    )


def assert_equivalent(recovered, reference, rng):
    """Same contents, sound invariants, and answers *and* ``QueryStats``
    literally the reference's, from queries that write no state."""
    assert same_contents(recovered, reference)
    recovered.check_invariants()
    for _ in range(3):
        query = rand_set(rng)
        for ask in (
            lambda db: db.knn_query(query, 5),
            lambda db: db.range_query(query, 6.0),
        ):
            got, got_stats = reads_only(recovered, ask)
            expected, expected_stats = ask(reference)
            assert [(m.object_id, m.distance) for m in got] == [
                (m.object_id, m.distance) for m in expected
            ]
            assert got_stats == expected_stats


def matches_some_prefix(recovered, plan, floor, rng) -> bool:
    """True iff *recovered* equals a fresh build over plan[:M] for some
    M >= floor — the crash-consistency contract: at least everything
    acknowledged, at most everything attempted."""
    for upto in range(floor, len(plan) + 1):
        reference = fresh_build(plan[:upto])
        if same_contents(recovered, reference):
            assert_equivalent(recovered, reference, rng)
            return True
    return False


class TestDurableRoundtrip:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_recovery_equals_fresh_build(self, backend, tmp_path, rng):
        plan = make_plan(rng)
        dbdir = tmp_path / "db"
        db = start_database(backend, dbdir, CAPACITY, durable=True)
        for step in plan:
            apply_step(db, step)
        db.close()
        recovered = SimilarityDatabase.load(dbdir)
        assert recovered.durable and recovered.last_recovery is not None
        assert not recovered.last_recovery.degraded
        assert_equivalent(recovered, fresh_build(plan), rng)
        recovered.close()

    def test_recovery_without_any_checkpoint(self, tmp_path, rng):
        dbdir = tmp_path / "db"
        db = SimilarityDatabase(CAPACITY, durable=True, path=dbdir)
        sets = {oid: rand_set(rng) for oid in range(8)}
        for oid, arr in sets.items():
            db.add(oid, arr)
        db.close()
        recovered = SimilarityDatabase.load(dbdir)
        assert recovered.last_recovery.used_generation == 0
        assert recovered.last_recovery.replayed_records == 8
        assert recovered.object_ids() == sorted(sets)
        recovered.close()

    def test_a_logged_compact_record_replays_as_a_version_bump(self, tmp_path, rng):
        """A segment written while databases had ``compact()`` carries
        ``compact`` records.  Recovery still reads them: one bumps the
        version once there is data (as the call did), and the contents
        are what the other records made them."""
        dbdir = tmp_path / "db"
        db = SimilarityDatabase(CAPACITY, durable=True, path=dbdir)
        db._wal.append("compact")  # before any object: no version bump
        sets = {oid: rand_set(rng) for oid in range(4)}
        for oid, arr in sets.items():
            db.add(oid, arr)
        db._wal.append("compact")
        db.remove(2)
        db.close()
        recovered = SimilarityDatabase.load(dbdir)
        assert recovered.last_recovery.replayed_records == 7
        assert recovered.version == 6
        del sets[2]
        assert recovered.object_ids() == sorted(sets)
        assert all(np.array_equal(recovered.get(oid), sets[oid]) for oid in sets)
        recovered.check_invariants()
        recovered.close()

    def test_mutations_after_recovery_are_durable(self, tmp_path, rng):
        dbdir = tmp_path / "db"
        db = SimilarityDatabase(CAPACITY, durable=True, path=dbdir)
        db.add(0, rand_set(rng))
        db.close()
        second = SimilarityDatabase.load(dbdir)
        second.add(1, rand_set(rng))
        second.close()
        third = SimilarityDatabase.load(dbdir)
        assert third.object_ids() == [0, 1]
        third.close()

    def test_checkpoint_rotates_and_retires(self, tmp_path, rng):
        dbdir = tmp_path / "db"
        db = SimilarityDatabase(
            CAPACITY, durable=True, path=dbdir, keep_generations=2
        )
        for generation in range(4):
            db.add(generation, rand_set(rng))
            db.checkpoint()
        assert db.generation == 4
        snapshots = sorted(p.name for p in dbdir.glob("snapshot-*.npz"))
        segments = sorted(p.name for p in dbdir.glob("wal-*.log"))
        assert snapshots == ["snapshot-00000003.npz", "snapshot-00000004.npz"]
        assert segments == ["wal-00000003.log", "wal-00000004.log"]
        db.close()
        recovered = SimilarityDatabase.load(dbdir)
        assert recovered.object_ids() == [0, 1, 2, 3]
        recovered.close()

    def test_durable_save_is_checkpoint_and_export_still_works(
        self, tmp_path, rng
    ):
        dbdir = tmp_path / "db"
        db = SimilarityDatabase(CAPACITY, durable=True, path=dbdir)
        db.add(0, rand_set(rng))
        db.save()  # no path: checkpoint
        assert db.generation == 1
        export = tmp_path / "export.npz"
        db.save(export)  # foreign path: plain archive export
        assert db.generation == 1
        db.close()
        exported = SimilarityDatabase.load(export)
        assert not exported.durable
        assert exported.object_ids() == [0]

    @pytest.mark.parametrize("layout", ["plain", "2-shard"])
    def test_mutations_after_close_are_rejected_typed(
        self, layout, tmp_path, rng, monkeypatch
    ):
        """A closed durable database keeps answering queries; every
        mutation raises StorageError before extraction, lock and log
        (it used to escape as the WAL file object's ValueError) and
        leaves memory and the directory as they were."""
        from repro.features.vector_set_model import VectorSetModel
        from repro.pipeline import Pipeline
        from repro.voxel.grid import VoxelGrid

        dbdir = tmp_path / "db"
        options = dict(durable=True, path=dbdir, model=VectorSetModel(k=CAPACITY))
        if layout == "plain":
            db = SimilarityDatabase(CAPACITY, **options)
        else:
            db = ShardedSimilarityDatabase(CAPACITY, shards=2, **options)
        for oid in range(5):
            db.add(oid, rand_set(rng))
        db.close()

        def state():
            files = {
                str(f.relative_to(dbdir)): f.read_bytes()
                for f in sorted(dbdir.rglob("*")) if f.is_file()
            }
            return db.version, {o: db.get(o).tobytes() for o in db.object_ids()}, files

        def no_extraction(*args, **kwargs):
            raise AssertionError("extraction ran on a closed database")

        monkeypatch.setattr(Pipeline, "features_for_grid", no_extraction)
        before, probe = state(), rand_set(rng)
        answer = db.knn_query(probe, 3)[0]
        for mutate in (
            lambda: db.add(99, probe),
            lambda: db.add_grid(99, VoxelGrid.empty(6)),
            lambda: db.update(1, probe),
            lambda: db.remove(1),
            db.checkpoint,
        ):
            with pytest.raises(StorageError, match="database is closed"):
                mutate()
            assert state() == before
        assert db.knn_query(probe, 3)[0] == answer
        db.close()  # still safe to call twice
        reopened = open_database(dbdir)
        assert reopened.object_ids() == [0, 1, 2, 3, 4]
        assert reopened.knn_query(probe, 3)[0] == answer
        reopened.add(99, probe)  # a reopened database is open
        reopened.close()

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(QueryError, match="needs a directory path"):
            SimilarityDatabase(CAPACITY, durable=True)
        with pytest.raises(QueryError, match="only meaningful"):
            SimilarityDatabase(CAPACITY, path=tmp_path / "x")
        SimilarityDatabase(CAPACITY, durable=True, path=tmp_path / "db").close()
        with pytest.raises(StorageError, match="already holds"):
            SimilarityDatabase(CAPACITY, durable=True, path=tmp_path / "db")

    def test_a_durable_database_is_never_laid_over_another(self, tmp_path, rng):
        """A plain durable database and a sharded one each refuse the
        other's directory before writing anything; the one already there
        reopens with its objects."""
        sets = {oid: rand_set(rng) for oid in range(6)}
        plain, sharded = tmp_path / "plain", tmp_path / "sharded"
        for db in (
            SimilarityDatabase(CAPACITY, durable=True, path=plain),
            ShardedSimilarityDatabase(CAPACITY, shards=2, durable=True, path=sharded),
        ):
            for oid, arr in sets.items():
                db.add(oid, arr)
            db.close()

        def files(root):
            return {
                str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*"))
                if p.is_file()
            }

        for root, create in (
            (plain, lambda: ShardedSimilarityDatabase(
                CAPACITY, shards=2, durable=True, path=plain)),
            (sharded, lambda: SimilarityDatabase(CAPACITY, durable=True, path=sharded)),
        ):
            before = files(root)
            with pytest.raises(StorageError, match="already holds"):
                create()
            assert files(root) == before
            reopened = open_database(root)
            assert reopened.object_ids() == sorted(sets)
            for oid, arr in sets.items():
                np.testing.assert_array_equal(reopened.get(oid), arr)
            reopened.close()

    @pytest.mark.parametrize(
        "setting",
        [
            {"block_size": 0},
            {"block_size": 2.0},
            {"capacity": 2.5},
            {"capacity": 0},
            {"keep_generations": 1.5},
            {"keep_generations": 0},
        ],
        ids=lambda setting: "-".join(f"{k}={v}" for k, v in setting.items()),
    )
    @pytest.mark.parametrize("shards", [None, 2], ids=["plain", "2-shard"])
    def test_numeric_settings_are_checked_before_anything_is_written(
        self, tmp_path, setting, shards
    ):
        """A setting the engine would reject fails the constructor, typed,
        before ``durable.json`` exists: no directory is left to poison a
        later open, and no object is ever logged."""
        kwargs = {"capacity": CAPACITY, **setting}
        capacity = kwargs.pop("capacity")
        path = tmp_path / "db"
        with pytest.raises(QueryError, match=next(iter(setting))):
            if shards:
                ShardedSimilarityDatabase(
                    capacity, shards=shards, durable=True, path=path, **kwargs
                )
            else:
                SimilarityDatabase(capacity, durable=True, path=path, **kwargs)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200], ids=["nan", "inf", "1e200"])
    @pytest.mark.parametrize("durable", [False, True], ids=["plain", "durable"])
    @pytest.mark.parametrize("shards", [None, 2], ids=["single", "2-shard"])
    def test_an_omega_outside_the_magnitude_domain_is_refused(
        self, tmp_path, bad, durable, shards
    ):
        """ω pads every stored set and query, so it is held to the domain
        of their entries: a NaN ω would prune every candidate (empty
        answers) and a 1e200 one overflow the first k-nn.  Both fail the
        constructor, typed, before anything is written."""
        path = tmp_path / "db"
        kwargs = {"omega": np.full(DIM, bad), "durable": durable}
        if durable:
            kwargs["path"] = path
        with pytest.raises(QueryError, match="omega"):
            if shards:
                ShardedSimilarityDatabase(CAPACITY, shards=shards, **kwargs)
            else:
                SimilarityDatabase(CAPACITY, **kwargs)
        assert not path.exists()

    def test_an_omega_inside_the_domain_is_kept(self):
        edge = np.full(DIM, -MAGNITUDE_BOUND)
        db = SimilarityDatabase(CAPACITY, omega=list(edge))
        assert np.array_equal(db.omega, edge)
        for shape in ((), (1, DIM)):
            with pytest.raises(QueryError, match="omega must be a vector"):
                SimilarityDatabase(CAPACITY, omega=np.zeros(shape))

    @pytest.mark.parametrize(
        "setting",
        [
            {"shards": "2"},
            {"shards": None},
            {"shards": 2.5},
            {"shards": 0},
            {"keep_generations": "x"},
            {"capacity": 2.5},
            {"backend": "scan"},
        ],
        ids=lambda setting: "-".join(f"{k}={v}" for k, v in setting.items()),
    )
    @pytest.mark.parametrize("durable", [False, True], ids=["plain", "durable"])
    def test_sharded_settings_are_checked_before_any_shard_exists(
        self, tmp_path, setting, durable
    ):
        """The sharded constructor's own settings fail typed, naming the
        setting, before a shard or its directory exists."""
        kwargs = {"capacity": CAPACITY, "shards": 2, **setting}
        path = tmp_path / "db"
        with pytest.raises(QueryError, match=next(iter(setting))):
            ShardedSimilarityDatabase(
                kwargs.pop("capacity"),
                durable=durable,
                path=path if durable else None,
                **kwargs,
            )
        assert not path.exists()


class TestRecoveryLadder:
    def _build(self, dbdir, rng):
        plan = make_plan(rng)
        db = SimilarityDatabase(CAPACITY, durable=True, path=dbdir, keep_generations=3)
        for step in plan:
            apply_step(db, step)
        db.checkpoint()
        db.add(900, rand_set(rng))  # tail mutation beyond the last snapshot
        plan.append(("add", 900, db.get(900)))
        db.close()
        return plan

    def test_corrupt_newest_snapshot_falls_back_one_generation(
        self, tmp_path, rng
    ):
        dbdir = tmp_path / "db"
        plan = self._build(dbdir, rng)
        newest = sorted(dbdir.glob("snapshot-*.npz"))[-1]
        corrupt_bytes(newest, 100, 64)
        with capture_metrics() as reg:
            recovered = SimilarityDatabase.load(dbdir)
            assert reg.counter("db.recovery.fallbacks").value == 1
            assert reg.counter("db.recovery.degraded").value == 1
        report = recovered.last_recovery
        assert report.degraded and report.fallbacks == 1
        assert report.used_generation == report.requested_generation - 1
        assert report.failures  # the ladder names what it skipped
        assert_equivalent(recovered, fresh_build(plan), rng)
        recovered.close()

    def test_an_unsupported_compression_method_falls_back_one_generation(
        self, tmp_path, rng
    ):
        """A zip member whose central-directory entry names compression
        method 99 makes the zip reader raise NotImplementedError; the
        ladder must see a damaged generation and open the one before."""
        dbdir = tmp_path / "db"
        plan = self._build(dbdir, rng)
        newest = sorted(dbdir.glob("snapshot-*.npz"))[-1]
        set_compression_method(newest, "set_data.npy", 99)
        with pytest.raises(SnapshotIntegrityError, match="set_data"):
            SimilarityDatabase.load(newest)
        recovered = SimilarityDatabase.load(dbdir)
        report = recovered.last_recovery
        assert report.fallbacks == 1
        assert report.used_generation == report.requested_generation - 1 == 1
        assert_equivalent(recovered, fresh_build(plan), rng)
        recovered.close()

    def test_all_snapshots_corrupt_replays_full_wal_from_empty(
        self, tmp_path, rng
    ):
        dbdir = tmp_path / "db"
        plan = self._build(dbdir, rng)
        for snapshot in dbdir.glob("snapshot-*.npz"):
            corrupt_bytes(snapshot, 100, 64)
        with capture_metrics() as reg:
            recovered = SimilarityDatabase.load(dbdir)
            assert reg.counter("db.recovery.fallbacks").value == 2
        assert recovered.last_recovery.used_generation == 0
        assert_equivalent(recovered, fresh_build(plan), rng)
        recovered.close()

    def test_unrecoverable_without_source_raises(self, tmp_path, rng):
        dbdir = tmp_path / "db"
        self._build(dbdir, rng)
        for snapshot in dbdir.glob("snapshot-*.npz"):
            corrupt_bytes(snapshot, 100, 64)
        # Retire the early WAL chain: the empty-base rung is now
        # impossible and no source snapshot is configured.
        (dbdir / "wal-00000000.log").unlink()
        with pytest.raises(StorageError, match="recovery impossible"):
            SimilarityDatabase.load(dbdir)

    def test_recovered_db_keeps_serving_after_degraded_load(
        self, tmp_path, rng
    ):
        dbdir = tmp_path / "db"
        self._build(dbdir, rng)
        newest = sorted(dbdir.glob("snapshot-*.npz"))[-1]
        corrupt_bytes(newest, 100, 64)
        recovered = SimilarityDatabase.load(dbdir)
        recovered.add(901, rand_set(rng))
        recovered.checkpoint()  # re-establishes a clean generation
        recovered.close()
        healed = SimilarityDatabase.load(dbdir)
        assert not healed.last_recovery.degraded
        assert 901 in healed
        healed.close()


def source_snapshot(path, *, capacity=CAPACITY, dense=False):
    """A saved database whose objects carry payloads: oids 5 and 9, the
    source rung's input."""
    db = SimilarityDatabase(capacity)
    db.add(
        9, np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]]), {"name": "nine", "family": "f"}
    )
    db.add(5, np.array([[4.0, 0.0, -1.0]]), {"name": "five", "family": "g"})
    db.save(path, dense=dense)
    return db


def durable_without_snapshots(dbdir, source):
    """A durable directory at *dbdir* configured with *source* whose
    every snapshot is corrupt and whose early WAL chain is gone, so only
    the source rung can open it."""
    db = SimilarityDatabase(CAPACITY, durable=True, path=dbdir, source=source)
    db.add(0, np.ones((1, DIM)))
    db.checkpoint()
    db.close()
    for snapshot in dbdir.glob("snapshot-*.npz"):
        corrupt_bytes(snapshot, 100, 64)
    (dbdir / "wal-00000000.log").unlink()


class TestSourceRebuild:
    def test_last_rung_rebuilds_from_object_database(self, tmp_path):
        """The source is a saved database, an ``.npz`` or a dense
        snapshot: the one object store on disk."""
        for dense in (False, True):
            source = tmp_path / ("objects.dense" if dense else "objects.npz")
            original = source_snapshot(source, dense=dense)
            dbdir = tmp_path / f"db-{source.suffix[1:]}"
            durable_without_snapshots(dbdir, source)
            with capture_metrics() as reg:
                recovered = SimilarityDatabase.load(dbdir)
                assert reg.counter("db.recovery.source_rebuilds").value == 1
            assert recovered.last_recovery.source_rebuild
            assert recovered.last_recovery.degraded
            # Oids and payloads survive; the object the WAL lost is gone.
            assert recovered.object_ids() == [5, 9]
            for oid in (5, 9):
                assert np.array_equal(recovered.get(oid), original.get(oid))
                assert recovered.payload(oid) == original.payload(oid)
            # The rebuilt state is a published generation: a reload opens
            # it without rebuilding again, with what was logged since.
            recovered.add(77, np.zeros((1, DIM)), {"name": "later"})
            recovered.close()
            again = SimilarityDatabase.load(dbdir)
            assert not again.last_recovery.degraded
            assert again.object_ids() == [5, 9, 77]
            assert again.payload(9) == {"name": "nine", "family": "f"}
            assert again.payload(77) == {"name": "later"}
            again.close()

    def test_a_flipped_byte_in_a_dense_source_fails_the_rung(self, tmp_path):
        """A flipped data byte of a dense source would be re-added as a
        changed vector; every open checks every member's CRC, the plain
        one and the rung's alike, and names the damaged one."""
        source = tmp_path / "objects.dense"
        source_snapshot(source, dense=True)
        vector = np.array([4.0, 0.0, -1.0]).tobytes()
        offset = source.read_bytes().find(vector)
        assert offset > 0
        corrupt_bytes(source, offset + 7, count=1, xor=0x01)
        with pytest.raises(SnapshotIntegrityError) as caught:
            SimilarityDatabase.load(source)  # the plain open
        assert caught.value.member == "set_data"
        dbdir = tmp_path / "db"
        durable_without_snapshots(dbdir, source)
        before = {p.name: p.read_bytes() for p in dbdir.iterdir()}
        with pytest.raises(SnapshotIntegrityError) as caught:
            SimilarityDatabase.load(dbdir)
        assert caught.value.member == "set_data"
        assert str(source) in str(caught.value) and "set_data" in str(caught.value)
        assert {p.name: p.read_bytes() for p in dbdir.iterdir()} == before

    def test_a_source_that_is_no_snapshot_fails_typed(self, tmp_path):
        """A directory, a source of another capacity and an archive of
        another format each fail the rung with a StorageError naming the
        file, and the durable directory is left as it was."""
        other_capacity = tmp_path / "wide.npz"
        source_snapshot(other_capacity, capacity=CAPACITY + 1)
        old_archive = tmp_path / "archive.npz"
        meta = {"format_version": 2, "records": []}
        np.savez_compressed(
            old_archive, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        )
        cases = {
            tmp_path / "a-directory": "not a directory",
            other_capacity: "capacity",
            old_archive: "expected 'repro-similarity-db'",
        }
        (tmp_path / "a-directory").mkdir()
        for source, reason in cases.items():
            dbdir = tmp_path / f"db-{source.stem}"
            durable_without_snapshots(dbdir, source)
            before = {p.name: p.read_bytes() for p in dbdir.iterdir()}
            with pytest.raises(StorageError) as caught:
                SimilarityDatabase.load(dbdir)
            assert str(source) in str(caught.value) and reason in str(caught.value)
            assert {p.name: p.read_bytes() for p in dbdir.iterdir()} == before

    def test_a_source_needs_one_durable_database(self, tmp_path):
        """A source without ``durable=True`` used to be accepted and never
        persisted, and a sharded database forwarded it to every shard,
        whose rebuild would then add every object of the archive.  Both
        are refused, typed, before anything is written."""
        source = tmp_path / "objects.npz"
        with pytest.raises(QueryError, match="durable=True"):
            SimilarityDatabase(CAPACITY, source=source)
        for durable in (False, True):
            path = tmp_path / f"sharded-{durable}"
            with pytest.raises(QueryError, match="sharded"):
                ShardedSimilarityDatabase(
                    CAPACITY,
                    shards=2,
                    durable=durable,
                    path=path if durable else None,
                    source=source,
                )
            assert not path.exists()


#: Payloads every entry point must refuse with QueryError.
HOSTILE_PAYLOADS = {
    "a-list": [("name", "a")],
    "a-string": "name=a",
    "int-key": {1: "a"},
    "int-value": {"name": 1},
    "none-value": {"name": None},
    "nested": {"name": {"first": "a"}},
    "over-1-kib": {"name": "x" * 1100},
}


class TestPayloadValidation:
    @pytest.mark.parametrize("case", sorted(HOSTILE_PAYLOADS))
    @pytest.mark.parametrize("shards", [None, 2], ids=["plain", "2-shard"])
    def test_a_hostile_payload_is_refused_before_the_wal(
        self, tmp_path, rng, case, shards
    ):
        path = tmp_path / "db"
        if shards:
            db = ShardedSimilarityDatabase(
                CAPACITY, shards=shards, durable=True, path=path
            )
        else:
            db = SimilarityDatabase(CAPACITY, durable=True, path=path)
        db.add(0, rand_set(rng), {"name": "kept"})
        # add_grid checks the payload before it would extract.
        db.model = object()
        before = {p: p.read_bytes() for p in path.rglob("*") if p.is_file()}
        version = db.version
        for call in (
            lambda: db.add(1, rand_set(rng), HOSTILE_PAYLOADS[case]),
            lambda: db.add_grid(1, None, HOSTILE_PAYLOADS[case]),
        ):
            with pytest.raises(QueryError, match="payload"):
                call()
        assert db.version == version and 1 not in db
        assert {p: p.read_bytes() for p in path.rglob("*") if p.is_file()} == before
        db.close()
        with open_database(path) as reopened:
            assert reopened.payload(0) == {"name": "kept"}


class TestInProcessCrashPoints:
    """Every registered crash point, simulated in-process: the crashed
    database object is abandoned mid-flight and recovery runs from
    whatever reached the disk."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("point", SINGLE_DB_POINTS)
    def test_recovery_from_crash_point(self, point, backend, tmp_path, rng):
        plan = make_plan(rng)
        dbdir = tmp_path / f"db-{point}-{backend}"
        db = start_database(backend, dbdir, CAPACITY, durable=True)
        acknowledged = 0
        crashed = False
        with armed_crash_point(point, at=3 if point == "after-wal-append" else 1):
            try:
                for step in plan:
                    apply_step(db, step)
                    acknowledged += 1
            except InjectedCrash:
                crashed = True
        assert crashed, f"plan never reached crash point {point}"
        del db
        gc.collect()  # drop the crashed process's file handles
        recovered = SimilarityDatabase.load(dbdir)
        state_plan = [s for s in plan if s[0] != "checkpoint"]
        acked_state = len(
            [s for s in plan[:acknowledged] if s[0] != "checkpoint"]
        )
        assert matches_some_prefix(
            recovered, state_plan, acked_state, rng
        ), f"recovered state matches no acknowledged-or-later prefix ({point})"
        recovered.close()

    def test_crash_before_first_checkpoint_swap_keeps_generation(
        self, tmp_path, rng
    ):
        dbdir = tmp_path / "db"
        db = SimilarityDatabase(CAPACITY, durable=True, path=dbdir)
        db.add(0, rand_set(rng))
        with armed_crash_point("mid-checkpoint-swap"):
            with pytest.raises(InjectedCrash):
                db.checkpoint()
        del db
        gc.collect()
        recovered = SimilarityDatabase.load(dbdir)
        # CURRENT was never republished: still generation 0, state intact.
        assert recovered.last_recovery.requested_generation == 0
        assert recovered.object_ids() == [0]
        recovered.checkpoint()
        assert recovered.generation == 1
        recovered.close()


class TestSnapshotIntegrityErrors:
    def test_crc_error_names_offending_member(self, tmp_path, rng):
        """A snapshot written while snapshots carried an index: its index
        tables are never parsed, but still CRC-checked."""
        db = SimilarityDatabase(CAPACITY)
        for oid in range(6):
            db.add(oid, rand_set(rng))
        path = tmp_path / "db.npz"
        db.save(path)
        meta, arrays, _ = read_archive(path, "repro-similarity-db")
        parent_snapshot("xtree")(meta, arrays)
        write_archive(path, meta, arrays, dense=False)
        SimilarityDatabase.load(path)
        tamper_npz_array(path, "index__entry_lowers")
        with pytest.raises(SnapshotIntegrityError) as excinfo:
            SimilarityDatabase.load(path)
        assert excinfo.value.member == "index__entry_lowers"
        assert "index entry-table array 'entry_lowers'" in str(excinfo.value)
        assert "checksum mismatch" in str(excinfo.value)

    def test_object_store_member_is_classified(self, tmp_path, rng):
        db = SimilarityDatabase(CAPACITY)
        db.add(0, rand_set(rng))
        path = tmp_path / "db.npz"
        db.save(path)
        tamper_npz_array(path, "set_data")
        with pytest.raises(SnapshotIntegrityError, match="object-store column 'set_data'"):
            SimilarityDatabase.load(path)


class TestLockTimeout:
    def test_write_timeout_while_reader_holds(self):
        import threading

        from repro.concurrency import RWLock

        lock = RWLock()
        entered, release = threading.Event(), threading.Event()

        def reader():
            with lock.read():
                entered.set()
                release.wait(5)

        thread = threading.Thread(target=reader)
        thread.start()
        assert entered.wait(5)
        try:
            with pytest.raises(LockTimeout, match="write lock"):
                with lock.write(timeout=0.05):
                    pass
            # The withdrawn writer claim must not strand new readers.
            with lock.read(timeout=1.0):
                pass
        finally:
            release.set()
            thread.join()

    def test_read_timeout_while_writer_holds(self):
        import threading

        from repro.concurrency import RWLock

        lock = RWLock()
        entered, release = threading.Event(), threading.Event()

        def writer():
            with lock.write():
                entered.set()
                release.wait(5)

        thread = threading.Thread(target=writer)
        thread.start()
        assert entered.wait(5)
        try:
            with pytest.raises(LockTimeout, match="read lock"):
                with lock.read(timeout=0.05):
                    pass
        finally:
            release.set()
            thread.join()

    def test_database_lock_timeout_plumbing(self, rng):
        import threading

        db = SimilarityDatabase(CAPACITY, lock_timeout=0.05)
        db.add(0, rand_set(rng))
        entered, release = threading.Event(), threading.Event()

        def wedged_writer():
            with db._lock.write():
                entered.set()
                release.wait(5)

        thread = threading.Thread(target=wedged_writer)
        thread.start()
        assert entered.wait(5)
        try:
            with pytest.raises(LockTimeout):
                db.knn_query(rand_set(rng), 1)
            with pytest.raises(LockTimeout):
                db.add(1, rand_set(rng))
        finally:
            release.set()
            thread.join()
        # After the writer releases, everything proceeds again.
        db.add(1, rand_set(rng))
        assert len(db) == 2


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402


class TestDurabilityProperties:
    """Hypothesis properties over randomized mutation plans.

    Plans are derived from a drawn seed (not drawn element-wise) so
    hypothesis shrinks over two small integers while the plan itself
    keeps the realistic interleaving that ``make_plan`` produces.
    """

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 14))
    def test_wal_replay_is_idempotent(self, seed, n):
        import shutil
        import tempfile

        from repro.db.storage import _apply_replay
        from repro.wal import scan_segment

        rng = np.random.default_rng(seed)
        plan = make_plan(rng, n=n)
        root = Path(tempfile.mkdtemp(prefix="repro-idem-"))
        try:
            dbdir = root / "db"
            db = SimilarityDatabase(CAPACITY, durable=True, path=dbdir)
            for step in plan:
                apply_step(db, step)
            db.close()
            recovered = SimilarityDatabase.load(dbdir)
            before = {oid: recovered.get(oid) for oid in recovered.object_ids()}
            # Replay the whole surviving chain a second time: the
            # recovered state must not move.
            recovered._replaying = True
            try:
                for segment in sorted(dbdir.glob("wal-*.log")):
                    for record in scan_segment(segment).records:
                        _apply_replay(recovered, record)
            finally:
                recovered._replaying = False
            assert recovered.object_ids() == sorted(before)
            for oid, arr in before.items():
                np.testing.assert_array_equal(recovered.get(oid), arr)
            query = rand_set(rng)
            reference = fresh_build(plan)
            got, _ = recovered.knn_query(query, 4)
            expected, _ = reference.knn_query(query, 4)
            assert [(m.object_id, m.distance) for m in got] == [
                (m.object_id, m.distance) for m in expected
            ]
            recovered.close()
        finally:
            shutil.rmtree(root, ignore_errors=True)

    @pytest.mark.parametrize("point", SINGLE_DB_POINTS)
    @given(seed=st.integers(0, 2**32 - 1), hit=st.integers(1, 6))
    def test_recovery_from_any_crash_point_matches_acknowledged_prefix(
        self, point, seed, hit
    ):
        import shutil
        import tempfile

        rng = np.random.default_rng(seed)
        plan = make_plan(rng)
        root = Path(tempfile.mkdtemp(prefix="repro-crash-"))
        try:
            dbdir = root / "db"
            db = SimilarityDatabase(CAPACITY, durable=True, path=dbdir)
            acknowledged = 0
            crashed = False
            with armed_crash_point(
                point, at=hit if point == "after-wal-append" else 1
            ):
                try:
                    for step in plan:
                        apply_step(db, step)
                        acknowledged += 1
                except InjectedCrash:
                    crashed = True
            del db
            gc.collect()
            if not crashed:
                return  # plan too short to reach the armed hit: vacuous
            recovered = SimilarityDatabase.load(dbdir)
            state_plan = [s for s in plan if s[0] != "checkpoint"]
            acked_state = len(
                [s for s in plan[:acknowledged] if s[0] != "checkpoint"]
            )
            assert matches_some_prefix(
                recovered, state_plan, acked_state, rng
            ), f"no acknowledged-or-later prefix matches ({point}, seed={seed})"
            recovered.close()
        finally:
            shutil.rmtree(root, ignore_errors=True)


class TestVerifyCommand:
    def _populated(self, dbdir, rng):
        db = SimilarityDatabase(CAPACITY, durable=True, path=dbdir)
        for oid in range(6):
            db.add(oid, rand_set(rng))
        db.checkpoint()
        db.add(6, rand_set(rng))
        db.close()

    def test_verify_ok(self, tmp_path, rng, capsys):
        from repro.cli import main

        dbdir = tmp_path / "db"
        self._populated(dbdir, rng)
        assert main(["db", "verify", str(dbdir)]) == 0
        assert "verify: ok" in capsys.readouterr().out

    def test_verify_degraded(self, tmp_path, rng, capsys):
        from repro.cli import main

        dbdir = tmp_path / "db"
        self._populated(dbdir, rng)
        corrupt_bytes(sorted(dbdir.glob("snapshot-*.npz"))[-1], 100, 64)
        assert main(["db", "verify", str(dbdir)]) == 3
        captured = capsys.readouterr()
        assert "degraded" in captured.err
        assert "recovered with degradation" in captured.out

    def test_verify_corrupt(self, tmp_path, rng, capsys):
        from repro.cli import main

        dbdir = tmp_path / "db"
        self._populated(dbdir, rng)
        for snapshot in dbdir.glob("snapshot-*.npz"):
            corrupt_bytes(snapshot, 100, 64)
        (dbdir / "wal-00000000.log").unlink()
        assert main(["db", "verify", str(dbdir)]) == 1
        assert "verify: corrupt" in capsys.readouterr().err

    def test_verify_snapshot_file(self, tmp_path, rng, capsys):
        from repro.cli import main

        db = SimilarityDatabase(CAPACITY)
        db.add(0, rand_set(rng))
        path = tmp_path / "db.npz"
        db.save(path)
        assert main(["db", "verify", str(path)]) == 0
        tamper_npz_array(path, "set_data")
        assert main(["db", "verify", str(path)]) == 1
        assert "object-store column" in capsys.readouterr().err

    def test_verify_opens_each_shard_once(self, tmp_path, rng, monkeypatch, capsys):
        """The routing check reads the ids of the shards the walk opened
        instead of opening the layout a second time."""
        from repro.cli import main
        from repro.db import storage

        root = tmp_path / "sharded"
        db = ShardedSimilarityDatabase(CAPACITY, shards=3, durable=True, path=root)
        for oid in range(9):
            db.add(oid, rand_set(rng))
        versions = db.version_vector()
        db.close()
        opened = []
        open_plain = storage.open_plain
        def counting(path, **options):
            opened.append(path)
            return open_plain(path, **options)

        monkeypatch.setattr(storage, "open_plain", counting)
        assert main(["db", "verify", str(root)]) == 0
        assert sorted(p.name for p in opened) == [f"shard-0000{i}" for i in range(3)]
        out = capsys.readouterr().out
        assert "verify: ok" in out and f"version vector: {versions}" in out

    def test_verify_not_a_database(self, tmp_path):
        from repro.cli import main

        bogus = tmp_path / "bogus"
        bogus.mkdir()
        assert main(["db", "verify", str(bogus)]) == 1
