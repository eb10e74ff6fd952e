"""Sharded concurrency: scatter-gather answers pin one version vector.

The single-database concurrency contract (readers always observe a
consistent version) lifts to shards as: every scatter-gather query is
exact with respect to exactly one *version vector* — the tuple of
per-shard version counters captured while all shard read locks are
pinned.  The stress test runs one writer thread per shard (each
mutating only the oids its shard owns, publishing that shard's exact
membership before every mutation) against readers issuing 10-nn
queries through pinned views; each answer must equal the exact top-10
over the union of the per-shard memberships at the pinned vector.

Degradation is also part of the contract: a write lock stuck on ONE
shard makes scatter-gather time out (counted), while the healthy
shards keep answering direct queries.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import obs
from repro.core.min_matching import min_matching_distance
from repro.db import ShardedSimilarityDatabase, shard_of
from repro.exceptions import LockTimeout
from tests.conftest import BACKENDS, start_database

CAPACITY = 3
DIM = 3
SHARDS = 3


@pytest.fixture(autouse=True)
def clean_obs():
    obs.close_sink()
    obs.registry().reset()
    obs.disable()
    yield
    obs.close_sink()
    obs.registry().reset()
    obs.disable()


@pytest.mark.parametrize("backend", BACKENDS)
def test_scatter_gather_pins_a_version_vector(backend, rng, tmp_path):
    db = start_database(backend, tmp_path / "db", CAPACITY, shards=SHARDS)

    def rand_set():
        return rng.integers(
            -6, 7, size=(int(rng.integers(1, CAPACITY + 1)), DIM)
        ).astype(float)

    # Seed, then script each shard's writer independently.  oid pools
    # are disjoint by construction (filtered through shard_of), so every
    # mutation in shard i's script bumps exactly shard i's version:
    # per-shard histories compose into the global reference state for
    # ANY version vector a reader might pin.
    sets = {}
    for oid in range(18):
        sets[oid] = rand_set()
        db.add(oid, sets[oid])

    histories = []
    scripts = []
    next_oid = 18
    for i in range(SHARDS):
        shard = db.shards[i]
        live = {oid for oid in sets if shard_of(oid, SHARDS) == i}
        history = {shard.version: frozenset(live)}
        script = []
        for step in range(40):
            if step % 3 == 1 and len(live) > 2:
                victim = sorted(live)[step % len(live)]
                script.append(("remove", victim, None))
                live.discard(victim)
            else:
                while shard_of(next_oid, SHARDS) != i:
                    next_oid += 1
                arr = rand_set()
                script.append(("add", next_oid, arr))
                live.add(next_oid)
                sets[next_oid] = arr
                next_oid += 1
        histories.append(history)
        scripts.append(script)

    query = rand_set()
    exact = {oid: min_matching_distance(query, arr) for oid, arr in sets.items()}

    errors = []
    done = [threading.Event() for _ in range(SHARDS)]

    def writer(i):
        try:
            shard = db.shards[i]
            history = histories[i]
            version = shard.version
            membership = set(history[version])
            for op, oid, arr in scripts[i]:
                if op == "add":
                    membership.add(oid)
                else:
                    membership.discard(oid)
                version += 1
                history[version] = frozenset(membership)
                if op == "add":
                    db.add(oid, arr)
                else:
                    assert db.remove(oid)
                time.sleep(0.0005)
        except Exception as exc:  # noqa: BLE001 - surfaced to the main thread
            errors.append(f"writer-{i}: {exc!r}")
        finally:
            done[i].set()

    def reader():
        try:
            while not all(flag.is_set() for flag in done):
                with db.read_views() as views:
                    vector = tuple(view.version for view in views)
                    results, _ = db._as_one(views)._knn(query, 10)
                    assert (
                        tuple(view.version for view in views) == vector
                    ), "vector changed mid-pin"
                expected_ids = set()
                for i, version in enumerate(vector):
                    expected_ids |= histories[i][version]
                want = sorted(((exact[oid], oid) for oid in expected_ids))[:10]
                got = [(m.distance, m.object_id) for m in results]
                assert got == want, (
                    f"vector {vector}: got {got[:3]}..., want {want[:3]}..."
                )
        except Exception as exc:  # noqa: BLE001
            errors.append(f"reader: {exc!r}")
            for flag in done:
                flag.set()

    readers = [threading.Thread(target=reader) for _ in range(3)]
    writers = [threading.Thread(target=writer, args=(i,)) for i in range(SHARDS)]
    for t in readers:
        t.start()
    for t in writers:
        t.start()
    for t in writers:
        t.join(timeout=120)
    for t in readers:
        t.join(timeout=120)
        assert not t.is_alive(), "reader hung"
    assert all(not t.is_alive() for t in writers), "writer hung"
    assert errors == []
    # All scripts ran: the final state is queryable and exact.
    final, _ = db.knn_query(query, 10)
    final_ids = set()
    for i, version in enumerate(db.version_vector()):
        final_ids |= histories[i][version]
    want = sorted(((exact[oid], oid) for oid in final_ids))[:10]
    assert [(m.distance, m.object_id) for m in final] == want


def test_cross_shard_writers_serialize(rng):
    """One writer thread per shard, disjoint oid pools: every mutation
    lands, and the version vector counts per-shard mutations exactly."""
    db = ShardedSimilarityDatabase(CAPACITY, shards=SHARDS)
    pools = {i: [] for i in range(SHARDS)}
    for oid in range(120):
        pools[shard_of(oid, SHARDS)].append(oid)
    payloads = {
        oid: rng.integers(-6, 7, size=(1, DIM)).astype(float)
        for oid in range(120)
    }
    errors = []

    def add_pool(i):
        try:
            for oid in pools[i]:
                db.add(oid, payloads[oid])
        except Exception as exc:  # noqa: BLE001
            errors.append(repr(exc))

    threads = [threading.Thread(target=add_pool, args=(i,)) for i in range(SHARDS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert errors == []
    assert len(db) == 120
    assert db.object_ids() == list(range(120))
    assert db.version_vector() == tuple(len(pools[i]) for i in range(SHARDS))


def test_one_stuck_shard_degrades_loudly(rng):
    """A wedged writer on one shard must not wedge the whole database
    silently: scatter-gather raises LockTimeout (and counts it), while
    the healthy shards still answer direct queries."""
    obs.enable()
    db = ShardedSimilarityDatabase(CAPACITY, shards=SHARDS, lock_timeout=0.05)
    for oid in range(12):
        db.add(oid, rng.integers(-6, 7, size=(2, DIM)).astype(float))
    query = rng.integers(-6, 7, size=(1, DIM)).astype(float)
    baseline, _ = db.knn_query(query, 5)
    assert baseline

    hold = threading.Event()
    release = threading.Event()

    def wedge():
        with db.shards[1]._lock.write():
            hold.set()
            release.wait(timeout=30)

    wedger = threading.Thread(target=wedge)
    wedger.start()
    assert hold.wait(timeout=10)
    try:
        with pytest.raises(LockTimeout):
            db.knn_query(query, 5)
        assert obs.registry().counter("db.sharded.lock_timeouts").value >= 1
        # Healthy shards are individually still live.  Shard 0's own
        # ranking must lead with exactly the shard-0 members of the
        # global top-5 (anything better would have made the global cut).
        view_results, _ = db.shards[0].knn_query(query, 5)
        owned = [
            m.object_id
            for m in baseline
            if shard_of(m.object_id, SHARDS) == 0
        ]
        assert [m.object_id for m in view_results][: len(owned)] == owned
    finally:
        release.set()
        wedger.join(timeout=30)
    assert not wedger.is_alive()
    # Full scatter-gather recovers once the lock is released.
    after, _ = db.knn_query(query, 5)
    assert [(m.distance, m.object_id) for m in after] == [
        (m.distance, m.object_id) for m in baseline
    ]
