"""Concurrency: readers must always observe a consistent version.

The stress test runs N reader threads issuing 10-nn queries while a
writer thread interleaves adds, removes and updates — against a live
refinement engine, which every one of them rewrites in place.  The exact
answer at every database version is computed *before* the threads
start, so each reader can check its answer against the one version it
pinned — every result must be exact with respect to that consistent
state (same ids, same distances, canonically ordered), with no
exceptions and no torn reads in any thread.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.concurrency import RWLock
from repro.core.min_matching import min_matching_distance
from repro.db import SimilarityDatabase
from tests.conftest import BACKENDS, start_database

CAPACITY = 3
DIM = 3


class TestRWLock:
    def test_readers_share_writers_exclude(self):
        lock = RWLock()
        state = {"readers": 0, "writers": 0, "max_readers": 0}
        guard = threading.Lock()
        errors = []

        def read_body():
            with lock.read():
                with guard:
                    state["readers"] += 1
                    state["max_readers"] = max(
                        state["max_readers"], state["readers"]
                    )
                    if state["writers"]:
                        errors.append("reader overlapped a writer")
                time.sleep(0.002)
                with guard:
                    state["readers"] -= 1

        def write_body():
            with lock.write():
                with guard:
                    state["writers"] += 1
                    if state["writers"] > 1 or state["readers"]:
                        errors.append("writer was not exclusive")
                time.sleep(0.002)
                with guard:
                    state["writers"] -= 1

        threads = [
            threading.Thread(target=read_body if i % 4 else write_body)
            for i in range(24)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive(), "lock deadlocked"
        assert errors == []
        assert state["max_readers"] > 1, "readers never actually shared"

    def test_waiting_writer_blocks_new_readers(self):
        lock = RWLock()
        order = []
        release_first_reader = threading.Event()
        writer_waiting = threading.Event()

        def first_reader():
            with lock.read():
                order.append("r1-in")
                writer_waiting.wait(timeout=10)
                release_first_reader.wait(timeout=0.05)
            order.append("r1-out")

        def writer():
            # Signal just before blocking on the write lock; the tiny
            # sleep in second_reader makes the interleaving robust.
            writer_waiting.set()
            with lock.write():
                order.append("w")

        def second_reader():
            writer_waiting.wait(timeout=10)
            time.sleep(0.02)  # let the writer reach the wait loop
            with lock.read():
                order.append("r2")

        threads = [
            threading.Thread(target=fn)
            for fn in (first_reader, writer, second_reader)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        # Write preference: r2 arrived while the writer was waiting, so
        # it must run after the writer even though a read was active.
        assert order.index("w") < order.index("r2")


@pytest.mark.parametrize("backend", BACKENDS)
def test_readers_see_consistent_snapshots_under_writes(backend, rng, tmp_path):
    db = start_database(backend, tmp_path / "db", CAPACITY)

    def rand_set():
        return rng.integers(-6, 7, size=(int(rng.integers(1, CAPACITY + 1)), DIM)).astype(
            float
        )

    query = rand_set()

    def answer(contents):
        """The exact 10-nn of *query* over ``{oid: set}``."""
        return sorted(
            (min_matching_distance(query, arr), oid)
            for oid, arr in contents.items()
        )[:10]

    # Seed contents, then script the writer's whole mutation sequence up
    # front: expected[v] is the exact answer at version v, known before
    # the mutation that creates v runs, so a reader that pins v always
    # finds its reference.
    live = {}
    for oid in range(14):
        live[oid] = rand_set()
        db.add(oid, live[oid])
    expected = {db.version: answer(live)}
    script = []
    next_oid = 14
    for step in range(60):
        if step % 3 == 1 and len(live) > 6:
            victim = sorted(live)[step % len(live)]
            script.append(("remove", victim, None))
            del live[victim]
        elif step % 5 == 2:
            # Rewritten in its row, under the readers' noses.
            target = sorted(live)[step % len(live)]
            live[target] = rand_set()
            script.append(("update", target, live[target]))
        else:
            live[next_oid] = rand_set()
            script.append(("add", next_oid, live[next_oid]))
            next_oid += 1
        expected[db.version + len(script)] = answer(live)

    # The engine is live before the churn starts: every scripted
    # mutation maintains it in place while readers refine from it.
    first, _ = db.knn_query(query, 10)
    assert [(m.distance, m.object_id) for m in first] == expected[db.version]
    engine = db._engine
    rows_before = len(engine._oid_buf)
    moved_rows = []

    errors = []
    stop = threading.Event()

    def writer():
        try:
            for op, oid, arr in script:
                if op == "remove":
                    moved_rows.append(engine._row_of[oid] != len(engine) - 1)
                    assert db.remove(oid)
                else:
                    getattr(db, op)(oid, arr)
                time.sleep(0.0005)
        except Exception as exc:  # noqa: BLE001 - surfaced to the main thread
            errors.append(f"writer: {exc!r}")
        finally:
            stop.set()

    def reader():
        try:
            while not stop.is_set():
                with db.read_view() as view:
                    version = view.version
                    results, _ = view.knn_query(query, 10)
                    assert view.version == version, "version changed mid-view"
                want = expected[version]
                got = [(m.distance, m.object_id) for m in results]
                assert got == want, (
                    f"version {version}: got {got[:3]}..., want {want[:3]}..."
                )
        except Exception as exc:  # noqa: BLE001
            errors.append(f"reader: {exc!r}")
            stop.set()

    readers = [threading.Thread(target=reader) for _ in range(4)]
    writer_thread = threading.Thread(target=writer)
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in readers:
            t.start()
        writer_thread.start()
        writer_thread.join(timeout=120)
        for t in readers:
            t.join(timeout=120)
            assert not t.is_alive(), "reader hung"
    finally:
        sys.setswitchinterval(switch_interval)
    assert not writer_thread.is_alive(), "writer hung"
    assert errors == []
    # The writer finished the whole script on the one engine, through a
    # buffer growth and removals that moved the last row into the hole.
    assert db._engine is engine
    assert len(engine._oid_buf) > rows_before
    assert any(moved_rows)
    final, _ = db.knn_query(query, 10)
    assert [(m.distance, m.object_id) for m in final] == expected[db.version]
    assert db.version == max(expected)


def test_concurrent_mutations_serialize(rng):
    """Two writer threads interleave adds; every mutation must land and
    the version counter must count them exactly."""
    db = SimilarityDatabase(CAPACITY)
    errors = []
    # Pre-generate inputs: the numpy Generator is not thread-safe.
    payloads = {
        oid: rng.integers(-6, 7, size=(1, DIM)).astype(float) for oid in range(50)
    }

    def add_range(start):
        try:
            for oid in range(start, start + 25):
                db.add(oid, payloads[oid])
        except Exception as exc:  # noqa: BLE001
            errors.append(repr(exc))

    threads = [threading.Thread(target=add_range, args=(s,)) for s in (0, 25)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert errors == []
    assert len(db) == 50
    assert db.version == 50
    assert db.object_ids() == list(range(50))
