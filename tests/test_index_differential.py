"""Stateful differential testing of the database's filter step: the
ranking of a maintained database against a fresh build and brute force.

A hypothesis rule machine interleaves add, remove, update and
save-reload steps on a database, and after every step requires:

* k-nn and range answers *and* ``QueryStats`` literally equal to a
  freshly built database of the same objects, and to brute force;
* ``check_invariants()`` — engine equal to a from-scratch build;
* queries that leave every attribute of the database the very object
  it was (no query writes state, not even a cache).

Integer coordinates make every distance exactly representable and ties
common (the coordinate range is small), so equality is literal, and the
canonical ``(distance, oid)`` order is exercised across rows that
removals have moved.  Every object is a one-vector set of capacity 1,
so the matching distance *is* the Euclidean one and brute force is a
sort.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.db import SimilarityDatabase
from tests.conftest import (
    assert_answers_like_a_fresh_pack,
    assert_engine_is_fresh,
    reads_only,
)

DIMENSION = 3

coordinates = st.integers(min_value=-4, max_value=4)
points = st.tuples(*[coordinates] * DIMENSION)
PROBES = [np.zeros((1, DIMENSION)), np.array([[2.0, -1.0, 3.0]])]


def brute_force(model, center):
    center = np.asarray(center, dtype=float)
    return sorted(
        (float(np.linalg.norm(np.asarray(p, dtype=float) - center)), oid)
        for oid, p in model.items()
    )


def check(db, model):
    """Everything the module docstring promises, for one database."""
    assert_engine_is_fresh(db)
    assert db.object_ids() == sorted(model)
    assert_answers_like_a_fresh_pack(db, PROBES, k=5, epsilon=3.0)
    for probe in PROBES:
        ranked = brute_force(model, probe[0])
        got, _ = reads_only(db, lambda target: target.knn_query(probe, 5))
        assert [(m.object_id, m.distance) for m in got] == [
            (oid, dist) for dist, oid in ranked[:5]
        ]


class IndexDifferentialMachine(RuleBasedStateMachine):
    """The database against the model after every step."""

    def __init__(self):
        super().__init__()
        self.dbs = [SimilarityDatabase(1, sketch=False)]
        self.model: dict[int, tuple[int, ...]] = {}
        self.next_oid = 0

    def _each(self, call):
        for db in self.dbs:
            call(db)
        for db in self.dbs:
            check(db, self.model)

    # -- mutations ---------------------------------------------------------

    @rule(point=points)
    def add(self, point):
        oid = self.next_oid
        self.next_oid += 1
        self.model[oid] = point
        self._each(lambda db: db.add(oid, np.asarray([point], dtype=float)))

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove(self, data):
        oid = data.draw(st.sampled_from(sorted(self.model)), label="victim")
        del self.model[oid]
        self._each(lambda db: db.remove(oid))

    @rule()
    def remove_absent(self):
        """Removing an id that is not stored is a detected no-op."""
        for db in self.dbs:
            assert db.remove(self.next_oid + 1000) is False
        self._each(lambda db: None)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), point=points)
    def update(self, data, point):
        oid = data.draw(st.sampled_from(sorted(self.model)), label="target")
        self.model[oid] = point
        self._each(lambda db: db.update(oid, np.asarray([point], dtype=float)))

    @rule(dense=st.booleans())
    def save_reload(self, dense):
        """The save is a read, and the reopened database ranks alike."""
        with tempfile.TemporaryDirectory() as tmp:
            reopened = []
            for position, db in enumerate(self.dbs):
                path = Path(tmp) / f"db-{position}"
                reads_only(db, lambda target: target.save(path, dense=dense))
                reopened.append(SimilarityDatabase.load(path))
            for db, again in zip(self.dbs, reopened):
                assert again.index_digest() == db.index_digest()
            self.dbs = reopened
            for db in self.dbs:
                check(db, self.model)

    # -- drawn queries -----------------------------------------------------

    @precondition(lambda self: self.model)
    @rule(center=points, data=st.data())
    def knn_agrees(self, center, data):
        k = data.draw(st.integers(1, len(self.model) + 2), label="k")
        query = np.asarray([center], dtype=float)
        want = [(oid, dist) for dist, oid in brute_force(self.model, center)[:k]]
        for db in self.dbs:
            got, _ = reads_only(db, lambda target: target.knn_query(query, k))
            assert [(m.object_id, m.distance) for m in got] == want
        assert_answers_like_a_fresh_pack(self.dbs[0], [query], k=k, epsilon=2.0)

    @precondition(lambda self: self.model)
    @rule(center=points, radius=st.integers(0, 8))
    def range_agrees(self, center, radius):
        query = np.asarray([center], dtype=float)
        want = [
            (oid, dist)
            for dist, oid in brute_force(self.model, center)
            if dist <= radius
        ]
        for db in self.dbs:
            got, _ = reads_only(db, lambda target: target.range_query(query, radius))
            assert [(m.object_id, m.distance) for m in got] == want

    # -- global coherence --------------------------------------------------

    @invariant()
    def sizes_agree(self):
        for db in self.dbs:
            assert len(db) == len(self.model)


TestIndexDifferential = IndexDifferentialMachine.TestCase


@pytest.mark.parametrize("seed", [0, 1])
def test_bulk_churn_differential(seed):
    """A dense non-hypothesis workload beyond the stateful budget:
    hundreds of interleaved adds, removes and updates, checked every few
    steps."""
    rng = np.random.default_rng(seed)
    dbs = [SimilarityDatabase(1, sketch=False)]
    model: dict[int, tuple] = {}
    for step in range(300):
        point = tuple(rng.integers(-6, 7, size=DIMENSION).tolist())
        if model and step % 3 == 2:
            victim = int(rng.choice(sorted(model)))
            del model[victim]
            for db in dbs:
                assert db.remove(victim)
        elif model and step % 5 == 4:
            target = int(rng.choice(sorted(model)))
            model[target] = point
            for db in dbs:
                db.update(target, np.asarray([point], dtype=float))
        else:
            model[step] = point
            for db in dbs:
                db.add(step, np.asarray([point], dtype=float))
        if step % 17 == 0:
            for db in dbs:
                check(db, model)
    for db in dbs:
        check(db, model)


def test_equal_centroids_split_across_core_and_delta():
    """Objects at one point, added before, among and after 64 others
    (and one updated onto it in place): the ties come out by ascending
    oid, exactly as a fresh build ranks them."""
    db = SimilarityDatabase(1, sketch=False)
    tie = np.array([[1.0, 1.0, 1.0]])
    rng = np.random.default_rng(7)
    for oid in range(10, 138, 2):  # 64 objects, half of them at the tie
        at_tie = oid % 4 == 2
        db.add(oid, tie if at_tie else rng.integers(-9, 10, size=(1, 3)).astype(float))
    db.add(3, tie)  # before every earlier tie
    db.update(50, tie)  # 50 was a tie already: rewritten in its row
    db.add(61, tie)  # between earlier ties
    want = sorted([3, 61] + [oid for oid in range(10, 138, 2) if oid % 4 == 2])
    got, _ = reads_only(db, lambda target: target.knn_query(tie, len(want)))
    assert [m.object_id for m in got] == want
    assert {m.distance for m in got} == {0.0}
    got, _ = db.range_query(tie, 0.0)
    assert [m.object_id for m in got] == want
    assert_answers_like_a_fresh_pack(db, [tie], k=len(want) + 3, epsilon=0.0)
    check(db, {oid: tuple(db.get(oid)[0]) for oid in db.object_ids()})


def test_a_query_writes_no_state(tmp_path):
    """Neither a ranking of the mutated database nor a save under the
    read lock replaces any attribute of the database."""
    db = SimilarityDatabase(1)
    for oid in range(64):
        db.add(oid, np.array([[oid % 7, oid % 5, oid % 3]], dtype=float))
    db.remove(3)
    db.update(4, np.zeros((1, 3)))
    probe = np.ones((1, 3))
    for call in (
        lambda target: target.knn_query(probe, 6),
        lambda target: target.range_query(probe, 2.5),
        lambda target: target.knn_query(probe, 6, mode="approx", shortlist=9),
        lambda target: target.knn_query_many([probe, probe], 3),
        lambda target: target.index_digest(),
        lambda target: target.check_invariants(),
        lambda target: target.save(tmp_path / "db.npz"),
        lambda target: target.save(tmp_path / "db.dense", dense=True),
    ):
        reads_only(db, call)
