"""Stateful differential testing of the three mutable access methods.

A hypothesis rule machine interleaves inserts, deletes, range queries
and k-nn queries and asserts that the X-tree, the R*-tree and the
linear scan return *identical* results at every step — same ids, same
distances, same order.  Integer coordinates make every distance exactly
representable, so equality is literal, not approximate: all three
implementations compute ``sqrt`` of the same exact integer sum of
squares, and ties resolve canonically by ascending object id in each
of them.  (The insert-only M-tree is held to the same answers by
``tests/test_index_trees.py``.)

``check_invariants()`` runs on every tree after every mutation, so a
structural violation (MBR containment, fanout bounds, supernode sizing)
is caught at the step that introduced it, with hypothesis shrinking the
workload to a minimal reproduction.

One ``SimilarityDatabase`` per backend rides along, holding every point
as a one-vector set (capacity 1, so the matching distance *is* the
Euclidean one): its answers must be the model's too, its
``check_invariants()`` must hold and its refinement engine — maintained
in place by every insert and delete — must equal a from-scratch build
after every step.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.db import BACKENDS, SimilarityDatabase
from repro.index import RStarTree, SequentialScan, XTree
from tests.conftest import assert_engine_is_fresh

DIMENSION = 3

coordinates = st.integers(min_value=-32, max_value=32)
points = st.tuples(*[coordinates] * DIMENSION)


def euclidean(a, b):
    return float(np.linalg.norm(np.asarray(a, float) - np.asarray(b, float)))


class IndexDifferentialMachine(RuleBasedStateMachine):
    """All three access methods must agree with the model and each other."""

    def __init__(self):
        super().__init__()
        # Small capacities force splits (and supernode creation for the
        # X-tree: max_overlap=0.0 makes every overlapping split fail).
        self.rstar = RStarTree(DIMENSION, capacity=4)
        self.xtree = XTree(
            DIMENSION, capacity=4, max_overlap=0.0, max_supernode_factor=8
        )
        self.scan = SequentialScan(DIMENSION)
        self.trees = [self.rstar, self.xtree, self.scan]
        self.dbs = [
            SimilarityDatabase(1, backend=backend, index_capacity=4)
            for backend in BACKENDS
        ]
        self.model: dict[int, tuple[int, ...]] = {}
        self.next_oid = 0

    # -- mutations ---------------------------------------------------------

    def _check_all(self):
        for tree in (self.rstar, self.xtree):
            tree.check_invariants()
        # Every mutation invalidates the cached array core; re-densify
        # and structurally verify the fresh node tables as well.
        for tree in self.trees:
            tree.dense_core().check_invariants()
        for db in self.dbs:
            if self.model:
                # Packs the engine at the first insert, so every later
                # step maintains a live one.
                db.knn_query(np.zeros((1, DIMENSION)), 1)
            assert_engine_is_fresh(db)

    @rule(point=points)
    def insert(self, point):
        oid = self.next_oid
        self.next_oid += 1
        arr = np.asarray(point, dtype=float)
        for tree in self.trees:
            tree.insert(arr, oid)
        for db in self.dbs:
            db.add(oid, arr[None, :])
        self.model[oid] = point
        self._check_all()

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        oid = data.draw(st.sampled_from(sorted(self.model)), label="victim")
        point = np.asarray(self.model.pop(oid), dtype=float)
        for tree in self.trees:
            assert tree.delete(point, oid) is True
        for db in self.dbs:
            assert db.remove(oid) is True
        self._check_all()

    @precondition(lambda self: self.model)
    @rule(data=st.data(), point=points)
    def delete_absent(self, data, point):
        """Deleting an id that is not stored must be a detected no-op."""
        oid = self.next_oid + 1000  # never assigned
        arr = np.asarray(point, dtype=float)
        for tree in self.trees:
            assert tree.delete(arr, oid) is False
        for db in self.dbs:
            assert db.remove(oid) is False
        self._check_all()

    # -- queries -----------------------------------------------------------

    def _expected(self, center):
        pairs = [(euclidean(p, center), oid) for oid, p in self.model.items()]
        pairs.sort()
        return pairs

    @precondition(lambda self: self.model)
    @rule(center=points, data=st.data())
    def knn_agrees(self, center, data):
        k = data.draw(
            st.integers(min_value=1, max_value=len(self.model) + 2), label="k"
        )
        arr = np.asarray(center, dtype=float)
        expected = [
            (oid, dist) for dist, oid in self._expected(center)[:k]
        ]
        for tree in self.trees:
            assert tree.knn(arr, k) == expected, type(tree).__name__
            core = tree.dense_core()
            assert core.knn(arr, k) == expected, type(core).__name__
        for db in self.dbs:
            # Exact and, over a shortlist of everything, approximate.
            for args in ({}, {"mode": "approx", "shortlist": len(self.model)}):
                results, _ = db.knn_query(arr[None, :], k, **args)
                got = [(m.object_id, m.distance) for m in results]
                assert got == expected, (db.backend, args)

    @precondition(lambda self: self.model)
    @rule(center=points, radius=st.integers(min_value=0, max_value=40))
    def range_agrees(self, center, radius):
        arr = np.asarray(center, dtype=float)
        expected_ids = sorted(
            oid for dist, oid in self._expected(center) if dist <= radius
        )
        assert sorted(self.rstar.range_search(arr, radius)) == expected_ids
        assert sorted(self.xtree.range_search(arr, radius)) == expected_ids
        assert sorted(self.scan.range_search(arr, radius)) == expected_ids

    @precondition(lambda self: self.model)
    @rule(center=points)
    def ranking_agrees(self, center):
        """incremental_nearest yields the full canonical ranking."""
        arr = np.asarray(center, dtype=float)
        expected = [(oid, dist) for dist, oid in self._expected(center)]
        for tree in (self.rstar, self.xtree, self.scan):
            assert list(tree.incremental_nearest(arr)) == expected, (
                type(tree).__name__
            )
            assert list(tree.dense_core().incremental_nearest(arr)) == (
                expected
            ), type(tree).__name__

    # -- global coherence --------------------------------------------------

    @invariant()
    def sizes_agree(self):
        for tree in self.trees:
            assert tree.size == len(self.model), type(tree).__name__
        for db in self.dbs:
            assert len(db) == len(self.model), db.backend


TestIndexDifferential = IndexDifferentialMachine.TestCase


@pytest.mark.parametrize("seed", [0, 1])
def test_bulk_churn_differential(seed):
    """A dense non-hypothesis workload: hundreds of interleaved inserts
    and deletes with invariant checks, beyond the stateful budget."""
    rng = np.random.default_rng(seed)
    rstar = RStarTree(DIMENSION, capacity=4)
    xtree = XTree(DIMENSION, capacity=4, max_overlap=0.0, max_supernode_factor=8)
    scan = SequentialScan(DIMENSION)
    trees = [rstar, xtree, scan]
    model = {}
    for oid in range(220):
        point = rng.integers(-20, 21, size=DIMENSION).astype(float)
        for tree in trees:
            tree.insert(point, oid)
        model[oid] = point
        if oid % 3 == 2:  # interleave deletes
            victim = int(rng.choice(sorted(model)))
            for tree in trees:
                assert tree.delete(model[victim], victim)
            del model[victim]
        if oid % 17 == 0:
            for tree in (rstar, xtree):
                tree.check_invariants()
    for tree in (rstar, xtree):
        tree.check_invariants()
    assert xtree.supernodes_created > 0, "workload never made a supernode"

    center = np.zeros(DIMENSION)
    pairs = sorted((euclidean(p, center), oid) for oid, p in model.items())
    expected = [(oid, dist) for dist, oid in pairs[:10]]
    for tree in trees:
        assert tree.knn(center, 10) == expected, type(tree).__name__
