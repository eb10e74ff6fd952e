"""Tests for R*-tree deletion."""

import numpy as np

from repro.index.rstar import RStarTree


class TestDeletion:
    def test_delete_and_requery(self, rng):
        points = rng.random(size=(400, 3))
        tree = RStarTree(3)
        for i, point in enumerate(points):
            tree.insert(point, i)
        removed = set()
        for i in range(0, 400, 3):
            assert tree.delete(points[i], i)
            removed.add(i)
        tree.validate()
        assert tree.size == 400 - len(removed)
        query = rng.random(3)
        survivors = [i for i in range(400) if i not in removed]
        brute = sorted(survivors, key=lambda i: (np.linalg.norm(points[i] - query), i))[:5]
        assert [oid for oid, _ in tree.knn(query, 5)] == brute

    def test_delete_missing_returns_false(self, rng):
        tree = RStarTree(3)
        tree.insert(np.zeros(3), 0)
        assert not tree.delete(np.ones(3), 0)
        assert not tree.delete(np.zeros(3), 99)
        assert tree.size == 1

    def test_delete_everything(self, rng):
        points = rng.random(size=(60, 2))
        tree = RStarTree(2)
        for i, point in enumerate(points):
            tree.insert(point, i)
        for i, point in enumerate(points):
            assert tree.delete(point, i)
        assert tree.size == 0
        assert tree.range_search(np.array([0.5, 0.5]), 10.0) == []

    def test_interleaved_insert_delete(self, rng):
        tree = RStarTree(2)
        alive = {}
        next_id = 0
        for _ in range(500):
            if alive and rng.random() < 0.4:
                oid = list(alive)[int(rng.integers(len(alive)))]
                assert tree.delete(alive.pop(oid), oid)
            else:
                point = rng.random(2)
                tree.insert(point, next_id)
                alive[next_id] = point
                next_id += 1
        tree.validate()
        assert tree.size == len(alive)
