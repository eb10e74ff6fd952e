"""Tests for the R*-tree and the X-tree."""

import numpy as np
import pytest

from repro.exceptions import IndexError_
from repro.index.pages import PageManager
from repro.index.rstar import RStarTree
from repro.index.xtree import XTree


def brute_knn(points, query, k):
    dists = np.linalg.norm(points - query, axis=1)
    order = np.argsort(dists, kind="stable")[:k]
    return [int(i) for i in order]


@pytest.fixture(params=[RStarTree, XTree], ids=["rstar", "xtree"])
def built_tree(request, rng):
    points = rng.random(size=(500, 4))
    tree = request.param(4)
    for i, point in enumerate(points):
        tree.insert(point, i)
    return tree, points


class TestSpatialTrees:
    def test_structural_invariants(self, built_tree):
        tree, _ = built_tree
        tree.check_invariants()
        assert tree.size == 500

    def test_knn_matches_brute_force(self, built_tree, rng):
        tree, points = built_tree
        for _ in range(10):
            query = rng.random(4)
            ours = [oid for oid, _ in tree.knn(query, 8)]
            assert ours == brute_knn(points, query, 8)

    def test_knn_distances_correct(self, built_tree, rng):
        tree, points = built_tree
        query = rng.random(4)
        for oid, dist in tree.knn(query, 5):
            assert dist == pytest.approx(np.linalg.norm(points[oid] - query))

    def test_range_matches_brute_force(self, built_tree, rng):
        tree, points = built_tree
        query = rng.random(4)
        radius = 0.3
        ours = sorted(tree.range_search(query, radius))
        brute = sorted(
            int(i)
            for i in np.nonzero(np.linalg.norm(points - query, axis=1) <= radius)[0]
        )
        assert ours == brute

    def test_incremental_nearest_is_sorted(self, built_tree, rng):
        tree, _ = built_tree
        query = rng.random(4)
        distances = [d for _, d in zip(range(50), ())]  # placeholder
        ranking = tree.incremental_nearest(query)
        previous = -1.0
        for _, (oid, dist) in zip(range(50), ranking):
            assert dist >= previous
            previous = dist

    def test_incremental_nearest_is_lazy(self, rng):
        pages = PageManager()
        tree = RStarTree(3, page_manager=pages)
        for i, point in enumerate(rng.random(size=(300, 3))):
            tree.insert(point, i)
        pages.reset()
        ranking = tree.incremental_nearest(rng.random(3))
        next(ranking)
        partial = pages.cost.page_accesses
        for _ in zip(range(200), ranking):
            pass
        assert pages.cost.page_accesses > partial  # more reads happened later

    def test_duplicate_points_supported(self, rng):
        tree = RStarTree(3)
        point = np.array([0.5, 0.5, 0.5])
        for i in range(30):
            tree.insert(point, i)
        tree.check_invariants()
        assert len(tree.knn(point, 30)) == 30

    def test_box_entries(self, rng):
        tree = RStarTree(2)
        tree.insert_box(np.array([0.0, 0.0]), np.array([1.0, 1.0]), 1)
        tree.insert_box(np.array([5.0, 5.0]), np.array([6.0, 6.0]), 2)
        assert tree.range_search(np.array([0.5, 0.5]), 0.1) == [1]

    def test_parameter_validation(self):
        with pytest.raises(IndexError_):
            RStarTree(0)
        with pytest.raises(IndexError_):
            RStarTree(3, capacity=2)
        with pytest.raises(IndexError_):
            RStarTree(3, reinsert_fraction=1.0)
        tree = RStarTree(3)
        with pytest.raises(IndexError_):
            tree.insert(np.zeros(2), 0)
        with pytest.raises(IndexError_):
            tree.knn(np.zeros(3), 0)
        with pytest.raises(IndexError_):
            tree.range_search(np.zeros(3), -1.0)

    def test_no_reinsert_variant_still_correct(self, rng):
        points = rng.random(size=(300, 3))
        tree = RStarTree(3, reinsert_fraction=0.0)
        for i, point in enumerate(points):
            tree.insert(point, i)
        tree.check_invariants()
        query = rng.random(3)
        assert [oid for oid, _ in tree.knn(query, 5)] == brute_knn(points, query, 5)


class TestXTreeSupernodes:
    def test_supernodes_emerge_on_clustered_high_dim_data(self, rng):
        """Strongly overlapping high-dimensional clusters force supernodes."""
        pages = PageManager()
        tree = XTree(16, page_manager=pages, max_overlap=0.0)
        centers = rng.random(size=(5, 16))
        points = np.vstack([c + rng.normal(scale=0.3, size=(200, 16)) for c in centers])
        for i, point in enumerate(points):
            tree.insert(point, i)
        tree.check_invariants()
        query = points[0]
        assert [oid for oid, _ in tree.knn(query, 3)] == brute_knn(points, query, 3)

    def test_supernode_pages_cost_more(self, rng):
        pages = PageManager()
        tree = XTree(8, page_manager=pages, max_overlap=0.0, capacity=8)
        for i, point in enumerate(rng.normal(size=(600, 8))):
            tree.insert(point, i)
        if tree.supernodes_created:
            # At least one node spans multiple pages now.
            assert pages.total_bytes() > 0
        tree.check_invariants()

    def test_max_overlap_validation(self):
        with pytest.raises(IndexError_):
            XTree(3, max_overlap=1.5)
        with pytest.raises(IndexError_):
            XTree(3, max_supernode_factor=1)
