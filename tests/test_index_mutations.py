"""Regression tests for index mutation paths and on-disk snapshots.

The delete paths — R*-tree underflow/orphan-reinsertion, X-tree
supernode shrinking — were flushed out by the stateful differential
tests; each scenario that failed during development is pinned here as a
deterministic regression, together with the snapshot
save/load/corruption behavior the three serving access methods share.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import StorageError
from repro.index import (
    RStarTree,
    SequentialScan,
    XTree,
    load_index,
    save_index,
    structure_digest,
)


def grid_points(n, dimension=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(-25, 26, size=(n, dimension)).astype(float)


class TestRStarDelete:
    def test_delete_missing_returns_false(self):
        tree = RStarTree(2, capacity=4)
        tree.insert(np.array([1.0, 2.0]), 7)
        assert tree.delete(np.array([1.0, 2.0]), 8) is False
        assert tree.delete(np.array([9.0, 9.0]), 7) is False  # wrong point
        assert tree.size == 1
        tree.check_invariants()

    def test_underflow_triggers_orphan_reinsertion(self):
        """Deleting below min-fill dissolves the leaf; its survivors must
        be reinserted, not lost."""
        tree = RStarTree(2, capacity=4)
        pts = grid_points(40, dimension=2, seed=1)
        for oid, p in enumerate(pts):
            tree.insert(p, oid)
        # Delete 3 of every 4 — repeatedly drives leaves under min-fill.
        survivors = {}
        for oid, p in enumerate(pts):
            if oid % 4:
                assert tree.delete(p, oid) is True
                tree.check_invariants()
            else:
                survivors[oid] = p
        assert tree.size == len(survivors)
        got = sorted(tree.range_search(np.zeros(2), 100.0))
        assert got == sorted(survivors)

    def test_delete_to_empty_and_refill(self):
        tree = RStarTree(3, capacity=4)
        pts = grid_points(30, seed=2)
        for oid, p in enumerate(pts):
            tree.insert(p, oid)
        for oid, p in enumerate(pts):
            assert tree.delete(p, oid) is True
        assert tree.size == 0
        tree.check_invariants()
        assert tree.knn(np.zeros(3), 3) == []
        for oid, p in enumerate(pts):  # the tree must still be usable
            tree.insert(p, oid)
        tree.check_invariants()
        assert tree.size == len(pts)

    def test_root_collapses_when_children_dissolve(self):
        """Removing most entries must shrink the tree's height back down
        (a dissolved last child becomes the new root)."""
        tree = RStarTree(2, capacity=4)
        pts = grid_points(60, dimension=2, seed=3)
        for oid, p in enumerate(pts):
            tree.insert(p, oid)
        tall = tree.height()
        for oid, p in list(enumerate(pts))[:-2]:
            assert tree.delete(p, oid)
        tree.check_invariants()
        assert tree.size == 2
        assert tree.height() < tall


class TestXTreeSupernodeShrink:
    def make_super(self):
        """max_overlap=0 forbids every overlapping split, so clustered
        integer points force genuine supernodes."""
        tree = XTree(3, capacity=4, max_overlap=0.0, max_supernode_factor=8)
        pts = grid_points(150, seed=4)
        for oid, p in enumerate(pts):
            tree.insert(p, oid)
        assert tree.supernodes_created > 0
        return tree, pts

    def test_supernodes_shrink_on_delete(self):
        tree, pts = self.make_super()
        for oid, p in enumerate(pts):
            assert tree.delete(p, oid) is True
            tree.check_invariants()  # includes the supernode tightness rule
        assert tree.size == 0

    def test_supernode_capacity_is_page_backed(self):
        tree, _ = self.make_super()
        base = tree.capacity

        def walk(node):
            yield node
            if not node.is_leaf:
                for child in node.children:
                    yield from walk(child)

        supers = [n for n in walk(tree.root) if n.capacity > base]
        assert supers, "expected at least one live supernode"
        for node in supers:
            assert node.capacity % base == 0
            assert node.capacity <= base * tree.max_supernode_factor


def build_trees():
    pts = grid_points(90, seed=9)
    rstar = RStarTree(3, capacity=4)
    xtree = XTree(3, capacity=4, max_overlap=0.0, max_supernode_factor=8)
    scan = SequentialScan(3)
    for oid, p in enumerate(pts):
        for tree in (rstar, xtree, scan):
            tree.insert(p, oid)
    # churn so the snapshots cover post-delete structures too
    for oid in range(0, 90, 4):
        for tree in (rstar, xtree, scan):
            assert tree.delete(pts[oid], oid)
    return {"rstar": rstar, "xtree": xtree, "scan": scan}


class TestSnapshots:
    @pytest.mark.parametrize("kind", ["rstar", "xtree", "scan"])
    def test_roundtrip_is_structure_identical(self, kind, tmp_path):
        tree = build_trees()[kind]
        path = tmp_path / f"{kind}.idx"
        save_index(tree, path)
        loaded = load_index(path)
        assert structure_digest(loaded) == structure_digest(tree)
        assert loaded.size == tree.size
        center = np.full(3, 2.0)
        assert loaded.knn(center, 9) == tree.knn(center, 9)
        assert list(loaded.incremental_nearest(center)) == list(
            tree.incremental_nearest(center)
        )
        if hasattr(loaded, "check_invariants"):
            loaded.check_invariants()

    @pytest.mark.parametrize("kind", ["rstar", "xtree"])
    def test_loaded_tree_stays_mutable(self, kind, tmp_path):
        tree = build_trees()[kind]
        path = tmp_path / f"{kind}.idx"
        save_index(tree, path)
        loaded = load_index(path)
        extra = np.array([1.0, -2.0, 3.0])
        loaded.insert(extra, 5000)
        loaded.check_invariants()
        assert loaded.delete(extra, 5000) is True
        loaded.check_invariants()
        assert structure_digest(loaded) != "", "digest must still compute"

    def test_corruption_is_detected(self, tmp_path):
        tree = build_trees()["rstar"]
        path = tmp_path / "r.idx"
        save_index(tree, path)
        blob = bytearray(path.read_bytes())
        # Flip a byte in the back half: the payload arrays live there,
        # so either the zip container or a CRC check must trip.
        blob[len(blob) // 2 + 37] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(StorageError):
            load_index(path)

    def test_truncation_is_detected(self, tmp_path):
        tree = build_trees()["xtree"]
        path = tmp_path / "x.idx"
        save_index(tree, path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(StorageError):
            load_index(path)

    def test_missing_file_raises_storage_error(self, tmp_path):
        with pytest.raises(StorageError):
            load_index(tmp_path / "absent.idx")

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "not-an-index.npz"
        np.savez(path, data=np.arange(3))
        with pytest.raises(StorageError):
            load_index(path)
