"""Regression tests for X-tree supernodes and snapshot-archive integrity.

The X-tree's supernode sizing was flushed out by the stateful
differential tests; the scenario is pinned here as a deterministic
regression, together with the corruption behaviour every snapshot
archive (:func:`repro.db.archive.read_archive`) shares.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.db.archive import read_archive, write_archive
from repro.exceptions import StorageError
from repro.index import XTree
from tests.conftest import serialize_index

FORMAT = "repro-index-snapshot"


def grid_points(n, dimension=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(-25, 26, size=(n, dimension)).astype(float)


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


def saved_tree(path):
    tree = XTree(3, capacity=4, max_overlap=0.0, max_supernode_factor=8)
    for oid, p in enumerate(grid_points(90, seed=9)):
        tree.insert(p, oid)
    return write_archive(path, *serialize_index(tree), dense=False)


class TestSnapshots:
    def test_corruption_is_detected(self, tmp_path):
        path = saved_tree(tmp_path / "r.idx")
        blob = bytearray(path.read_bytes())
        # Flip a byte in the back half: the payload arrays live there,
        # so either the zip container or a CRC check must trip.
        blob[len(blob) // 2 + 37] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(StorageError):
            read_archive(path, FORMAT)

    def test_truncation_is_detected(self, tmp_path):
        path = saved_tree(tmp_path / "x.idx")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(StorageError):
            read_archive(path, FORMAT)

    def test_missing_file_raises_storage_error(self, tmp_path):
        with pytest.raises(StorageError):
            read_archive(tmp_path / "absent.idx", FORMAT)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "not-an-index.npz"
        np.savez(path, data=np.arange(3))
        with pytest.raises(StorageError):
            read_archive(path, FORMAT)
        with pytest.raises(StorageError, match="expected"):
            read_archive(saved_tree(tmp_path / "x.idx"), "another-format")
