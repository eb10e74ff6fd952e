"""Array-native index cores: equivalence, zero-copy loads, durability.

The struct-of-arrays core of :mod:`repro.index.arraycore` promises
*literal* equality with a pointer tree serialized into the same tables
— same oids, same ``(distance, oid)`` order, bit-identical distances —
plus a dense snapshot container whose mmap-backed load answers its
first query without materializing a tree.  These tests pin each promise:

* the core's ranking equals the pointer ``knn`` / ``range_search``
  traversals across trees, corpora (uniform, clustered,
  duplicate-heavy) and k values;
* every STR pack (:func:`~repro.index.arraycore.densify`) writes the
  tables of the pointer STR load it replaced, is a structurally sound
  core (no underfull node) and ranks like brute force;
* zero-copy loads keep O(1) resident copies (every table is a view on
  one shared ``np.memmap``) and survive a fresh subprocess
  byte-for-byte;
* CRC corruption and structural corruption are both caught — by every
  open (:func:`~repro.db.archive.read_archive`) / ``repro db verify``
  and by ``check_invariants`` respectively.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db import DB_FORMAT, SimilarityDatabase
from repro.db.archive import read_archive, write_archive
from repro.exceptions import IndexError_, SnapshotIntegrityError
from repro.index import RStarTree, XTree
from repro.index.arraycore import RTreeArrayCore, densify
from tests.conftest import pointer_pack, ranked, serialize_index

DIM = 4

BACKENDS = {
    "rstar": lambda: RStarTree(DIM, capacity=4),
    "xtree": lambda: XTree(DIM, capacity=4, max_overlap=0.0),
}


def corpus(name: str, rng: np.random.Generator, n: int = 400) -> np.ndarray:
    if name == "uniform":
        return rng.uniform(0.0, 100.0, size=(n, DIM))
    if name == "clustered":
        centers = rng.uniform(0.0, 100.0, size=(8, DIM))
        family = rng.integers(0, len(centers), size=n)
        points = centers[family] + rng.normal(0.0, 4.0, size=(n, DIM))
        points[: n // 20] = rng.uniform(0.0, 100.0, size=(n // 20, DIM))
        return points
    if name == "duplicates":
        base = rng.integers(0, 8, size=(n // 4, DIM)).astype(float)
        return np.repeat(base, 4, axis=0)
    raise AssertionError(name)


def build(backend: str, points: np.ndarray):
    tree = BACKENDS[backend]()
    for oid, point in enumerate(points):
        tree.insert(point, oid)
    return tree


# -- structural equivalence -----------------------------------------------


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_core_queries_equal_pointer(backend):
    rng = np.random.default_rng(6)
    for name in ("clustered", "uniform", "duplicates"):
        points = corpus(name, rng)
        tree = build(backend, points)
        core = RTreeArrayCore(*serialize_index(tree))
        # Stored points as queries walk the zero-distance and tie paths.
        queries = np.vstack([rng.uniform(0.0, 100.0, size=(10, DIM)), points[:6]])
        for query in queries:
            for k in (1, 7, 60):
                assert ranked(core, query, k) == tree.knn(query, k)
            within = [oid for oid, dist in ranked(core, query) if dist <= 9.0]
            assert sorted(within) == sorted(tree.range_search(query, 9.0))


@given(
    n=st.integers(1, 500),
    dimension=st.integers(1, 8),
    capacity=st.none() | st.integers(4, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_pack_is_a_sound_core(n, dimension, capacity, seed):
    """The STR pack the engine's centroid column is held to: the tables
    and meta (key order included) of the pointer STR load it replaced, a
    sound core, and brute force's ranking.  Integer
    coordinates make ties and duplicates common and every distance
    exact, so brute force is a literal oracle."""
    rng = np.random.default_rng(seed)
    points = rng.integers(-6, 7, size=(n, dimension)).astype(float)
    core = densify(points, np.arange(n), capacity=capacity)
    meta, arrays = core.serialized()
    want_meta, want_arrays = pointer_pack(points, np.arange(n), capacity)
    assert list(meta.items()) == list(want_meta.items())
    assert list(arrays) == list(want_arrays)
    for name, table in arrays.items():
        assert table.dtype == want_arrays[name].dtype, name
        assert np.array_equal(table, want_arrays[name]), name
    core.check_invariants()
    query = rng.integers(-7, 8, size=dimension).astype(float)
    dists = np.sqrt(((points - query) ** 2).sum(axis=1))
    want = [(int(i), float(dists[i])) for i in np.lexsort((np.arange(n), dists))]
    for k in {1, min(n, 7), n}:
        assert ranked(core, query, k) == want[:k]
    radius = float(np.median(dists))
    within = [oid for oid, dist in ranked(core, query) if dist <= radius]
    assert sorted(within) == np.flatnonzero(dists <= radius).tolist()


def test_str_runs_are_near_equal():
    """d = 1, capacity 4, n = 7 used to pack leaves of 3, 3 and 1."""
    core = densify(np.arange(7.0)[:, None], np.arange(7), capacity=4)
    assert sorted(np.diff(core.arrays["entry_offsets"])[1:]) == [2, 2, 3]
    core.check_invariants()


# -- dense snapshots: zero-copy, durability, verification ------------------


def make_db(n: int = 60, seed: int = 12) -> SimilarityDatabase:
    rng = np.random.default_rng(seed)
    db = SimilarityDatabase(5)
    for oid in range(n):
        size = int(rng.integers(1, 6))
        db.add(oid, rng.standard_normal((size, 7)))
    return db


def test_dense_load_is_zero_copy(tmp_path):
    db = make_db()
    rng = np.random.default_rng(13)
    query = rng.standard_normal((2, 7))
    want = db.knn_query(query, 5)[0]
    npz_path, dense_path = tmp_path / "db.npz", tmp_path / "db.dense"
    db.save(npz_path)
    db.save(dense_path, dense=True)

    meta, arrays, dense = read_archive(dense_path, DB_FORMAT)
    assert dense
    bases = set()
    for name, array in arrays.items():
        base = array
        while isinstance(base, np.ndarray) and base.base is not None:
            base = base.base
        bases.add(id(base))
        assert not array.flags.writeable, name
    # O(1) resident copies: every table is a view over ONE shared mmap.
    assert len(bases) == 1

    loaded = SimilarityDatabase.load(dense_path)
    assert loaded.knn_query(query, 5)[0] == want
    assert SimilarityDatabase.load(npz_path).knn_query(query, 5)[0] == want


def test_dense_load_subprocess_byte_for_byte(tmp_path):
    db = make_db(seed=14)
    rng = np.random.default_rng(15)
    query = rng.standard_normal((2, 7))
    want = [
        (match.object_id, match.distance.hex())
        for match in db.knn_query(query, 5)[0]
    ]
    dense_path = tmp_path / "db.dense"
    db.save(dense_path, dense=True)
    query_path = tmp_path / "query.npy"
    np.save(query_path, query)
    script = (
        "import sys, numpy as np\n"
        "from repro.db import SimilarityDatabase\n"
        "db = SimilarityDatabase.load(sys.argv[1])\n"
        "query = np.load(sys.argv[2])\n"
        "for match in db.knn_query(query, 5)[0]:\n"
        "    print(match.object_id, match.distance.hex())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(dense_path), str(query_path)],
        capture_output=True,
        text=True,
        check=True,
    )
    got = [
        (int(oid), dist)
        for oid, dist in (line.split() for line in proc.stdout.splitlines())
    ]
    assert got == want


def test_mutation_after_zero_copy_load(tmp_path):
    db = make_db(seed=16)
    dense_path = tmp_path / "db.dense"
    db.save(dense_path, dense=True)
    rng = np.random.default_rng(17)
    extra = rng.standard_normal((3, 7))
    query = rng.standard_normal((2, 7))

    loaded = SimilarityDatabase.load(dense_path)
    loaded.add(999, extra)
    db.add(999, extra)
    assert loaded.knn_query(query, 5)[0] == db.knn_query(query, 5)[0]


def test_dense_crc_corruption_detected(tmp_path):
    from repro.cli import main

    db = make_db(seed=18)
    dense_path = tmp_path / "db.dense"
    db.save(dense_path, dense=True)
    assert main(["db", "verify", str(dense_path)]) == 0

    raw = bytearray(dense_path.read_bytes())
    raw[-8] ^= 0xFF  # flip a byte inside the last array block
    dense_path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotIntegrityError):
        read_archive(dense_path, DB_FORMAT)
    with pytest.raises(SnapshotIntegrityError):
        SimilarityDatabase.load(dense_path)
    assert main(["db", "verify", str(dense_path)]) == 1


def test_check_invariants_rejects_corrupt_tables():
    rng = np.random.default_rng(19)
    tree = build("rstar", corpus("uniform", rng, n=120))
    meta, arrays = serialize_index(tree)
    broken = dict(arrays)
    offsets = np.array(broken["entry_offsets"], dtype=np.int64)
    offsets[-1] += 1  # points past the entry tables
    broken["entry_offsets"] = offsets
    with pytest.raises(IndexError_):
        RTreeArrayCore(meta, broken).check_invariants()


def test_dense_roundtrip_preserves_arrays(tmp_path):
    rng = np.random.default_rng(20)
    tree = build("xtree", corpus("clustered", rng, n=150))
    meta, arrays = serialize_index(tree)
    path = tmp_path / "tree.dense"
    write_archive(path, dict(meta, format="test"), arrays, dense=True)
    got_meta, got_arrays, _ = read_archive(path, "test")
    assert set(got_arrays) == set(arrays)
    for name in arrays:
        assert np.array_equal(got_arrays[name], arrays[name]), name
    core = RTreeArrayCore(dict(got_meta, **meta), dict(got_arrays))
    core.check_invariants()
    query = rng.uniform(0.0, 100.0, size=DIM)
    assert ranked(core, query, 5) == tree.knn(query, 5)
