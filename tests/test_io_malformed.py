"""Malformed-input corpus, fuzzing, and round-trip properties for the parsers.

The contract under test: no parser entry point (`read_stl`, `read_off`,
`load_grid`, `SimilarityDatabase.load`) may raise anything outside the
:class:`ReproError` hierarchy on arbitrary input bytes — never a bare
``ValueError``/``IndexError``/``MemoryError`` — and hostile headers must
fail fast without large allocations.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.db import SimilarityDatabase
from repro.exceptions import ReproError, StorageError
from repro.geometry.mesh import TriangleMesh, box_mesh
from repro.io import read_mesh
from repro.io.off import read_off, write_off
from repro.io.stl import read_stl, write_stl_ascii, write_stl_binary
from repro.io.vox import load_grid

# -- hand-crafted malformed corpus --------------------------------------------

OFF_CORPUS = {
    "empty": "",
    "only-comments": "# nothing here\n# at all\n",
    "header-only": "OFF\n",
    "counts-not-numbers": "OFF\nnot numbers here\n",
    "negative-counts": "OFF\n-3 1 0\n0 0 0\n",
    "zero-vertices": "OFF\n0 0 0\n",
    "truncated-vertices": "OFF\n5 2 0\n0 0 0\n1 0 0\n",
    "vertex-too-few-coords": "OFF\n3 1 0\n0 0\n1 0\n0 1\n3 0 1 2\n",
    "vertex-not-a-number": "OFF\n3 1 0\n0 0 zero\n1 0 0\n0 1 0\n3 0 1 2\n",
    "nan-vertex": "OFF\n3 1 0\n0 0 nan\n1 0 0\n0 1 0\n3 0 1 2\n",
    "inf-vertex": "OFF\n3 1 0\ninf 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
    "face-index-out-of-bounds": "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n",
    "face-index-negative": "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 -1 2\n",
    "face-arity-2": "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n2 0 1\n",
    "face-arity-mismatch": "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n4 0 1 2\n",
    "face-not-numbers": "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\nthree 0 1 2\n",
    "huge-declared-counts": "OFF\n99999999 99999999 0\n0 0 0\n",
}

STL_CORPUS = {
    "empty": b"",
    "too-short-binary": b"\x00" * 50,
    "truncated-binary": b"\x00" * 80 + struct.pack("<I", 10) + b"\x00" * 60,
    "header-declares-2^31-triangles": b"\x00" * 80 + struct.pack("<I", 2**31),
    "ascii-no-triangles": b"solid empty\nendsolid empty\n",
    "ascii-partial-triangle": b"solid x\nvertex 0 0 0\nvertex 1 0 0\nendsolid x\n",
    "ascii-bad-vertex": (
        b"solid x\nvertex a b c\nvertex 1 0 0\nvertex 0 1 0\nendsolid x\n"
    ),
    "ascii-short-vertex": (
        b"solid x\nvertex 0 0\nvertex 1 0 0\nvertex 0 1 0\nendsolid x\n"
    ),
    "ascii-nan-vertex": (
        b"solid x\nvertex nan 0 0\nvertex 1 0 0\nvertex 0 1 0\nendsolid x\n"
    ),
    "ascii-inf-vertex": (
        b"solid x\nvertex inf 0 0\nvertex 1 0 0\nvertex 0 1 0\nendsolid x\n"
    ),
    "binary-masquerading-as-ascii": b"solid \xff\xfe\xfd" + b"\x00" * 20,
}


class TestOffCorpus:
    @pytest.mark.parametrize("name", sorted(OFF_CORPUS))
    def test_raises_storage_error(self, name, tmp_path):
        path = tmp_path / f"{name}.off"
        path.write_text(OFF_CORPUS[name])
        with pytest.raises(StorageError):
            read_off(path)

    def test_face_index_error_names_the_line(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text(OFF_CORPUS["face-index-out-of-bounds"])
        with pytest.raises(StorageError, match=r":6: face index 7"):
            read_off(path)

    def test_arity_error_names_the_line(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text(OFF_CORPUS["face-arity-2"])
        with pytest.raises(StorageError, match=r":6: face with arity 2"):
            read_off(path)

    def test_binary_junk_with_off_suffix(self, tmp_path):
        path = tmp_path / "binary.off"
        path.write_bytes(b"OFF\n\xff\xfe\x00\x9c junk")
        with pytest.raises(StorageError):
            read_off(path)


class TestStlCorpus:
    @pytest.mark.parametrize("name", sorted(STL_CORPUS))
    def test_raises_storage_error(self, name, tmp_path):
        path = tmp_path / f"{name}.stl"
        path.write_bytes(STL_CORPUS[name])
        with pytest.raises(StorageError):
            read_stl(path)

    def test_huge_declared_count_fails_fast_without_allocating(self, tmp_path):
        """An 84-byte file declaring 2^31 triangles must be rejected on
        the header alone (a naive reader would try to build a ~100 GB
        buffer)."""
        path = tmp_path / "bomb.stl"
        path.write_bytes(b"\x00" * 80 + struct.pack("<I", 2**31))
        with pytest.raises(StorageError, match="declares 2147483648 triangles"):
            read_stl(path)

    def test_unsupported_suffix_rejected(self, tmp_path):
        path = tmp_path / "part.obj"
        path.write_text("v 0 0 0\n")
        with pytest.raises(StorageError):
            read_mesh(path)


class TestVoxMalformed:
    def test_junk_bytes_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"definitely not a zip")
        with pytest.raises(StorageError):
            load_grid(path)

    def test_implausible_resolution_rejected(self, tmp_path):
        path = tmp_path / "huge.npz"
        np.savez_compressed(
            path,
            packed=np.zeros(2, dtype=np.uint8),
            resolution=np.array([10**6]),
            origin=np.zeros(3),
            voxel_size=np.array([1.0]),
        )
        with pytest.raises(StorageError, match="implausible resolution"):
            load_grid(path)

    def test_truncated_occupancy_rejected(self, tmp_path):
        path = tmp_path / "short.npz"
        np.savez_compressed(
            path,
            packed=np.zeros(2, dtype=np.uint8),
            resolution=np.array([15]),
            origin=np.zeros(3),
            voxel_size=np.array([1.0]),
        )
        with pytest.raises(StorageError, match="truncated"):
            load_grid(path)

    def test_wrong_dtype_rejected(self, tmp_path):
        path = tmp_path / "floats.npz"
        np.savez_compressed(
            path,
            packed=np.zeros(64, dtype=float),
            resolution=np.array([4]),
            origin=np.zeros(3),
            voxel_size=np.array([1.0]),
        )
        with pytest.raises(StorageError, match="dtype"):
            load_grid(path)


# -- deterministic fuzzing ----------------------------------------------------

PREFIXES = [b"", b"solid ", b"OFF\n", b"PK\x03\x04", b"REPRODNS"]


@pytest.mark.parametrize("seed", range(24))
def test_parsers_never_leak_foreign_exceptions(seed, tmp_path):
    """Arbitrary bytes either parse or raise inside the ReproError
    hierarchy — across every parser entry point."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(0, 400))
    blob = PREFIXES[seed % len(PREFIXES)] + rng.integers(
        0, 256, size=size, dtype=np.uint8
    ).tobytes()
    for suffix, reader in ((".stl", read_stl), (".off", read_off), (".npz", load_grid)):
        path = tmp_path / f"fuzz{suffix}"
        path.write_bytes(blob)
        try:
            reader(path)
        except ReproError:
            pass

    path = tmp_path / "fuzz-db.npz"
    path.write_bytes(blob)
    try:
        SimilarityDatabase.load(path)
    except ReproError:
        pass


@pytest.mark.parametrize("seed", range(12))
def test_bitflipped_valid_files_stay_inside_the_hierarchy(seed, tmp_path):
    """Flipping bytes of a valid STL/OFF either still parses or raises a
    ReproError — never a foreign exception."""
    rng = np.random.default_rng(1000 + seed)
    mesh = box_mesh(size=(1.0, 2.0, 0.5))
    stl_path = tmp_path / "part.stl"
    off_path = tmp_path / "part.off"
    write_stl_binary(mesh, stl_path)
    write_off(mesh, off_path)
    for path in (stl_path, off_path):
        data = bytearray(path.read_bytes())
        for _ in range(6):
            position = int(rng.integers(0, len(data)))
            data[position] ^= int(rng.integers(1, 256))
        path.write_bytes(bytes(data))
        try:
            read_mesh(path)
        except ReproError:
            pass


@pytest.mark.parametrize("dense", [False, True], ids=["npz", "dense"])
def test_bitflipped_snapshots_fail_typed(dense, tmp_path):
    """Flipping 1-3 bytes of a valid snapshot either raises a ReproError
    or opens the very database that was saved, in both containers: zip
    structure, .npy headers, the dense header's array table, the meta
    block and the data.  Every member is CRC-checked on open; the dense
    header is not, so a flip there may open changed (ROADMAP item 22)."""
    rng = np.random.default_rng(41)
    db = SimilarityDatabase(3)
    for oid in range(12):
        vectors = rng.integers(-8, 9, size=(int(rng.integers(1, 4)), 3)).astype(float)
        db.add(oid, vectors, {"name": f"part-{oid}"})
    good = db.save(tmp_path / "db.snap", dense=dense).read_bytes()
    saved = (db.engine_digest(), {oid: db.payload(oid) for oid in db.object_ids()})
    checked_from = 0  # an .npz: the whole file
    if dense:
        # The array region starts at the first 64-byte boundary past the
        # magic, the u32 header length and the header.
        header_len = int(np.frombuffer(good[8:12], dtype=np.uint32)[0])
        checked_from = -(-(12 + header_len) // 64) * 64
    path = tmp_path / "flipped.snap"
    for seed in range(500):
        flips = np.random.default_rng(seed)
        data = bytearray(good)
        positions = []
        for _ in range(int(flips.integers(1, 4))):
            positions.append(int(flips.integers(0, len(data))))
            data[positions[-1]] ^= int(flips.integers(1, 256))
        path.write_bytes(bytes(data))
        try:
            opened = SimilarityDatabase.load(path)
        except ReproError:
            continue
        if min(positions) >= checked_from:
            got = {oid: opened.payload(oid) for oid in opened.object_ids()}
            assert (opened.engine_digest(), got) == saved, (seed, positions)


# -- round-trip properties ----------------------------------------------------


@st.composite
def triangle_meshes(draw):
    n_vertices = draw(st.integers(3, 10))
    vertices = draw(
        arrays(
            float,
            (n_vertices, 3),
            elements=st.floats(-100, 100, allow_nan=False, width=32),
        )
    )
    n_faces = draw(st.integers(1, 6))
    faces = draw(
        arrays(np.int64, (n_faces, 3), elements=st.integers(0, n_vertices - 1))
    )
    return TriangleMesh(vertices, faces)


class TestRoundTripProperties:
    @settings(max_examples=25, deadline=None)
    @given(mesh=triangle_meshes())
    def test_off_roundtrip(self, mesh, tmp_path_factory):
        path = tmp_path_factory.mktemp("off") / "mesh.off"
        write_off(mesh, path)
        loaded = read_off(path)
        assert np.allclose(loaded.vertices, mesh.vertices, rtol=1e-6, atol=1e-9)
        assert np.array_equal(loaded.faces, mesh.faces)

    @settings(max_examples=25, deadline=None)
    @given(mesh=triangle_meshes())
    def test_binary_stl_roundtrip(self, mesh, tmp_path_factory):
        path = tmp_path_factory.mktemp("stl") / "mesh.stl"
        write_stl_binary(mesh, path)
        loaded = read_stl(path)
        assert loaded.num_faces == mesh.num_faces
        assert np.allclose(
            loaded.triangles(), mesh.triangles(), rtol=1e-5, atol=1e-4
        )

    @settings(max_examples=25, deadline=None)
    @given(mesh=triangle_meshes())
    def test_ascii_stl_roundtrip(self, mesh, tmp_path_factory):
        path = tmp_path_factory.mktemp("stl") / "mesh.stl"
        write_stl_ascii(mesh, path)
        loaded = read_stl(path)
        assert loaded.num_faces == mesh.num_faces
        assert np.allclose(
            loaded.triangles(), mesh.triangles(), rtol=1e-6, atol=1e-9
        )
