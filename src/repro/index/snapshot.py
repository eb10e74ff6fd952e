"""On-disk index snapshots: persist a built tree, reload it cold.

A restarted process should answer its first query without paying an
O(n log n) rebuild, so every access method a database can serve from is
serialized to a single ``.npz`` snapshot and reconstructed node-for-node:

* **R*-tree / X-tree** — nodes in BFS order with flat entry tables
  (lower/upper corners plus payload: an oid for leaf entries, the BFS
  index of the child for directory entries).  Supernode capacities and
  the X-tree's counters survive the roundtrip, page spans included.
* **Sequential scan** — the point block and its oid column.

The file format borrows the guarantees of the format-v2 object store
(:mod:`repro.io.database`): every array is CRC32-checksummed at save
time and verified at load time, and writes go to a process-unique
temporary file that is ``os.replace``\\ d over the target, so a crash
mid-save can never destroy the previous snapshot.

:func:`structure_digest` hashes the exact serialized form of a live
tree; two trees digest equal iff a snapshot of one reconstructs the
other.  Tests use it to prove a reloaded index did *zero* rebuild work —
the loaded structure is byte-identical to the saved one, not merely
equivalent.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.exceptions import SnapshotIntegrityError, StorageError
from repro.index.pages import PageManager
from repro.index.rstar import RStarTree, _Node
from repro.index.scan import SequentialScan
from repro.index.xtree import XTree
from repro.testing.faults import crash_point

SNAPSHOT_VERSION = 1

_KINDS = {"rstar": RStarTree, "xtree": XTree, "scan": SequentialScan}


def _kind_of(tree) -> str:
    # XTree subclasses RStarTree, so test the subclass first.
    if isinstance(tree, XTree):
        return "xtree"
    if isinstance(tree, RStarTree):
        return "rstar"
    if isinstance(tree, SequentialScan):
        return "scan"
    raise StorageError(f"cannot snapshot a {type(tree).__name__}")


# -- serialization ---------------------------------------------------------


def _bfs_nodes(root: _Node) -> list[_Node]:
    nodes, frontier = [], [root]
    while frontier:
        node = frontier.pop(0)
        nodes.append(node)
        frontier.extend(node.children)
    return nodes


def _serialize_rtree(tree: RStarTree) -> tuple[dict, dict[str, np.ndarray]]:
    nodes = _bfs_nodes(tree.root)
    index_of = {id(node): i for i, node in enumerate(nodes)}
    levels = np.array([node.level for node in nodes], dtype=np.int64)
    capacities = np.array([node.capacity for node in nodes], dtype=np.int64)
    counts = [node.size for node in nodes]
    offsets = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    lowers = np.empty((total, tree.dimension), dtype=np.float64)
    uppers = np.empty((total, tree.dimension), dtype=np.float64)
    payloads = np.empty(total, dtype=np.int64)
    for i, node in enumerate(nodes):
        start, stop = offsets[i], offsets[i + 1]
        lowers[start:stop] = node.lowers
        uppers[start:stop] = node.uppers
        if node.is_leaf:
            payloads[start:stop] = node.oids
        else:
            payloads[start:stop] = [index_of[id(c)] for c in node.children]
    meta = {
        "dimension": tree.dimension,
        "capacity": tree.capacity,
        "reinsert_count": tree.reinsert_count,
        "size": tree.size,
    }
    if isinstance(tree, XTree):
        meta.update(
            max_overlap=tree.max_overlap,
            max_supernode_factor=tree.max_supernode_factor,
            supernodes_created=tree.supernodes_created,
            supernodes_dissolved=tree.supernodes_dissolved,
        )
    arrays = {
        "node_level": levels,
        "node_capacity": capacities,
        "entry_offsets": offsets,
        "entry_lowers": lowers,
        "entry_uppers": uppers,
        "entry_payloads": payloads,
    }
    return meta, arrays


def _serialize_scan(tree: SequentialScan) -> tuple[dict, dict[str, np.ndarray]]:
    points = (
        np.vstack(tree._points)
        if tree._points
        else np.empty((0, tree.dimension), dtype=np.float64)
    )
    meta = {"dimension": tree.dimension, "size": tree.size}
    arrays = {
        "points": np.ascontiguousarray(points, dtype=np.float64),
        "oids": np.asarray(tree._oids, dtype=np.int64),
    }
    return meta, arrays


def _serialize(tree) -> tuple[dict, dict[str, np.ndarray]]:
    if hasattr(tree, "serialized"):  # an array core already *is* the flat form
        meta, arrays = tree.serialized()
        return dict(meta), dict(arrays)
    kind = _kind_of(tree)
    if kind == "scan":
        meta, arrays = _serialize_scan(tree)
    else:
        meta, arrays = _serialize_rtree(tree)
    meta["format"] = "repro-index-snapshot"
    meta["version"] = SNAPSHOT_VERSION
    meta["kind"] = kind
    return meta, arrays


def _checksums(arrays: dict[str, np.ndarray]) -> dict[str, int]:
    return {
        name: zlib.crc32(np.ascontiguousarray(arr).tobytes())
        for name, arr in sorted(arrays.items())
    }


def structure_digest(tree) -> str:
    """A stable hex digest of the tree's exact serialized structure.

    Two trees share a digest iff their snapshots are interchangeable —
    same nodes, same entry order, same boxes/capacities.  Queries
    never change the digest; any mutation does (modulo hash collisions).
    """
    meta, arrays = _serialize(tree)
    hasher = hashlib.sha256()
    hasher.update(json.dumps(meta, sort_keys=True).encode("utf-8"))
    for name, arr in sorted(arrays.items()):
        hasher.update(name.encode("utf-8"))
        hasher.update(str(arr.shape).encode("utf-8"))
        hasher.update(np.ascontiguousarray(arr).tobytes())
    return hasher.hexdigest()


# -- save / load -----------------------------------------------------------


def write_archive(path: str | Path, meta: dict, arrays: dict[str, np.ndarray]) -> Path:
    """Write a CRC-checked ``.npz`` archive atomically (tmp + replace).

    *meta* must carry a ``format`` marker; per-array CRC32 checksums are
    added here and verified by :func:`read_archive`.  Shared by index
    snapshots and the mutable database's own snapshot file.
    """
    path = Path(path)
    meta = dict(meta)
    meta["checksums"] = _checksums(arrays)
    payload = dict(arrays)
    payload["meta"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            np.savez_compressed(handle, **payload)
            handle.flush()
            os.fsync(handle.fileno())
        # Crash seam: the archive bytes exist only in the temporary
        # file; dying here must leave the published snapshot untouched.
        crash_point("mid-snapshot-write")
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink(missing_ok=True)
    return path


def describe_member(name: str) -> str:
    """A human classification of an archive member, for actionable
    integrity errors: which *part* of the database the bad bytes hold.
    """
    if name == "meta":
        return "archive metadata block"
    if name.startswith("index__"):
        inner = name[len("index__") :]
        if inner.startswith("node_"):
            return f"index node-table array {inner!r}"
        if inner.startswith("entry_"):
            return f"index entry-table array {inner!r}"
        if inner.startswith("obj_"):
            return f"index stored-object array {inner!r}"
        return f"index structure array {inner!r}"
    if name.startswith(("node_", "entry_", "obj_")) or name in ("points", "oids"):
        return f"index snapshot array {name!r}"
    if name.startswith("set_") or name == "centroids":
        return f"object-store column {name!r}"
    return f"archive member {name!r}"


def read_archive(
    path: str | Path, expected_format: str
) -> tuple[dict, dict[str, np.ndarray]]:
    """Read and integrity-check an archive written by :func:`write_archive`.

    Integrity failures raise :class:`SnapshotIntegrityError` naming the
    offending member and what it holds (``index node-table array
    'entry_lowers'``, ``object-store column 'set_data'``, ...) so the
    recovery ladder's logs say *what* is damaged, not just that
    something is.
    """
    path = Path(path)
    member_errors = (
        OSError,
        ValueError,
        KeyError,
        zlib.error,
        zipfile.BadZipFile,
        io.UnsupportedOperation,
    )
    try:
        with np.load(path, allow_pickle=False) as archive:
            names = list(archive.files)
            payload = {}
            for name in names:
                try:
                    payload[name] = archive[name]
                except member_errors as exc:
                    raise SnapshotIntegrityError(
                        path, name, f"unreadable: {exc}", kind=describe_member(name)
                    ) from exc
    except SnapshotIntegrityError:
        raise
    except member_errors as exc:
        raise StorageError(f"cannot read snapshot {path}: {exc}") from exc
    if "meta" not in payload:
        raise StorageError(f"{path} is not a snapshot archive (no meta block)")
    try:
        meta = json.loads(bytes(payload.pop("meta")).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotIntegrityError(
            path, "meta", str(exc), kind=describe_member("meta")
        ) from exc
    if meta.get("format") != expected_format:
        raise StorageError(
            f"{path} holds {meta.get('format')!r}, expected {expected_format!r}"
        )
    stored = meta.get("checksums", {})
    actual = _checksums(payload)
    for name in sorted(set(stored) | set(actual)):
        if stored.get(name) != actual.get(name):
            raise SnapshotIntegrityError(
                path,
                name,
                f"checksum mismatch (stored {stored.get(name)!r}, "
                f"computed {actual.get(name)!r})",
                kind=describe_member(name),
            )
    return meta, payload


def save_index(tree, path: str | Path, *, dense: bool = False) -> Path:
    """Atomically write a CRC-checked snapshot of *tree* to *path*.

    ``dense=True`` writes the flat mmap-able container of
    :mod:`repro.index.dense` instead of an ``.npz`` archive;
    :func:`load_index` then returns a zero-copy array core whose node
    tables are views over the file.
    """
    meta, arrays = _serialize(tree)
    if dense:
        from repro.index.dense import write_dense_archive

        return write_dense_archive(path, meta, arrays)
    return write_archive(path, meta, arrays)


def _load_arrays(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    meta, payload = read_archive(path, "repro-index-snapshot")
    if meta.get("version") != SNAPSHOT_VERSION:
        raise StorageError(
            f"{path}: unsupported snapshot version {meta.get('version')!r}"
        )
    return meta, payload


def _build_rtree(
    meta: dict, arrays: dict[str, np.ndarray], page_manager: PageManager | None
) -> RStarTree:
    if meta["kind"] == "xtree":
        tree = XTree(
            dimension=meta["dimension"],
            page_manager=page_manager,
            capacity=meta["capacity"],
            reinsert_fraction=0.0,
            max_overlap=meta["max_overlap"],
            max_supernode_factor=meta["max_supernode_factor"],
        )
        tree.supernodes_created = meta["supernodes_created"]
        tree.supernodes_dissolved = meta["supernodes_dissolved"]
    else:
        tree = RStarTree(
            dimension=meta["dimension"],
            page_manager=page_manager,
            capacity=meta["capacity"],
            reinsert_fraction=0.0,
        )
    tree.reinsert_count = meta["reinsert_count"]
    levels = arrays["node_level"]
    capacities = arrays["node_capacity"]
    offsets = arrays["entry_offsets"]
    lowers = arrays["entry_lowers"]
    uppers = arrays["entry_uppers"]
    payloads = arrays["entry_payloads"]
    base_page = tree.pages.page_size
    nodes: list[_Node] = []
    for i in range(len(levels)):
        capacity = int(capacities[i])
        span = -(-capacity // meta["capacity"])
        page_id = tree.pages.allocate(span * base_page)
        nodes.append(
            _Node(int(levels[i]), meta["dimension"], capacity, page_id)
        )
    count = len(nodes)
    for i, node in enumerate(nodes):
        start, stop = int(offsets[i]), int(offsets[i + 1])
        if node.is_leaf:
            entry_payloads: list = [int(oid) for oid in payloads[start:stop]]
        else:
            entry_payloads = []
            for child_index in payloads[start:stop]:
                if not 0 <= child_index < count:
                    raise StorageError(
                        f"snapshot references node {child_index} of {count}"
                    )
                entry_payloads.append(nodes[int(child_index)])
        node.set_entries(
            lowers[start:stop].copy(), uppers[start:stop].copy(), entry_payloads
        )
    if not nodes:
        raise StorageError("snapshot holds no nodes")
    tree.root = nodes[0]
    tree.root.parent = None
    tree.size = meta["size"]
    return tree


def load_index(path: str | Path, *, page_manager: PageManager | None = None):
    """Reconstruct the index stored at *path* without any rebuild work.

    An ``.npz`` snapshot reconstructs the pointer tree exactly as saved
    (``structure_digest`` of the result equals the saved tree's), with
    fresh page accounting.  A dense snapshot (:func:`save_index` with ``dense=True``)
    instead returns the matching **array core** whose node tables are
    zero-copy mmap views over the file: the process answers its first
    query without materializing a single node object, and the core's
    :meth:`inflate` produces the pointer tree on demand.
    """
    path = Path(path)
    from repro.index.dense import is_dense_archive

    if is_dense_archive(path):
        from repro.index.arraycore import core_from_serialized
        from repro.index.dense import read_dense_archive

        meta, arrays = read_dense_archive(path, "repro-index-snapshot")
        if meta.get("version") != SNAPSHOT_VERSION:
            raise StorageError(
                f"{path}: unsupported snapshot version {meta.get('version')!r}"
            )
        return core_from_serialized(meta, arrays, page_manager=page_manager)
    meta, arrays = _load_arrays(path)
    return reconstruct_index(meta, arrays, page_manager=page_manager)


def serialize_index(tree) -> tuple[dict, dict[str, np.ndarray]]:
    """The (meta, arrays) snapshot form of *tree* without writing a file.

    Embedders (the mutable database) stow these in their own archive
    and rebuild with :func:`reconstruct_index`; they are responsible
    for integrity checking the arrays themselves.
    """
    return _serialize(tree)


def indexed_oids(index) -> np.ndarray:
    """The object ids *index* stores (a pointer tree or an array core),
    ascending — read off the leaf entries of its serialized form."""
    meta, arrays = _serialize(index)
    if meta["kind"] == "scan":
        oids = arrays["oids"]
    else:
        in_leaf = np.repeat(
            arrays["node_level"] == 0, np.diff(arrays["entry_offsets"])
        )
        oids = arrays["entry_payloads"][in_leaf]
    return np.sort(np.asarray(oids, dtype=np.int64))


def reconstruct_index(
    meta: dict,
    arrays: dict[str, np.ndarray],
    *,
    page_manager: PageManager | None = None,
):
    """Rebuild a tree from its :func:`serialize_index` form."""
    if meta.get("kind") not in _KINDS:
        raise StorageError(f"unknown index kind {meta.get('kind')!r}")
    try:
        if meta["kind"] == "scan":
            scan = SequentialScan(meta["dimension"], page_manager)
            scan._points = [row.copy() for row in arrays["points"]]
            scan._oids = [int(oid) for oid in arrays["oids"]]
            return scan
        return _build_rtree(meta, arrays, page_manager)
    except KeyError as exc:
        raise StorageError(f"snapshot is missing field {exc}") from exc
