"""On-disk index snapshots: persist a built tree, reload it cold.

A restarted process should answer its first query without paying an
O(n log n) rebuild, so every access method can be serialized to a single
``.npz`` snapshot and reconstructed node-for-node:

* **R*-tree / X-tree** — nodes in BFS order with flat entry tables
  (lower/upper corners plus payload: an oid for leaf entries, the BFS
  index of the child for directory entries).  Supernode capacities and
  the X-tree's counters survive the roundtrip, page spans included.
* **M-tree** — nodes in BFS order with per-entry routing data
  (``dist_to_parent``, covering radius) and the stored objects packed
  into one ragged float table.  The metric itself is code, not data, so
  :func:`load_index` requires it as an argument for M-tree snapshots.

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
from repro.index.mtree import MTree, _MEntry, _MNode
from repro.index.pages import PageManager
from repro.index.rstar import RStarTree, _Node
from repro.index.scan import SequentialScan
from repro.index.xtree import XTree
from repro.testing.faults import crash_point

SNAPSHOT_VERSION = 1

_KINDS = {"rstar": RStarTree, "xtree": XTree, "mtree": MTree, "scan": SequentialScan}


def _kind_of(tree) -> str:
    # XTree subclasses RStarTree, so test the subclass first.
    if isinstance(tree, XTree):
        return "xtree"
    if isinstance(tree, RStarTree):
        return "rstar"
    if isinstance(tree, MTree):
        return "mtree"
    if isinstance(tree, SequentialScan):
        return "scan"
    raise StorageError(f"cannot snapshot a {type(tree).__name__}")


# -- serialization ---------------------------------------------------------


def _bfs_nodes(root) -> list:
    nodes, frontier = [], [root]
    while frontier:
        node = frontier.pop(0)
        nodes.append(node)
        if isinstance(node, _Node):
            frontier.extend(node.children)
        elif not node.is_leaf:
            frontier.extend(entry.subtree for entry in node.entries)
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


def _serialize_mtree(tree: MTree) -> tuple[dict, dict[str, np.ndarray]]:
    nodes = _bfs_nodes(tree.root)
    index_of = {id(node): i for i, node in enumerate(nodes)}
    is_leaf = np.array([node.is_leaf for node in nodes], dtype=np.int8)
    counts = [len(node.entries) for node in nodes]
    offsets = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    entries = [entry for node in nodes for entry in node.entries]
    dist_to_parent = np.array([e.dist_to_parent for e in entries], dtype=np.float64)
    radii = np.array([e.radius for e in entries], dtype=np.float64)
    oids = np.array(
        [-1 if e.oid is None else e.oid for e in entries], dtype=np.int64
    )
    subtrees = np.array(
        [-1 if e.subtree is None else index_of[id(e.subtree)] for e in entries],
        dtype=np.int64,
    )
    objs = []
    ndims = np.empty(len(entries), dtype=np.int8)
    for i, entry in enumerate(entries):
        obj = np.asarray(entry.obj, dtype=np.float64)
        if obj.ndim not in (1, 2):
            raise StorageError(
                "M-tree snapshots support 1-d and 2-d ndarray objects, "
                f"got ndim={obj.ndim}"
            )
        ndims[i] = obj.ndim
        objs.append(obj if obj.ndim == 2 else obj[np.newaxis])
    widths = {obj.shape[1] for obj in objs}
    if len(widths) > 1:
        raise StorageError(f"inconsistent object dimensionality: {sorted(widths)}")
    row_counts = [obj.shape[0] for obj in objs]
    row_offsets = np.zeros(len(entries) + 1, dtype=np.int64)
    np.cumsum(row_counts, out=row_offsets[1:])
    width = widths.pop() if widths else 0
    data = (
        np.concatenate(objs, axis=0)
        if objs
        else np.empty((0, width), dtype=np.float64)
    )
    meta = {"capacity": tree.capacity, "size": tree.size}
    arrays = {
        "node_is_leaf": is_leaf,
        "entry_offsets": offsets,
        "entry_dist_to_parent": dist_to_parent,
        "entry_radius": radii,
        "entry_oid": oids,
        "entry_subtree": subtrees,
        "obj_ndim": ndims,
        "obj_row_offsets": row_offsets,
        "obj_data": data,
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
    if kind == "mtree":
        meta, arrays = _serialize_mtree(tree)
    elif kind == "scan":
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
    same nodes, same entry order, same boxes/radii/capacities.  Queries
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


def _build_mtree(
    meta: dict,
    arrays: dict[str, np.ndarray],
    metric,
    page_manager: PageManager | None,
) -> MTree:
    if metric is None:
        raise StorageError(
            "an M-tree snapshot stores data, not code: pass the metric "
            "to load_index(path, metric=...)"
        )
    tree = MTree(metric, capacity=meta["capacity"], page_manager=page_manager)
    is_leaf = arrays["node_is_leaf"]
    offsets = arrays["entry_offsets"]
    row_offsets = arrays["obj_row_offsets"]
    data = arrays["obj_data"]
    ndims = arrays["obj_ndim"]
    nodes = [
        _MNode(bool(is_leaf[i]), tree.pages.allocate())
        for i in range(len(is_leaf))
    ]
    count = len(nodes)
    for i, node in enumerate(nodes):
        for e in range(int(offsets[i]), int(offsets[i + 1])):
            rows = data[int(row_offsets[e]) : int(row_offsets[e + 1])].copy()
            obj = rows[0] if ndims[e] == 1 else rows
            oid = int(arrays["entry_oid"][e])
            subtree_index = int(arrays["entry_subtree"][e])
            if subtree_index >= count:
                raise StorageError(
                    f"snapshot references node {subtree_index} of {count}"
                )
            node.entries.append(
                _MEntry(
                    obj,
                    oid=None if oid < 0 else oid,
                    dist_to_parent=float(arrays["entry_dist_to_parent"][e]),
                    radius=float(arrays["entry_radius"][e]),
                    subtree=None if subtree_index < 0 else nodes[subtree_index],
                )
            )
    if not nodes:
        raise StorageError("snapshot holds no nodes")
    tree.root = nodes[0]
    tree.size = meta["size"]
    return tree


def load_index(
    path: str | Path,
    *,
    metric=None,
    page_manager: PageManager | None = None,
):
    """Reconstruct the index stored at *path* without any rebuild work.

    An ``.npz`` snapshot reconstructs the pointer tree exactly as saved
    (``structure_digest`` of the result equals the saved tree's), with
    fresh page accounting and — for M-trees — the caller-supplied
    *metric*.  A dense snapshot (:func:`save_index` with ``dense=True``)
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
        return core_from_serialized(
            meta, arrays, metric=metric, page_manager=page_manager
        )
    meta, arrays = _load_arrays(path)
    return reconstruct_index(
        meta, arrays, metric=metric, page_manager=page_manager
    )


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
        entries_per_node = np.diff(arrays["entry_offsets"])
        if meta["kind"] == "mtree":
            in_leaf = np.repeat(arrays["node_is_leaf"] != 0, entries_per_node)
            oids = arrays["entry_oid"][in_leaf]
        else:
            in_leaf = np.repeat(arrays["node_level"] == 0, entries_per_node)
            oids = arrays["entry_payloads"][in_leaf]
    return np.sort(np.asarray(oids, dtype=np.int64))


def reconstruct_index(
    meta: dict,
    arrays: dict[str, np.ndarray],
    *,
    metric=None,
    page_manager: PageManager | None = None,
):
    """Rebuild a tree from its :func:`serialize_index` form."""
    if meta.get("kind") not in _KINDS:
        raise StorageError(f"unknown index kind {meta.get('kind')!r}")
    try:
        if meta["kind"] == "mtree":
            return _build_mtree(meta, arrays, metric, page_manager)
        if meta["kind"] == "scan":
            scan = SequentialScan(meta["dimension"], page_manager)
            scan._points = [row.copy() for row in arrays["points"]]
            scan._oids = [int(oid) for oid in arrays["oids"]]
            return scan
        return _build_rtree(meta, arrays, page_manager)
    except KeyError as exc:
        raise StorageError(f"snapshot is missing field {exc}") from exc
