"""Snapshot archives and the flat form of an index.

Every snapshot the database writes is one archive of named arrays; the
index part of it is the flat form the array cores run on:

* **R*-tree / X-tree** — nodes in BFS order with flat entry tables
  (lower/upper corners plus payload: an oid for leaf entries, the BFS
  index of the child for directory entries).  Supernode capacities and
  the X-tree's counters are kept, page spans included.
* **Flat point table** (kind ``"scan"``) — the point block and its oid
  column, what a ``scan`` database writes beside its sets.

The file format borrows the guarantees of the format-v2 object store
(:mod:`repro.io.database`): every array is CRC32-checksummed at save
time and verified at load time, and writes go to a process-unique
temporary file that is ``os.replace``\\ d over the target, so a crash
mid-save can never destroy the previous snapshot.
"""

from __future__ import annotations

import io
import json
import os
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.exceptions import SnapshotIntegrityError, StorageError
from repro.index.rstar import RStarTree, _Node
from repro.index.xtree import XTree
from repro.testing.faults import crash_point

SNAPSHOT_VERSION = 1


def _stamped(meta: dict, kind: str) -> dict:
    meta.update(format="repro-index-snapshot", version=SNAPSHOT_VERSION, kind=kind)
    return meta


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


def _checksums(arrays: dict[str, np.ndarray]) -> dict[str, int]:
    return {
        name: zlib.crc32(np.ascontiguousarray(arr).tobytes())
        for name, arr in sorted(arrays.items())
    }


# -- archives --------------------------------------------------------------


def write_archive(path: str | Path, meta: dict, arrays: dict[str, np.ndarray]) -> Path:
    """Write a CRC-checked ``.npz`` archive atomically (tmp + replace).

    *meta* must carry a ``format`` marker; per-array CRC32 checksums are
    added here and verified by :func:`read_archive`.  Every snapshot
    file of the mutable database (plain, durable generation, shard) is
    one of these.
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
    if not isinstance(meta, dict):
        raise StorageError(f"{path}: malformed snapshot: meta is not a JSON object")
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


def serialize_index(tree: RStarTree) -> tuple[dict, dict[str, np.ndarray]]:
    """The (meta, arrays) flat form of a pointer R*-tree or X-tree
    (what :func:`repro.index.arraycore.densify` builds a core from)."""
    meta, arrays = _serialize_rtree(tree)
    # XTree subclasses RStarTree, so test the subclass.
    return _stamped(meta, "xtree" if isinstance(tree, XTree) else "rstar"), arrays


def serialize_points(
    points: np.ndarray, oids: np.ndarray
) -> tuple[dict, dict[str, np.ndarray]]:
    """The (meta, arrays) flat form of a point table (kind ``"scan"``)."""
    meta = {"dimension": points.shape[1], "size": len(oids)}
    return _stamped(meta, "scan"), {"points": points, "oids": oids}
