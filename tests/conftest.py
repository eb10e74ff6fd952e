"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.geometry.sdf import Box, Cylinder, Sphere, Torus
from repro.voxel.voxelize import voxelize_solid

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # hypothesis is optional outside CI
    pass
else:
    # Two effort tiers for the property/stateful tests: "dev" keeps the
    # local edit-test loop fast, "ci" buys much deeper exploration on the
    # build machines.  Select with HYPOTHESIS_PROFILE=ci (the CI workflow
    # sets it; locally the default applies).
    _common = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    settings.register_profile(
        "ci", max_examples=150, stateful_step_count=50, **_common
    )
    settings.register_profile(
        "dev", max_examples=20, stateful_step_count=15, **_common
    )
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture(scope="session", autouse=True)
def _isolated_cache_dir(tmp_path_factory):
    """Point REPRO_CACHE_DIR at a session temp dir so tests never write
    a ``.repro_cache`` into the working directory (and never read a
    developer's warm cache)."""
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    yield


@pytest.fixture
def rng():
    """A deterministic random generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def sync_events(monkeypatch):
    """Every ``os.fsync`` and ``os.replace`` from here on, in call order,
    as ``("fsync", inode)`` of the file or directory synced and
    ``("replace", inode)`` of the file renamed (which keeps its inode
    under the new name)."""
    events: list[tuple[str, int]] = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        return real_fsync(fd)

    def replace(src, dst, **kwargs):
        events.append(("replace", os.stat(src).st_ino))
        return real_replace(src, dst, **kwargs)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return events


def assert_synced_replace(events, path) -> None:
    """*events* (:func:`sync_events`) renamed a file onto *path* after
    syncing it, then synced the directory holding it."""
    path = Path(path)
    renamed = events.index(("replace", os.stat(path).st_ino))
    assert ("fsync", os.stat(path).st_ino) in events[:renamed], events
    assert ("fsync", os.stat(path.parent).st_ino) in events[renamed + 1 :], events


@pytest.fixture
def lshape_grid():
    """A small asymmetric L-shaped solid on a 12^3 grid — handy because
    it has no nontrivial symmetry and needs two covers exactly."""
    solid = Box(size=(2.0, 1.0, 0.5)) | Box(center=(0.6, 0.0, 0.75), size=(0.8, 1.0, 1.0))
    return voxelize_solid(solid, resolution=12)


@pytest.fixture
def tire_grid():
    """A torus (tire-like) on the paper's r=15 raster."""
    return voxelize_solid(Torus(major_radius=1.0, minor_radius=0.35), resolution=15)


@pytest.fixture
def sphere_grid():
    """A ball on a 15^3 raster (maximal symmetry)."""
    return voxelize_solid(Sphere(radius=1.0), resolution=15)


@pytest.fixture
def rod_grid():
    """A thin cylinder along x (strongly anisotropic)."""
    return voxelize_solid(Cylinder(radius=0.25, height=2.5, axis="x"), resolution=15)


def random_vector_sets(rng, count, dim=6, max_size=7):
    """Helper used across distance tests."""
    return [
        rng.normal(size=(rng.integers(1, max_size + 1), dim)) for _ in range(count)
    ]


def serialize_index(tree):
    """The ``(meta, arrays)`` node tables of a pointer R*-tree or X-tree,
    serialized node by node in BFS order — how snapshots were written
    before the database packed its index (incremental trees, supernodes
    and all), so the legacy-layout, corruption and core-vs-pointer tests
    can still build them."""
    from repro.index.arraycore import _stamped
    from repro.index.xtree import XTree

    nodes, frontier = [], [tree.root]
    while frontier:
        node = frontier.pop(0)
        nodes.append(node)
        frontier.extend(node.children)
    index_of = {id(node): i for i, node in enumerate(nodes)}
    offsets = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum([node.size for node in nodes], out=offsets[1:])
    payloads = np.concatenate(
        [
            np.asarray(
                node.oids if node.is_leaf else [index_of[id(c)] for c in node.children],
                dtype=np.int64,
            )
            for node in nodes
        ]
    )
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
        "node_level": np.array([node.level for node in nodes], dtype=np.int64),
        "node_capacity": np.array([node.capacity for node in nodes], dtype=np.int64),
        "entry_offsets": offsets,
        "entry_lowers": np.concatenate([node.lowers for node in nodes]).astype(np.float64),
        "entry_uppers": np.concatenate([node.uppers for node in nodes]).astype(np.float64),
        "entry_payloads": payloads,
    }
    # XTree subclasses RStarTree, so test the subclass.
    return _stamped(meta, "xtree" if isinstance(tree, XTree) else "rstar"), arrays


def pointer_pack(points, oids, capacity=None):
    """The STR pack as a pointer bulk load built it before the database
    tiled straight into node tables: each level's ``_tile`` groups made
    into X-tree nodes, the tree then serialized node by node — the
    reference :func:`repro.index.arraycore.densify` equals array for
    array and meta for meta."""
    from repro.index.arraycore import _FILL, _tile
    from repro.index.xtree import XTree

    tree = XTree(points.shape[1], capacity=capacity)
    per_node = max(tree.min_fill, int(tree.capacity * _FILL))
    nodes = []
    for group in _tile(points, np.arange(len(points)), per_node, axis=0):
        leaf = tree._new_node(level=0)
        leaf.set_entries(points[group].copy(), points[group].copy(), oids[group].tolist())
        nodes.append(leaf)
    while len(nodes) > 1:
        boxes = [node.mbr() for node in nodes]
        centres = np.vstack([(lo + hi) / 2.0 for lo, hi in boxes])
        parents = []
        for group in _tile(centres, np.arange(len(nodes)), per_node, axis=0):
            parent = tree._new_node(level=nodes[0].level + 1)
            parent.set_entries(
                np.vstack([boxes[g][0] for g in group]),
                np.vstack([boxes[g][1] for g in group]),
                [nodes[g] for g in group],
            )
            parents.append(parent)
        nodes = parents
    tree.root, tree.size = nodes[0], len(points)
    return serialize_index(tree)


def ranked(core, point, k=None):
    """The first *k* (all, by default) ``(oid, distance)`` pairs of an
    array core's canonical ranking around *point*."""
    out = []
    for oids, dists in core.ranking_chunks(point):
        out.extend(zip(oids.tolist(), dists.tolist()))
        if k is not None and len(out) >= k:
            break
    return out[:k]


def assert_engine_is_fresh(db):
    """Incremental == fresh for one ``SimilarityDatabase``: every
    structure mirrors the engine's rows (the object store) and the
    engine's digest is that of a from-scratch ``FilterRefineEngine``
    over the same contents — ``check_invariants`` makes that comparison;
    an engine exists exactly while the database holds an object."""
    db.check_invariants()
    assert (db.engine_digest() == "empty") == (not len(db))


def freshly_packed(db):
    """A database holding *db*'s objects, built from scratch in ascending
    oid — the reference a maintained database must answer like."""
    from repro.db import SimilarityDatabase

    fresh = SimilarityDatabase(
        db.capacity, omega=db._omega_arg, block_size=db.block_size, sketch=False
    )
    for oid in db.object_ids():
        fresh.add(oid, db.get(oid))
    return fresh


#: The backends a database layout recorded while its snapshots carried
#: an index: an STR-packed X-tree, an incrementally built R*-tree, a flat
#: point table, or M-tree node arrays.
RECORDED_BACKENDS = ("xtree", "rstar", "scan", "mtree")


def parent_snapshot(backend: str, capacity: int = 4):
    """An edit of a snapshot's ``(meta, arrays)``, in place, into the
    format written while snapshots carried an index recorded as
    *backend*: the meta keys ``backend``, ``index_capacity`` and
    ``index_meta`` and the ``index__*`` tables of the stored centroids
    (:func:`~repro.index.arraycore.densify` for the trees)."""
    from repro.index.arraycore import densify

    def edit(meta, arrays):
        meta.update(backend=backend, index_capacity=capacity, index_meta=None)
        oids, points = arrays["set_oids"], arrays["centroids"]
        if not len(oids):
            return
        stamp = {"format": "repro-index-snapshot", "version": 1, "kind": backend}
        if backend in ("xtree", "rstar"):
            index_meta, tables = densify(points, oids, capacity=capacity).serialized()
            index_meta = {**index_meta, **stamp}
        elif backend == "scan":
            index_meta = {**stamp, "dimension": points.shape[1], "size": len(oids)}
            tables = {"points": points, "oids": oids}
        else:
            index_meta = {**stamp, "size": len(oids)}
            tables = {"node_is_leaf": np.ones(1, dtype=np.int8)}
        meta["index_meta"] = index_meta
        arrays.update({f"index__{name}": arr for name, arr in tables.items()})

    return edit


def parent_config(backend: str, capacity: int = 4):
    """The matching edit of a ``durable.json`` or ``sharded.json``: the
    manifest named the backend, a durable config also the node
    capacity."""

    def edit(payload):
        payload["backend"] = backend
        if "block_size" in payload:
            payload["index_capacity"] = capacity

    return edit


def restamp_layout(path, edit_archive, edit_config):
    """Rewrite a saved layout as an older commit wrote it: a single
    archive file, or a directory of archives beside a JSON config
    (``durable.json`` / ``sharded.json``), the shard directories of a
    durable sharded layout included.  *edit_archive(meta, arrays)* and
    *edit_config(payload)* mutate in place; CRCs are recomputed."""
    from repro.db import DB_FORMAT
    from repro.db.archive import read_archive, write_archive

    for file in [path] if path.is_file() else sorted(path.iterdir()):
        if file.is_dir():
            restamp_layout(file, edit_archive, edit_config)
        elif file.suffix == ".json":
            payload = json.loads(file.read_text())
            edit_config(payload)
            file.write_text(json.dumps(payload))
        elif file == path or file.suffix == ".npz":
            meta, arrays, dense = read_archive(file, DB_FORMAT)
            arrays = {name: np.array(arr) for name, arr in arrays.items()}
            edit_archive(meta, arrays)
            write_archive(file, meta, arrays, dense=dense)


#: How a test parametrised over ``backend`` starts its database:
#: ``"xtree"`` builds it with ``backend="xtree"``, the one value the
#: keyword accepts; ``"scan"`` opens it from an empty layout in the
#: format written while snapshots carried an index, recorded as ``scan``.
#: The test then asks the same of both.
BACKENDS = ("xtree", "scan")


def start_database(backend, path, capacity, shards=None, **kwargs):
    """A new, empty database started as *backend* says (see
    :data:`BACKENDS`): plain, or sharded over *shards*.  With
    ``durable=True`` among *kwargs* it lives in the directory *path*;
    otherwise the ``scan`` start keeps its saved layout at *path*."""
    from repro.db import ShardedSimilarityDatabase, SimilarityDatabase, open_database

    cls = SimilarityDatabase if shards is None else ShardedSimilarityDatabase
    if shards is not None:
        kwargs["shards"] = shards
    durable = kwargs.get("durable", False)
    if durable:
        kwargs["path"] = path
    if backend == "xtree":
        return cls(capacity, backend="xtree", **kwargs)
    db = cls(capacity, **kwargs)
    if durable:
        db.close()
    else:
        path = db.save(path)
    restamp_layout(Path(path), parent_snapshot(backend), parent_config(backend))
    opening = ("model", "pipeline", "cache", "lock_timeout")
    return open_database(path, **{k: v for k, v in kwargs.items() if k in opening})


def reads_only(db, call):
    """``call(db)``, requiring every attribute of *db* to be the very
    object it was before: a query writes no database state."""
    before = dict(vars(db))
    result = call(db)
    after = vars(db)
    assert after.keys() == before.keys()
    changed = [name for name, value in before.items() if after[name] is not value]
    assert not changed, f"a query replaced {changed}"
    return result


def assert_answers_like_a_fresh_pack(db, queries, k, epsilon):
    """k-nn and range answers *and* ``QueryStats`` of *db* are literally
    those of :func:`freshly_packed`, and no query writes state."""
    fresh = freshly_packed(db)
    for query in queries:
        for ask in (
            lambda target: target.knn_query(query, k),
            lambda target: target.range_query(query, epsilon),
        ):
            got, got_stats = reads_only(db, ask)
            want, want_stats = ask(fresh)
            assert [(m.object_id, m.distance) for m in got] == [
                (m.object_id, m.distance) for m in want
            ]
            assert got_stats == want_stats
