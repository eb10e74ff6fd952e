"""The storage layer (:mod:`repro.db.storage`): every layout pinned file
for file, and every malformed settings record failing typed.

* **Formats.**  One seeded history, with ω at the origin and off it, is
  written in every layout - ``.npz``, dense, durable (two checkpoints
  plus a WAL tail),
  sharded K = 2 and sharded-durable K = 2 - and digested:
  SHA-256 of every WAL segment, ``CURRENT``, ``durable.json`` and
  ``sharded.json``; for every archive its meta block and a SHA-256 per
  array.  ``layout_digests.json`` beside this file holds the digests of
  the same history as the commit before the storage layer existed wrote
  it; a change that alters a format on purpose regenerates it with
  ``python -m tests.test_storage`` and says so.
* **A shard is a plain layout.**  The shard file of a K = 1 sharded save
  is the file a plain save of the same history writes.
* **Malformed settings records** - ``sharded.json``, ``durable.json``
  and a snapshot's meta block - raise :class:`StorageError` naming the
  file (and the key, where there is one) through ``open_database``,
  and ``repro db verify`` reports them as corrupt with exit code 1.
  So does a CRC-valid ``payloads`` member that is not what it should
  be.  The index tables of a layout written while snapshots carried
  one are never parsed: CRC-valid but broken, they open and verify.
* **Payloads** survive every layout, reshard included; a payload-free
  history writes the pinned bytes above.
"""

from __future__ import annotations

import hashlib
import json
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.db import ShardedSimilarityDatabase, SimilarityDatabase, open_database, storage
from repro.db.archive import read_archive, write_archive
from repro.exceptions import QueryError, StorageError
from repro.pipeline import Pipeline
from tests.conftest import (
    BACKENDS,
    assert_synced_replace,
    parent_snapshot,
    start_database,
)

CAPACITY = 4
DIM = 3
FIXTURE = Path(__file__).with_name("layout_digests.json")


def history(seed: int = 7) -> list[tuple]:
    """A seeded mutation history: adds, updates, removes and two
    checkpoints (which non-durable layouts skip)."""
    rng = np.random.default_rng(seed)

    def vectors():
        size = int(rng.integers(1, CAPACITY + 1))
        return rng.integers(-8, 9, size=(size, DIM)).astype(float)

    steps = [("add", oid, vectors()) for oid in range(24)]
    steps += [("update", oid, vectors()) for oid in (3, 8, 15)]
    steps += [("remove", oid, None) for oid in (0, 5, 9, 17)]
    steps.append(("checkpoint", None, None))
    steps += [("add", oid, vectors()) for oid in range(24, 30)]
    steps.append(("checkpoint", None, None))
    steps += [("update", 2, vectors()), ("remove", 4, None), ("add", 30, vectors())]
    return steps


def replay(db, steps, payload=lambda oid: None) -> None:
    for op, oid, arr in steps:
        if op == "add":
            db.add(oid, arr, payload(oid))
        elif op == "update":
            db.update(oid, arr)
        elif op == "remove":
            db.remove(oid)
        elif db.durable:
            db.checkpoint()


def write_every_layout(root: Path) -> None:
    """The history of :func:`history` in every layout, with ω at the
    origin and off it."""
    steps = history()
    for name, omega in (("origin", None), ("omega", [0.5, -1.0, 2.0])):
        base = root / name
        options = dict(omega=omega)
        durable = dict(durable=True, pipeline=Pipeline(resolution=10))
        plain = SimilarityDatabase(CAPACITY, **options)
        replay(plain, steps)
        plain.save(base / "db.npz")
        plain.save(base / "db.dense", dense=True)
        for db in (
            SimilarityDatabase(CAPACITY, path=base / "durable", **durable, **options),
            ShardedSimilarityDatabase(CAPACITY, shards=2, **options),
            ShardedSimilarityDatabase(
                CAPACITY, shards=2, path=base / "sharded-durable", **durable, **options
            ),
        ):
            replay(db, steps)
            if not db.durable:
                db.save(base / "sharded")
            db.close()
    # The optional meta key of a database saved before its first object.
    SimilarityDatabase(CAPACITY, sketch_params={"width": 128, "seed": 11}).save(
        root / "empty.npz"
    )


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array_sha256(arr: np.ndarray) -> str:
    head = f"{arr.dtype.str}{list(arr.shape)}".encode()
    return _sha256(head + np.ascontiguousarray(arr).tobytes())


def layout_digests(root: Path) -> dict:
    """Every file under *root*: archives by meta block and per-array
    SHA-256 (an ``.npz`` stamps zip times, so its bytes are not
    reproducible), a dense archive also by its bytes, anything else by
    its bytes alone."""
    out = {}
    for file in sorted(p for p in root.rglob("*") if p.is_file()):
        name = file.relative_to(root).as_posix()
        raw = file.read_bytes()
        if zipfile.is_zipfile(file):
            with np.load(file, allow_pickle=False) as archive:
                arrays = {member: archive[member] for member in archive.files}
            meta = arrays.pop("meta").tobytes()
            out[name] = {"meta": json.loads(meta), "meta_sha256": _sha256(meta)}
        elif file.suffix == ".dense":
            meta, arrays, _ = read_archive(file, storage.DB_FORMAT)
            out[name] = {"meta": meta, "sha256": _sha256(raw)}
        else:
            out[name] = _sha256(raw)
            continue
        out[name]["arrays"] = {
            member: _array_sha256(arr) for member, arr in sorted(arrays.items())
        }
    return out


def test_every_layout_is_the_pinned_one(tmp_path):
    write_every_layout(tmp_path)
    got = layout_digests(tmp_path)
    want = json.loads(FIXTURE.read_text())
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("dense", [False, True])
def test_shards_open_as_one_database(backend, dense, tmp_path):
    """The pool workers' view of a saved sharded layout, the opened
    shards joined: one database whose engine, index and sketch codes are
    a fresh build's of the same objects, also when some shards are empty
    (at K = 40)."""
    steps = history()
    options = dict(omega=[0.5, -1.0, 2.0])
    plain = SimilarityDatabase(CAPACITY, **options)
    replay(plain, steps)
    for shards in (5, 40):
        start = tmp_path / f"start-{shards}"
        sharded = start_database(backend, start, CAPACITY, shards=shards, **options)
        replay(sharded, steps)
        root = sharded.save(tmp_path / f"sharded-{shards}", dense=dense)
        one = storage.as_one(storage.open_sharded(root).shards)
        one.check_invariants()
        assert one.object_ids() == plain.object_ids()
        assert one.engine_digest() == plain.engine_digest()
        assert one.index_digest() == plain.index_digest()
        assert one.sketch_digest() == plain.sketch_digest()
        assert not one._payloads
        assert sharded.knn_query_many([plain.get(2)], 5, n_jobs=2)[0][0] == (
            plain.knn_query(plain.get(2), 5)[0]
        )
    assert any(not len(shard) for shard in sharded.shards)
    assert len(list(root.glob("shard-*"))) == 40


def mixed_layout(tmp_path, key) -> Path:
    """A saved K = 2 layout whose second shard file comes from a save
    that differs from the first in the setting *key* alone."""
    wider = [
        (op, oid, None if arr is None else np.hstack([arr, arr[:, :1]]))
        for op, oid, arr in history()
    ]
    other = {
        "capacity": (CAPACITY + 1, {}, history()),
        "block_size": (CAPACITY, {"block_size": 6}, history()),
        "dimension": (CAPACITY, {}, wider),
        "omega": (CAPACITY, {"omega": [0.5, -1.0, 2.0]}, history()),
    }[key]
    roots = []
    for name, (capacity, options, steps) in zip("ab", [(CAPACITY, {}, history()), other]):
        db = ShardedSimilarityDatabase(capacity, shards=2, **options)
        replay(db, steps)
        roots.append(db.save(tmp_path / name))
    shard = "shard-00001.npz"
    (roots[0] / shard).write_bytes((roots[1] / shard).read_bytes())
    return roots[0]


def test_shards_that_disagree_do_not_open_as_one(tmp_path):
    """A pool worker joins the shards of the layout it is handed through
    the one checked opener: a shard file replaced after the save fails
    the batch typed."""
    db = ShardedSimilarityDatabase(CAPACITY, shards=2)
    replay(db, history())
    root = db.save(tmp_path / "a")
    other = ShardedSimilarityDatabase(CAPACITY, shards=2, block_size=6)
    replay(other, history())
    other.save(tmp_path / "b")
    shard = "shard-00001.npz"
    (root / shard).write_bytes((tmp_path / "b" / shard).read_bytes())
    with pytest.raises(StorageError, match=r"a/shard-00001.npz.*'block_size' holds 6"):
        db.knn_query_many([db.get(1)], 3, n_jobs=2)


def test_an_export_of_a_durable_sharded_database_opens(tmp_path):
    """``save(path)`` of a durable sharded database writes snapshot
    files, and its manifest says so: the export opens and verifies as a
    non-durable layout holding the same objects."""
    db = ShardedSimilarityDatabase(CAPACITY, shards=2, durable=True, path=tmp_path / "db")
    replay(db, history())
    export = db.save(tmp_path / "export")
    assert json.loads((export / "sharded.json").read_text())["durable"] is False
    opened = open_database(export)
    assert not opened.durable
    assert opened.object_ids() == db.object_ids()
    assert opened.index_digests() == db.index_digests()
    assert storage.verify(export)[0] == 0
    db.close()


@pytest.mark.parametrize("key", ["capacity", "block_size", "dimension", "omega"])
def test_shards_that_disagree_do_not_open(tmp_path, key):
    """Every opener of a sharded layout and ``repro db verify`` refuse
    shards that disagree on a setting they must share."""
    root = mixed_layout(tmp_path, key)
    message = rf"shard-00001.npz: shard disagrees with the shards before it: '{key}'"
    with pytest.raises(StorageError, match=message):
        open_database(root)
    with pytest.raises(StorageError, match=message):
        ShardedSimilarityDatabase.load(root)
    code, lines = storage.verify(root)
    assert code == 1
    assert lines[-1][0] == "err" and "shard disagrees" in lines[-1][1]


def zip_members(path: Path) -> dict[str, bytes]:
    with zipfile.ZipFile(path) as archive:
        return {member: archive.read(member) for member in archive.namelist()}


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_single_shard_is_a_plain_snapshot(backend, tmp_path):
    steps = history()
    plain = start_database(backend, tmp_path / "start-plain", CAPACITY)
    sharded = start_database(backend, tmp_path / "start-sharded", CAPACITY, shards=1)
    for db in (plain, sharded):
        replay(db, steps)
    for dense in (False, True):
        plain_path = plain.save(tmp_path / f"plain-{dense}", dense=dense)
        shard = sharded.save(tmp_path / f"sharded-{dense}", dense=dense) / "shard-00000.npz"
        if dense:
            assert shard.read_bytes() == plain_path.read_bytes()
        else:
            assert zip_members(shard) == zip_members(plain_path)


@pytest.mark.parametrize("durable", [False, True], ids=["snapshot", "durable"])
def test_the_manifest_is_synced_before_and_after_its_rename(
    durable, tmp_path, sync_events
):
    """``sharded.json`` is written to a temp file, fsynced, renamed into
    place and its directory fsynced, like every other settings record."""
    root = tmp_path / "db"
    db = ShardedSimilarityDatabase(
        CAPACITY, shards=2, durable=durable, path=root if durable else None
    )
    if not durable:
        db.save(root)
    assert_synced_replace(sync_events, root / storage.MANIFEST_NAME)
    db.close()


# -- malformed settings records ------------------------------------------------


def saved_layout(kind: str, path: Path) -> None:
    """A small saved database: ``plain`` / ``dense`` / ``durable`` single
    files or directories, ``sharded`` / ``sharded-durable`` with two
    shards."""
    if kind.startswith("sharded"):
        durable = kind == "sharded-durable"
        db = ShardedSimilarityDatabase(
            CAPACITY, shards=2, durable=durable, path=path if durable else None
        )
    else:
        durable = kind == "durable"
        db = SimilarityDatabase(CAPACITY, durable=durable, path=path if durable else None)
    replay(db, history()[:12])
    if durable:
        db.checkpoint()
    else:
        db.save(path, dense=kind == "dense")
    db.close()


def assert_corrupt(path: Path, capsys, *named: str) -> None:
    """``open_database`` raises StorageError naming everything in
    *named*; ``repro db verify`` exits 1 and says why on stderr."""
    from repro.cli import main

    with pytest.raises(StorageError) as caught:
        open_database(path)
    for fragment in named:
        assert fragment in str(caught.value)
    capsys.readouterr()
    assert main(["db", "verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert "verify: corrupt: " in err and "Traceback" not in err
    for fragment in named:
        assert fragment in err


def without(key):
    return lambda record: {k: v for k, v in record.items() if k != key}


def setting(**values):
    return lambda record: {**record, **values}


#: Case -> (the manifest text, or an edit of the saved one; what the
#: error must name besides the file).
MANIFESTS = {
    "not-json": ("{{{", ()),
    "a-list": ("[1, 2]", ()),
    "no-shards": (without("shards"), ("'shards'",)),
    "zero-shards": (setting(shards=0), ("'shards'",)),
    "negative-shards": (setting(shards=-1), ("'shards'",)),
    "string-shards": (setting(shards="x"), ("'shards'",)),
    "fractional-shards": (setting(shards=1.5), ("'shards'",)),
    "no-durable": (without("durable"), ("'durable'",)),
    "string-durable": (setting(durable="yes"), ("'durable'",)),
    "wrong-format": (setting(format="nope"), ("'format'",)),
    "wrong-version": (setting(version=99), ("'version'",)),
    "string-capacity": (setting(capacity="x"), ("'capacity'",)),
}


@pytest.mark.parametrize("case", sorted(MANIFESTS))
@pytest.mark.parametrize("kind", ["sharded", "sharded-durable"])
def test_a_malformed_manifest_fails_typed(kind, case, tmp_path, capsys):
    path = tmp_path / "db"
    saved_layout(kind, path)
    edit, named = MANIFESTS[case]
    manifest = path / "sharded.json"
    if callable(edit):
        edit = json.dumps(edit(json.loads(manifest.read_text())))
    manifest.write_text(edit)
    assert_corrupt(path, capsys, "sharded.json", *named)


#: Case -> (an edit of the saved durable.json; what the error must name
#: besides the file).
CONFIGS = {
    "a-list": (lambda record: [record], ()),
    "no-capacity": (without("capacity"), ("'capacity'",)),
    "string-capacity": (setting(capacity="x"), ("'capacity'",)),
    "zero-block-size": (setting(block_size=0), ("'block_size'",)),
    "string-omega": (setting(omega="x"), ("'omega'",)),
    "string-keep": (setting(keep_generations="2"), ("'keep_generations'",)),
    "list-sketch-params": (setting(sketch_params=[1]), ("'sketch_params'",)),
    "nan-omega": (setting(omega=[float("nan")] * DIM), ("'omega'",)),
    "inf-omega": (setting(omega=[float("inf")] * DIM), ("'omega'",)),
    "huge-omega": (setting(omega=[1e200] * DIM), ("'omega'",)),
}


@pytest.mark.parametrize("case", sorted(CONFIGS))
@pytest.mark.parametrize("kind", ["durable", "sharded-durable"])
def test_a_malformed_durable_config_fails_typed(kind, case, tmp_path, capsys):
    path = tmp_path / "db"
    saved_layout(kind, path)
    edit, named = CONFIGS[case]
    config = path / ("shard-00001" if kind == "sharded-durable" else "") / "durable.json"
    config.write_text(json.dumps(edit(json.loads(config.read_text()))))
    assert_corrupt(path, capsys, "durable.json", *named)


@pytest.mark.parametrize(
    "record, kind",
    [
        ("manifest", "sharded"),
        ("manifest", "sharded-durable"),
        ("config", "durable"),
        ("config", "sharded-durable"),
    ],
    ids=lambda value: value,
)
def test_a_recorded_backend_is_ignored(record, kind, tmp_path):
    """A manifest or ``durable.json`` naming a backend, even one that
    never existed, opens and verifies: like the old ``solver`` key, the
    ``backend`` key is read by no one."""
    from repro.cli import main

    path = tmp_path / "db"
    saved_layout(kind, path)
    query = history()[0][2]
    with open_database(path) as db:
        want = db.knn_query(query, 4)[0]
    if record == "manifest":
        file = path / "sharded.json"
    else:
        file = path / ("shard-00001" if kind == "sharded-durable" else "") / "durable.json"
    file.write_text(json.dumps(setting(backend="nope")(json.loads(file.read_text()))))
    with open_database(path) as db:
        assert db.knn_query(query, 4)[0] == want
    assert main(["db", "verify", str(path)]) == 0


def rewrite_meta(path: Path, meta) -> None:
    """Replace the meta block of an ``.npz`` snapshot, CRCs untouched."""
    with np.load(path, allow_pickle=False) as archive:
        arrays = {member: archive[member] for member in archive.files}
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)


def test_a_snapshot_meta_that_is_not_an_object_fails_typed(tmp_path, capsys):
    path = tmp_path / "db.npz"
    saved_layout("plain", path)
    rewrite_meta(path, [1, 2])
    assert_corrupt(path, capsys, "db.npz", "meta")


@pytest.mark.parametrize(
    "key, value",
    [
        ("omega", "x"),
        ("omega", [float("nan")] * DIM),
        ("omega", [float("-inf")] * DIM),
        ("omega", [1e200] * DIM),
        ("dimension", "3"),
        ("db_version", None),
        ("sketch_params", 3),
        ("version", 2),  # a future snapshot version
    ],
)
def test_a_malformed_snapshot_meta_key_fails_typed(key, value, tmp_path, capsys):
    path = tmp_path / "db.npz"
    saved_layout("plain", path)
    meta, _, _ = read_archive(path, "repro-similarity-db")
    meta[key] = value
    rewrite_meta(path, meta)
    assert_corrupt(path, capsys, "db.npz", repr(key))


def _leaf_entries(arrays) -> np.ndarray:
    """The entries of the index tables' leaf nodes, as a mask."""
    offsets = arrays["index__entry_offsets"]
    return np.repeat(arrays["index__node_level"] == 0, np.diff(offsets))


def _child_out_of_range(meta, arrays):
    payloads = arrays["index__entry_payloads"].copy()
    payloads[0] = len(arrays["index__node_level"]) + 5  # the root's first child
    arrays["index__entry_payloads"] = payloads


def _narrow_boxes(meta, arrays):
    for name in ("index__entry_lowers", "index__entry_uppers"):
        arrays[name] = np.ascontiguousarray(arrays[name][:, : DIM - 1])


def _root_marked_leaf(meta, arrays):
    levels = arrays["index__node_level"].copy()
    levels[0] = 0
    arrays["index__node_level"] = levels


def _key_off_its_centroid(meta, arrays):
    """The first leaf entry's point moved onto its sibling's."""
    at = int(np.flatnonzero(_leaf_entries(arrays))[0])
    for name in ("index__entry_lowers", "index__entry_uppers"):
        arrays[name] = arrays[name].copy()
        arrays[name][at] = arrays[name][at + 1]


def _foreign_leaf_id(meta, arrays):
    """A leaf entry naming an object that is not stored."""
    payloads = arrays["index__entry_payloads"].copy()
    payloads[np.flatnonzero(_leaf_entries(arrays))[0]] = 10**6
    arrays["index__entry_payloads"] = payloads


#: Case -> an edit of an older layout's (meta, arrays) that keeps every
#: CRC valid but breaks the index tables.  Nothing reads them any more.
INDEX_TABLES = {
    "child-out-of-range": _child_out_of_range,
    "narrow-boxes": _narrow_boxes,
    "root-marked-leaf": _root_marked_leaf,
    "string-size": lambda meta, arrays: meta["index_meta"].update(size="x"),
    "key-off-its-centroid": _key_off_its_centroid,
    "foreign-leaf-id": _foreign_leaf_id,
    "no-index-meta": lambda meta, arrays: meta.pop("index_meta"),
    "no-node-table": lambda meta, arrays: arrays.pop("index__node_level"),
    "unknown-index-kind": lambda meta, arrays: meta["index_meta"].update(kind="btree"),
}


@pytest.mark.parametrize("case", sorted(INDEX_TABLES))
@pytest.mark.parametrize("name", ["db.npz", "db.dense"])
def test_malformed_index_tables_are_not_parsed(name, case, tmp_path, capsys):
    """A snapshot written while snapshots carried an index, its tables
    broken but CRC-valid, opens, verifies and answers like the database
    it was saved from: the open never parses them."""
    from repro.cli import main

    path = tmp_path / name
    dense = name.endswith(".dense")
    saved_layout("dense" if dense else "plain", path)
    want = open_database(path)
    meta, arrays, _ = read_archive(path, "repro-similarity-db")
    arrays = {name: np.array(arr) for name, arr in arrays.items()}
    parent_snapshot("xtree")(meta, arrays)
    assert len(arrays["index__node_level"]) > 1  # a directory to break
    INDEX_TABLES[case](meta, arrays)
    write_archive(path, meta, arrays, dense=dense)
    opened = open_database(path)
    opened.check_invariants()
    probe = want.get(want.object_ids()[0])
    assert opened.knn_query(probe, 5) == want.knn_query(probe, 5)
    assert opened.range_query(probe, 9.0) == want.range_query(probe, 9.0)
    capsys.readouterr()
    assert main(["db", "verify", str(path)]) == 0


# -- payloads ------------------------------------------------------------------


def payload_of(oid: int) -> dict | None:
    """The identity fields :func:`history` adds *oid* with (every third
    object has none)."""
    if oid % 3 == 0:
        return None
    return {"name": f"part-{oid:03d}", "family": "odd" if oid % 2 else "even"}


def stored_payloads(db) -> dict:
    db.close()
    for shard in getattr(db, "shards", [db]):
        shard.check_invariants()
    return {oid: db.payload(oid) for oid in db.object_ids()}


@pytest.mark.parametrize(
    "kind",
    ["npz", "dense", "durable-wal", "durable-checkpoint", "sharded",
     "sharded-durable", "resharded"],
)
def test_a_payload_survives_every_layout(kind, tmp_path):
    steps, path = history(), tmp_path / "db"
    if kind.startswith("durable"):
        db = SimilarityDatabase(CAPACITY, durable=True, path=path)
        if kind == "durable-wal":  # nothing but WAL records to replay
            steps = [step for step in steps if step[0] != "checkpoint"]
    elif "sharded" in kind:
        durable = kind == "sharded-durable"
        db = ShardedSimilarityDatabase(
            CAPACITY, shards=2, durable=durable, path=path if durable else None
        )
    else:
        db = SimilarityDatabase(CAPACITY)
    replay(db, steps, payload_of)
    want = {oid: payload_of(oid) for oid in db.object_ids()}
    assert stored_payloads(db) == want and any(want.values())
    if kind == "resharded":
        db.reshard(3)
        assert stored_payloads(db) == want
    if not db.durable:
        db.save(path, dense=kind == "dense")
    reopened = open_database(path)
    if kind == "durable-wal":
        assert reopened.last_recovery.used_generation == 0
        assert reopened.last_recovery.replayed_records == len(steps)
    assert stored_payloads(reopened) == want


def test_remove_drops_a_payload_and_update_keeps_it(tmp_path):
    db = SimilarityDatabase(CAPACITY, durable=True, path=tmp_path / "db")
    db.add(1, np.ones((2, DIM)), {"name": "a"})
    db.update(1, np.zeros((1, DIM)))
    db.add(2, np.ones((1, DIM)), {"name": "b"})
    db.remove(2)
    db.add(2, np.ones((1, DIM)))
    db.close()
    reopened = open_database(tmp_path / "db")
    assert reopened.payload(1) == {"name": "a"} and reopened.payload(2) is None
    with pytest.raises(QueryError, match="no object"):
        reopened.payload(3)


#: Case -> the bytes of a CRC-valid ``payloads`` member that must not open.
PAYLOAD_MEMBERS = {
    "not-json": b"{{{",
    "not-a-list": b'{"1": {"name": "a"}}',
    "not-a-pair": b"[[1]]",
    "string-oid": b'[["1", {"name": "a"}]]',
    "descending": b'[[2, {"name": "a"}], [1, {"name": "b"}]]',
    "unknown-oid": b'[[999, {"name": "a"}]]',
    "number-value": b'[[1, {"name": 3}]]',
    "too-large": b'[[1, {"name": "' + b"x" * 2000 + b'"}]]',
    "not-bytes": None,
}


@pytest.mark.parametrize("case", sorted(PAYLOAD_MEMBERS))
@pytest.mark.parametrize("name", ["db.npz", "db.dense"])
def test_a_malformed_payloads_member_fails_typed(name, case, tmp_path, capsys):
    path = tmp_path / name
    dense = name.endswith(".dense")
    saved_layout("dense" if dense else "plain", path)
    meta, arrays, _ = read_archive(path, "repro-similarity-db")
    blob = PAYLOAD_MEMBERS[case]
    arrays["payloads"] = (
        np.zeros(3) if blob is None else np.frombuffer(blob, dtype=np.uint8)
    )
    write_archive(path, meta, arrays, dense=dense)
    assert_corrupt(path, capsys, name, "payloads")


if __name__ == "__main__":
    # Regenerate the pinned digests (a deliberate format change only).
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_every_layout(Path(tmp))
        FIXTURE.write_text(
            json.dumps(layout_digests(Path(tmp)), indent=1, sort_keys=True) + "\n"
        )
    print(f"wrote {FIXTURE}", file=sys.stderr)
