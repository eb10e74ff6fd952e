"""The storage layer (:mod:`repro.db.storage`): every layout pinned file
for file, and every malformed settings record failing typed.

* **Formats.**  One seeded history on both backends is written in every
  layout - ``.npz``, dense, durable (two checkpoints plus a WAL tail),
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
  So do CRC-valid index tables that do not form a sound tree, and a
  CRC-valid ``payloads`` member that is not what it should be.
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
from repro.exceptions import QueryError, StorageError
from repro.index.dense import read_dense_archive, write_dense_archive
from repro.index.snapshot import read_archive, write_archive
from repro.pipeline import Pipeline

CAPACITY = 4
DIM = 3
FIXTURE = Path(__file__).with_name("layout_digests.json")


def history(seed: int = 7) -> list[tuple]:
    """A seeded mutation history: adds, updates, removes, a compaction,
    and two checkpoints (which non-durable layouts skip)."""
    rng = np.random.default_rng(seed)

    def vectors():
        size = int(rng.integers(1, CAPACITY + 1))
        return rng.integers(-8, 9, size=(size, DIM)).astype(float)

    steps = [("add", oid, vectors()) for oid in range(24)]
    steps += [("update", oid, vectors()) for oid in (3, 8, 15)]
    steps += [("remove", oid, None) for oid in (0, 5, 9, 17)]
    steps.append(("checkpoint", None, None))
    steps += [("add", oid, vectors()) for oid in range(24, 30)]
    steps.append(("compact", None, None))
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
        elif op == "compact":
            db.compact()
        elif db.durable:
            db.checkpoint()


def write_every_layout(root: Path) -> None:
    """The history of :func:`history` in every layout, on both backends."""
    steps = history()
    for backend, omega in (("xtree", None), ("scan", [0.5, -1.0, 2.0])):
        base = root / backend
        options = dict(backend=backend, omega=omega, index_capacity=4)
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
            meta, arrays = read_dense_archive(file, mmap=False)
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


@pytest.mark.parametrize("backend", ["xtree", "scan"])
@pytest.mark.parametrize("dense", [False, True])
def test_shards_open_as_one_database(backend, dense, tmp_path):
    """The pool workers' view of a saved sharded layout: one database
    whose engine and index are a fresh build's of the same objects, also
    when some shards are empty (at K = 40)."""
    steps = history()
    options = dict(backend=backend, omega=[0.5, -1.0, 2.0], index_capacity=4)
    plain = SimilarityDatabase(CAPACITY, **options)
    replay(plain, steps)
    for shards in (5, 40):
        sharded = ShardedSimilarityDatabase(CAPACITY, shards=shards, **options)
        replay(sharded, steps)
        root = sharded.save(tmp_path / f"sharded-{shards}", dense=dense)
        one = storage.open_shards_as_one(sharded._saved.paths)
        one.check_invariants()
        assert one.object_ids() == plain.object_ids()
        assert one.engine_digest() == plain.engine_digest()
        assert one.index_digest() == plain.index_digest()
        assert one._hamming is None and not one._payloads
        assert sharded.knn_query_many([plain.get(2)], 5, n_jobs=2)[0][0] == (
            plain.knn_query(plain.get(2), 5)[0]
        )
    assert any(not len(shard) for shard in sharded.shards)
    assert len(list(root.glob("shard-*"))) == 40


def test_shards_that_disagree_do_not_open_as_one(tmp_path):
    layouts = {}
    for name, options in (("a", {}), ("b", {"index_capacity": 6})):
        db = ShardedSimilarityDatabase(CAPACITY, shards=2, **options)
        replay(db, history())
        layouts[name] = db.save(tmp_path / name)
    paths = [layouts["a"] / "shard-00000.npz", layouts["b"] / "shard-00001.npz"]
    with pytest.raises(StorageError, match=r"b/shard-00001.npz.*'index_capacity'"):
        storage.open_shards_as_one(paths)


def zip_members(path: Path) -> dict[str, bytes]:
    with zipfile.ZipFile(path) as archive:
        return {member: archive.read(member) for member in archive.namelist()}


@pytest.mark.parametrize("backend", ["xtree", "scan"])
def test_a_single_shard_is_a_plain_snapshot(backend, tmp_path):
    steps = history()
    plain = SimilarityDatabase(CAPACITY, backend=backend, index_capacity=4)
    sharded = ShardedSimilarityDatabase(
        CAPACITY, shards=1, backend=backend, index_capacity=4
    )
    for db in (plain, sharded):
        replay(db, steps)
    for dense in (False, True):
        plain_path = plain.save(tmp_path / f"plain-{dense}", dense=dense)
        shard = sharded.save(tmp_path / f"sharded-{dense}", dense=dense) / "shard-00000.npz"
        if dense:
            assert shard.read_bytes() == plain_path.read_bytes()
        else:
            assert zip_members(shard) == zip_members(plain_path)


# -- malformed settings records ------------------------------------------------


def saved_layout(kind: str, path: Path) -> None:
    """A small saved database: ``plain`` / ``dense`` / ``durable`` single
    files or directories, ``sharded`` / ``sharded-durable`` with two
    shards."""
    options = dict(backend="xtree", index_capacity=4)
    if kind.startswith("sharded"):
        durable = kind == "sharded-durable"
        db = ShardedSimilarityDatabase(
            CAPACITY, shards=2, durable=durable, path=path if durable else None,
            **options,
        )
    else:
        durable = kind == "durable"
        db = SimilarityDatabase(
            CAPACITY, durable=durable, path=path if durable else None, **options
        )
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
    "unknown-backend": (setting(backend="nope"), ("'backend'",)),
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
    "unknown-backend": (setting(backend="nope"), ("'backend'",)),
    "string-omega": (setting(omega="x"), ("'omega'",)),
    "string-keep": (setting(keep_generations="2"), ("'keep_generations'",)),
    "list-sketch-params": (setting(sketch_params=[1]), ("'sketch_params'",)),
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
    [("omega", "x"), ("dimension", "3"), ("db_version", None), ("sketch_params", 3)],
)
def test_a_malformed_snapshot_meta_key_fails_typed(key, value, tmp_path, capsys):
    path = tmp_path / "db.npz"
    saved_layout("plain", path)
    meta, _ = read_archive(path, "repro-similarity-db")
    meta[key] = value
    rewrite_meta(path, meta)
    assert_corrupt(path, capsys, "db.npz", repr(key))


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


#: Case -> an edit of a saved snapshot's (meta, arrays) that keeps every
#: CRC valid but the index tables unusable.  Each used to open; the
#: first query then raised a bare IndexError / ValueError or, for a root
#: marked as a leaf, answered a wrong top-5.
INDEX_TABLES = {
    "child-out-of-range": _child_out_of_range,
    "narrow-boxes": _narrow_boxes,
    "root-marked-leaf": _root_marked_leaf,
    "string-size": lambda meta, arrays: meta["index_meta"].update(size="x"),
}


@pytest.mark.parametrize("case", sorted(INDEX_TABLES))
@pytest.mark.parametrize("name", ["db.npz", "db.dense"])
def test_malformed_index_tables_fail_typed(name, case, tmp_path, capsys):
    path = tmp_path / name
    dense = name.endswith(".dense")
    saved_layout("dense" if dense else "plain", path)
    if dense:
        meta, arrays = read_dense_archive(path, mmap=False)
    else:
        meta, arrays = read_archive(path, "repro-similarity-db")
    assert len(arrays["index__node_level"]) > 1  # a directory to break
    INDEX_TABLES[case](meta, arrays)
    (write_dense_archive if dense else write_archive)(path, meta, arrays)
    assert_corrupt(path, capsys, name, "index tables")


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
        db.compact(shards=3)
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
    if dense:
        meta, arrays = read_dense_archive(path, mmap=False)
    else:
        meta, arrays = read_archive(path, "repro-similarity-db")
    blob = PAYLOAD_MEMBERS[case]
    arrays["payloads"] = (
        np.zeros(3) if blob is None else np.frombuffer(blob, dtype=np.uint8)
    )
    (write_dense_archive if dense else write_archive)(path, meta, arrays)
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
