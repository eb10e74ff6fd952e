"""The one fan-out: below two workers it runs in the calling process,
from two up on the shared pool, whose errors cross it typed and where a
dead worker does not leave it broken for the rest of the process."""

from __future__ import annotations

import inspect
import os
import pickle
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro import exceptions
from repro.db import ShardedSimilarityDatabase, sharded
from repro.parallel import pool_map


def _square(value: int) -> int:
    return value * value


def _exit_worker(_value) -> None:
    os._exit(1)


def _raise_integrity_error(path: str) -> None:
    raise exceptions.SnapshotIntegrityError(path, "set_data", "CRC mismatch")


def _example(cls: type) -> exceptions.ReproError:
    if cls is exceptions.SnapshotIntegrityError:
        return cls("shard-00001.npz", "set_data", "CRC mismatch", kind="object-store column")
    return cls("something went wrong")


ERRORS = [
    cls
    for _, cls in inspect.getmembers(exceptions, inspect.isclass)
    if issubclass(cls, exceptions.ReproError)
]


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_every_error_pickles_with_its_type_and_message(cls):
    error = _example(cls)
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is cls
    assert str(back) == str(error)
    assert vars(back) == vars(error)


def test_a_worker_error_reaches_the_caller_typed():
    with pytest.raises(exceptions.SnapshotIntegrityError, match="shard-00001.npz") as info:
        pool_map(_raise_integrity_error, ["shard-00001.npz"] * 2, 2)
    assert info.value.member == "set_data"
    assert pool_map(_square, [1, 2, 3], 2) == [1, 4, 9]


def test_a_dead_worker_does_not_break_later_batches():
    with pytest.raises(BrokenProcessPool):
        pool_map(_exit_worker, [0, 1], 2)
    assert pool_map(_square, [1, 2, 3, 4], 2) == [1, 4, 9, 16]


def _pid(_task) -> int:
    return os.getpid()


def test_one_worker_runs_in_the_calling_process():
    assert pool_map(_pid, [0, 1, 2], 1) == [os.getpid()] * 3
    assert pool_map(_pid, [0, 1, 2], None) == [os.getpid()] * 3


def test_two_workers_run_in_the_pool():
    assert os.getpid() not in pool_map(_pid, [0, 1, 2], 2)


def test_a_pooled_sharded_batch_of_one_query_runs_in_a_worker(tmp_path):
    """A one-query batch is one chunk, yet it is answered by a worker: the
    calling process never opens the saved layout itself."""
    rng = np.random.default_rng(7)
    db = ShardedSimilarityDatabase(6, shards=2)
    for oid in range(12):
        db.add(oid, rng.standard_normal((int(rng.integers(1, 5)), 3)))
    db.save(tmp_path / "layout")
    opened = set(sharded._LAYOUT_DBS)
    query = rng.standard_normal((2, 3))
    pooled = db.knn_query_many([query], 4, n_jobs=2)
    assert set(sharded._LAYOUT_DBS) == opened
    assert len(db.last_parallel_legs) == 1
    assert [m.object_id for m in pooled[0][0]] == [
        m.object_id for m in db.knn_query(query, 4)[0]
    ]
