"""The shared process pool: errors cross it typed, a dead worker does
not leave it broken for the rest of the process."""

from __future__ import annotations

import inspect
import os
import pickle
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import exceptions
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
