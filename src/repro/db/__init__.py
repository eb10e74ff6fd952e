"""Mutable similarity databases: single-process and sharded.

:mod:`repro.db.core` holds :class:`SimilarityDatabase` — one RWLock,
one index, one WAL.  :mod:`repro.db.sharded` partitions objects across
K independent cores and answers each query over them joined into one
database, byte-identical to a single-shard build.
:mod:`repro.db.storage` is every on-disk layout — snapshot file,
durable directory, sharded directory — written, opened, recovered and
verified in one place; :func:`open_database` opens any of them with the
class that wrote it.  :mod:`repro.db.archive` is the one snapshot file
format, in its two containers (``.npz`` and dense): one writer, and one
reader that CRC-checks every member on every open.
"""

from repro.db.core import DatabaseView, SimilarityDatabase
from repro.db.sharded import ShardedSimilarityDatabase, open_database, shard_of
from repro.db.storage import (
    DB_FORMAT,
    DB_VERSION,
    DEFAULT_KEEP_GENERATIONS,
    SHARDED_FORMAT,
    RecoveryReport,
)

__all__ = [
    "DB_FORMAT",
    "DB_VERSION",
    "DEFAULT_KEEP_GENERATIONS",
    "DatabaseView",
    "RecoveryReport",
    "SimilarityDatabase",
    "SHARDED_FORMAT",
    "ShardedSimilarityDatabase",
    "open_database",
    "shard_of",
]
