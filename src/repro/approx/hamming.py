"""Vectorized Hamming shortlisting over packed binary sketches.

The codes live in one place: the code column of the refinement engine
(:attr:`~repro.core.queries.FilterRefineEngine.codes`), one ``(words,)``
uint64 row per object, row-aligned with the engine's oids and maintained
in place with its other columns.  A :class:`HammingIndex` is a read-only
view over those two columns, built per approximate query; it keeps no
copy of either.

Distances are popcounts of XOR-ed words (``np.bitwise_count``), batched
over queries × objects; shortlists come back in the canonical
``(hamming, oid)`` order, whatever order the rows lie in, so downstream
exact refinement sees a deterministic candidate set.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import QueryError

__all__ = ["HammingIndex"]

#: Objects per distance block — bounds the (queries, block, words) XOR
#: buffer to a few MB regardless of database size.
_BLOCK = 8192


class HammingIndex:
    """Hamming ranking over row-aligned ``(n,)`` oids and ``(n, words)``
    uint64 codes (views, neither copied nor written)."""

    def __init__(self, oids: np.ndarray, codes: np.ndarray):
        if codes.ndim != 2 or not codes.shape[1] or oids.shape != codes.shape[:1]:
            raise QueryError(
                f"{oids.shape} oids do not index {codes.shape} sketch codes"
            )
        self._oids = oids
        self._codes = codes
        self.words = codes.shape[1]

    def distances(self, queries: np.ndarray) -> np.ndarray:
        """Hamming distances: ``(q, words)`` codes → ``(q, n)`` uint32."""
        q = np.ascontiguousarray(queries, dtype=np.uint64)
        if q.ndim == 1:
            q = q[None, :]
        if q.ndim != 2 or q.shape[1] != self.words:
            raise QueryError(f"query codes shape {q.shape} != (*, {self.words})")
        n = len(self._oids)
        out = np.empty((len(q), n), dtype=np.uint32)
        for start in range(0, n, _BLOCK):
            block = self._codes[start : start + _BLOCK]
            xor = q[:, None, :] ^ block[None, :, :]
            out[:, start : start + len(block)] = np.bitwise_count(xor).sum(
                axis=-1, dtype=np.uint32
            )
        return out

    def shortlist(self, queries: np.ndarray, budget: int) -> list[np.ndarray]:
        """Per-query oids of the *budget* Hamming-nearest codes.

        Each returned array is ordered by the canonical
        ``(hamming distance, oid)`` key; with ``budget >= n`` it is a
        permutation of every stored oid.
        """
        if budget < 1:
            raise QueryError("shortlist budget must be >= 1")
        dists = self.distances(queries)
        budget = min(budget, len(self._oids))
        out: list[np.ndarray] = []
        for row in dists:
            order = np.lexsort((self._oids, row))[:budget]
            out.append(self._oids[order])
        return out
