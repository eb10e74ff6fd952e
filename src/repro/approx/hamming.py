"""Vectorized Hamming shortlisting over packed binary sketches.

The index keeps one ``(words,)`` uint64 code per object, rows always in
ascending-oid order.  That single invariant is what makes incremental
maintenance *byte-identical* to a fresh build: an add inserts at the
``searchsorted`` position, a remove deletes the row, and the resulting
``(oids, codes)`` arrays are exactly what sketching the surviving
objects in sorted-oid order would produce — the differential harness
asserts this via :meth:`digest` equality after arbitrary mutation
sequences.

Distances are popcounts of XOR-ed words (``np.bitwise_count``), batched
over queries × objects; shortlists come back in the canonical
``(hamming, oid)`` order so downstream exact refinement sees a
deterministic candidate set.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.exceptions import QueryError

__all__ = ["HammingIndex"]

#: Objects per distance block — bounds the (queries, block, words) XOR
#: buffer to a few MB regardless of database size.
_BLOCK = 8192


class HammingIndex:
    """Incrementally maintained Hamming index over packed sketches."""

    def __init__(self, words: int):
        if words < 1:
            raise QueryError("HammingIndex words must be >= 1")
        self.words = int(words)
        self._oids = np.zeros(0, dtype=np.int64)
        self._codes = np.zeros((0, self.words), dtype=np.uint64)

    def __len__(self) -> int:
        return len(self._oids)

    def __contains__(self, oid: int) -> bool:
        return self._find(int(oid)) is not None

    @property
    def oids(self) -> np.ndarray:
        """Ascending oid array (read-only view)."""
        view = self._oids.view()
        view.setflags(write=False)
        return view

    @property
    def codes(self) -> np.ndarray:
        """``(n, words)`` code matrix, row *i* belonging to ``oids[i]``."""
        view = self._codes.view()
        view.setflags(write=False)
        return view

    # -- maintenance -------------------------------------------------------

    def _find(self, oid: int) -> int | None:
        pos = int(np.searchsorted(self._oids, oid))
        if pos < len(self._oids) and self._oids[pos] == oid:
            return pos
        return None

    def _check_code(self, code: np.ndarray) -> np.ndarray:
        arr = np.ascontiguousarray(code, dtype=np.uint64)
        if arr.shape != (self.words,):
            raise QueryError(f"sketch code shape {arr.shape} != ({self.words},)")
        return arr

    def add(self, oid: int, code: np.ndarray) -> None:
        oid = int(oid)
        arr = self._check_code(code)
        pos = int(np.searchsorted(self._oids, oid))
        if pos < len(self._oids) and self._oids[pos] == oid:
            raise QueryError(f"object id {oid} already in Hamming index")
        self._oids = np.insert(self._oids, pos, oid)
        self._codes = np.insert(self._codes, pos, arr, axis=0)

    def remove(self, oid: int) -> None:
        pos = self._find(int(oid))
        if pos is None:
            raise QueryError(f"object id {oid} not in Hamming index")
        self._oids = np.delete(self._oids, pos)
        self._codes = np.delete(self._codes, pos, axis=0)

    def update(self, oid: int, code: np.ndarray) -> None:
        """Replace the code of an existing object (oid position is stable)."""
        pos = self._find(int(oid))
        if pos is None:
            raise QueryError(f"object id {oid} not in Hamming index")
        # Replace the whole row array so snapshot zero-copy views are
        # never mutated in place.
        codes = self._codes.copy()
        codes[pos] = self._check_code(code)
        self._codes = codes

    # -- queries -----------------------------------------------------------

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
            out.append(self._oids[order].copy())
        return out

    # -- persistence -------------------------------------------------------

    def serialized(self) -> dict[str, np.ndarray]:
        """Snapshot arrays (``oids``, row-matched ``codes``)."""
        return {"oids": self._oids.copy(), "codes": self._codes.copy()}

    @classmethod
    def from_arrays(cls, oids: np.ndarray, codes: np.ndarray) -> "HammingIndex":
        """Adopt snapshot arrays without copying (read-only views welcome:
        every mutation path reallocates, so the buffers are never written)."""
        codes = np.asarray(codes, dtype=np.uint64)
        if codes.ndim != 2:
            raise QueryError(f"codes must be 2-D, got shape {codes.shape}")
        oids = np.asarray(oids, dtype=np.int64)
        if oids.shape != (len(codes),):
            raise QueryError(f"{len(oids)} oids for {len(codes)} codes")
        if len(oids) > 1 and not np.all(oids[:-1] < oids[1:]):
            raise QueryError("Hamming index oids must be strictly ascending")
        index = cls(codes.shape[1])
        index._oids = oids
        index._codes = codes
        return index

    def digest(self) -> str:
        """SHA-256 over rows — the differential harness's equality probe."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self._oids).tobytes())
        h.update(np.ascontiguousarray(self._codes).tobytes())
        return h.hexdigest()
