"""Binary set sketches via seeded sparse random projections.

Implements the fly-olfactory-style locality-sensitive sketch of
"Approximate Vector Set Search" (arXiv 2412.03301) adapted to the
paper's vector-set objects: every element of a set is expanded through a
sparse signed random projection into a wide activation vector, the
``wta`` strongest activations per element light one bit each, and the
per-element codes are pooled over the set (OR-pool by default, which
makes the sketch invariant under element permutation — a hard
requirement, since minimal matching distance is permutation invariant).
The pooled code is packed into little-endian ``uint64`` words so Hamming
distances reduce to ``popcount(xor)``.

The projection matrix is generated deterministically from
``(seed, dims, width, nnz)`` through :mod:`repro.seeding` — two
processes with the same parameters build bit-identical matrices — and is
additionally *persisted* inside database snapshots, content-addressed by
a SHA-256 digest, so sketches stay reproducible even across future
changes to the generation scheme.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from repro.exceptions import QueryError
from repro.seeding import DEFAULT_SEED, spawn

__all__ = ["SetSketcher", "DEFAULT_WIDTH", "DEFAULT_NNZ", "DEFAULT_WTA"]

#: Widest default sketch in bits (one uint64 word per 64): the default
#: width of a feature space with at least this many distinct rows.
DEFAULT_WIDTH = 512

#: Nonzero entries per projection row (sparse fly-style expansion).
DEFAULT_NNZ = 4

#: Activations kept per element (winner-take-all sparsification) at the
#: widest default; the default ``wta`` of a narrower sketch scales with
#: its width.
DEFAULT_WTA = 40

_POOLS = ("or", "wta")

#: The row count a projection is drawn from must fit an int64 rank.
_MAX_ROWS = 2**63 - 1


def _row_count(dims: int, nnz: int) -> int:
    """How many distinct rows a projection can have: C(dims, nnz) · 2^nnz."""
    return math.comb(dims, nnz) << nnz


def _combinations(ranks: np.ndarray, dims: int, nnz: int) -> np.ndarray:
    """The ``nnz``-subsets of ``range(dims)`` of colex rank *ranks*, as
    ``(len(ranks), nnz)`` ascending columns (the combinatorial number
    system: a rank is ``C(c_nnz, nnz) + … + C(c_1, 1)``)."""
    cols = np.empty((len(ranks), nnz), dtype=np.int64)
    rest = ranks.copy()
    for i in range(nnz, 0, -1):
        # C(c, i) for every c the i-th smallest column can take.
        table = np.array([math.comb(c, i) for c in range(dims - nnz + i)], dtype=np.int64)
        cols[:, i - 1] = np.searchsorted(table, rest, side="right") - 1
        rest -= table[cols[:, i - 1]]
    return cols


def _projection(dims: int, width: int, nnz: int, seed: int) -> np.ndarray:
    """The ``(width, dims)`` sparse signed projection, deterministically.

    Row *i* connects output bit *i* to ``nnz`` distinct input dimensions
    with signs ±1.  Signed (rather than the fly's binary) connections
    keep the expansion informative when features are correlated or share
    a common offset, at identical cost.

    No two rows are equal while ``width`` is at most the
    ``C(dims, nnz) · 2^nnz`` rows that exist; a wider matrix cycles
    through fresh permutations of all of them.  One call draws distinct
    row ranks, which are unranked into columns (colex combination rank)
    and signs (the low ``nnz`` bits), so the cost does not grow with the
    row count.
    """
    rng = spawn(seed, "sketch-projection", dims, width, nnz)
    count = _row_count(dims, nnz)
    if width <= count:
        ranks = rng.choice(count, size=width, replace=False)
    else:
        laps = np.tile(np.arange(count), (-(-width // count), 1))
        ranks = rng.permuted(laps, axis=1).ravel()[:width]
    cols = _combinations(ranks >> nnz, dims, nnz)
    signs = ((ranks[:, None] >> np.arange(nnz)) & 1) * 2.0 - 1.0
    proj = np.zeros((width, dims), dtype=np.float64)
    np.put_along_axis(proj, cols, signs, axis=1)
    return proj


class SetSketcher:
    """Map ``(m, dims)`` vector sets to fixed-width packed binary sketches.

    Parameters
    ----------
    dims:
        Element dimensionality of the sets to sketch.
    width:
        Sketch width in bits (multiple of 64).  Default: the largest
        multiple of 64 not above the ``C(dims, nnz) · 2^nnz`` distinct
        projection rows, within ``[64, DEFAULT_WIDTH]`` — 192 at
        ``dims=6``, 512 from ``dims=7`` on.
    nnz:
        Nonzero entries per projection row.  Default:
        ``min(DEFAULT_NNZ, dims)``.
    wta:
        Bits set per element before pooling (``pool="or"``) or kept in
        the pooled activation (``pool="wta"``).  Default:
        ``DEFAULT_WTA`` per ``DEFAULT_WIDTH`` bits of *width* (15 at 192).
    seed:
        Root seed for the projection matrix (see :mod:`repro.seeding`).
    pool:
        ``"or"`` — per-element winner-take-all codes OR-ed over the set
        (default; each element contributes its own signature, so small
        sets are not drowned out).  ``"wta"`` — element activations are
        max-pooled first, then thresholded once.
    projection:
        Pre-built projection matrix (snapshot restore path); must have
        shape ``(width, dims)``.  When given, the matrix is trusted as
        the source of truth and *seed* only labels its provenance.
    """

    def __init__(
        self,
        dims: int,
        *,
        width: int | None = None,
        nnz: int | None = None,
        wta: int | None = None,
        seed: int = DEFAULT_SEED,
        pool: str = "or",
        projection: np.ndarray | None = None,
    ):
        if dims < 1:
            raise QueryError("sketch dims must be >= 1")
        if nnz is None:
            # The default clamps to low-dimensional feature spaces (a
            # row cannot draw more distinct coordinates than exist).
            nnz = min(DEFAULT_NNZ, int(dims))
        if not 1 <= nnz <= dims:
            raise QueryError(f"sketch nnz must be in [1, dims={dims}]: {nnz}")
        if width is None:
            width = min(DEFAULT_WIDTH, max(64, _row_count(dims, nnz) // 64 * 64))
        if width < 64 or width % 64:
            raise QueryError(f"sketch width must be a positive multiple of 64: {width}")
        if wta is None:
            wta = DEFAULT_WTA * width // DEFAULT_WIDTH
        if not 1 <= wta <= width:
            raise QueryError(f"sketch wta must be in [1, width={width}]: {wta}")
        if pool not in _POOLS:
            raise QueryError(f"sketch pool must be one of {_POOLS}: {pool!r}")
        self.dims = int(dims)
        self.width = int(width)
        self.nnz = int(nnz)
        self.wta = int(wta)
        self.seed = int(seed)
        self.pool = pool
        if projection is None:
            if _row_count(self.dims, self.nnz) > _MAX_ROWS:
                raise QueryError(
                    f"sketch nnz={nnz} at dims={dims} has too many distinct "
                    "projection rows to draw from"
                )
            projection = _projection(self.dims, self.width, self.nnz, self.seed)
        else:
            projection = np.ascontiguousarray(projection, dtype=np.float64)
            if projection.shape != (self.width, self.dims):
                raise QueryError(
                    f"projection shape {projection.shape} != ({width}, {dims})"
                )
        self.projection = projection
        self.projection.setflags(write=False)

    # -- identity ----------------------------------------------------------

    @property
    def words(self) -> int:
        """Packed sketch length in ``uint64`` words."""
        return self.width // 64

    def params(self) -> dict:
        """The content-addressing key (everything but the matrix bytes)."""
        return {
            "dims": self.dims,
            "width": self.width,
            "nnz": self.nnz,
            "wta": self.wta,
            "seed": self.seed,
            "pool": self.pool,
        }

    def digest(self) -> str:
        """SHA-256 over parameters and projection content.

        Snapshots store this next to the matrix; the loader recomputes
        it to detect a projection that drifted from its declared
        parameters (e.g. partial corruption the per-array CRC missed
        because meta and arrays were swapped between files).
        """
        h = hashlib.sha256()
        h.update(json.dumps(self.params(), sort_keys=True).encode())
        h.update(np.ascontiguousarray(self.projection).tobytes())
        return h.hexdigest()

    def fits(self, dims: int, **params) -> bool:
        """Whether ``SetSketcher(dims, **params)`` has this sketcher's
        parameters, so that this one can serve in its place."""
        try:
            other = SetSketcher(dims, projection=self.projection, **params)
        except QueryError:
            return False
        return other.params() == self.params()

    @classmethod
    def from_snapshot(cls, params: dict, projection: np.ndarray) -> "SetSketcher":
        """Rebuild from persisted parameters + matrix, verifying the digest."""
        expected = params.get("digest")
        kwargs = {k: params[k] for k in ("width", "nnz", "wta", "seed", "pool")}
        sketcher = cls(int(params["dims"]), projection=projection, **kwargs)
        if expected is not None and sketcher.digest() != expected:
            raise QueryError(
                "sketch projection does not match its content digest; "
                "snapshot sketch arrays are corrupt or mismatched"
            )
        return sketcher

    # -- sketching ---------------------------------------------------------

    def _pack(self, bits: np.ndarray) -> np.ndarray:
        """Pack a ``(width,)`` bool array into little-endian uint64 words."""
        return np.packbits(bits, bitorder="little").view("<u8")

    def _winners(self, acts: np.ndarray) -> np.ndarray:
        """The ``(width,)`` bool union of each ``(rows, width)`` *acts*
        row's top-``wta`` activations.

        A row's ``wta``-th largest activation is its cut, and every
        activation ``>=`` the cut lights: at least ``wta`` bits, exactly
        ``wta`` unless activations tie at the cut.  When some row lights
        more, the tie fill runs on the set's rows with the same cut: the
        activations above it win, and the places left go to those equal
        to it, lowest bit index first — the winners of a stable
        descending sort, found without sorting.  The fill leaves a row
        without ties as it was; picking out the tied rows would cost
        more than filling the others (DESIGN.md "Selecting the winners").
        """
        at = self.width - self.wta
        cut = np.partition(acts, at, axis=1)[:, at, None]
        lit = acts >= cut
        if np.count_nonzero(lit) > self.wta * len(acts):
            ties = acts == cut
            above = lit ^ ties
            left = self.wta - above.sum(axis=1)
            lit = above | (ties & (ties.cumsum(axis=1) <= left[:, None]))
        return lit.any(axis=0)

    def sketch(self, vectors: np.ndarray) -> np.ndarray:
        """Sketch one set: ``(m, dims)`` → ``(words,)`` uint64.

        Deterministic including ties: an element's bits are its
        activations above its ``wta``-th largest, then those equal to
        that threshold, lowest bit index first, until ``wta`` are lit
        (the winners of a stable descending sort).  A set whose
        activations are not all finite (NaN, inf, or entries such as
        1e308 that overflow through the projection) has no such order
        and raises :class:`QueryError`.
        """
        arr = np.asarray(
            getattr(vectors, "vectors", vectors), dtype=np.float64
        )
        if arr.ndim != 2 or not len(arr) or arr.shape[1] != self.dims:
            raise QueryError(f"cannot sketch set of shape {arr.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            acts = arr @ self.projection.T  # (m, width)
        if not np.isfinite(acts).all():
            raise QueryError("cannot sketch a set whose activations are not finite")
        if self.pool == "wta":  # pool activations, threshold once
            acts = acts.max(axis=0, keepdims=True)
        return self._pack(self._winners(acts))
