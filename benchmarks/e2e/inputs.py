"""Seeded input generators: corpora, queries and the mixed op stream.

Everything a workload feeds the database comes from here and is a pure
function of ``--seed``.  The program under test receives only the
generated inputs, never the seed.  Each generator draws its whole list
of timed ops up front (``ops``) and folds what it hands out into a sha256
``inputs_digest`` (the corpus plus the first ``digest_ops`` operations,
which every run consumes), so a drift in the
generators, in numpy's streams or in the voxelizer is caught by
comparing the digest with the one pinned in ``digests.json``.
"""

from __future__ import annotations

import hashlib
import zlib
from collections import deque
from dataclasses import dataclass

import numpy as np

#: SIGMOD 2003 opened on 9 June 2003.
DEFAULT_SEED = 20030609
#: Reserved for held-out confirmation of a claimed gain (choosing-metrics
#: guide, section 6.3): never run while a change is being written.
HELD_OUT_SEED = 20030612

SET_K = 7  # vectors per set: the paper's 7 covers
DIMENSION = 6  # a cover is (position, extension) in 3-D
KNN_K = 10
RESOLUTION = 15  # the paper's raster for the cover-based models
FAMILIES = 24
CATALOGUE_SEED = 2003  # the family prototypes: fixed, not drawn from --seed
SPREAD = 100.0
FAMILY_SIGMA = 0.04 * SPREAD
QUERY_SIGMA = 2.0
BATCH_SIZE = 10
WARM_UP_QUERIES = 5  # untimed, after every open
FIRST_QUERIES = 8  # variants of the first query after an open
APPROX_SHORTLIST = 160
#: Fixed range-query radius on the selective clustered corpus; returns
#: about 20 family members of a perturbed-member query at n = 1000.
RANGE_EPSILON = 95.0

#: Op mix of ``mixed_durable_rw``, as counts per ``_MIX_PERIOD`` ops: 60 %
#: exact k-nn, 15 % approximate k-nn, 10 % range, 15 % mutations
#: (add / update / remove 40/30/30).
_MIX_PERIOD = 200
_MIX = {"knn": 120, "range": 20, "add": 12, "update": 9, "remove": 9}
_MUTATIONS = ("add", "update", "remove")

_PART_CHUNK = 256


@dataclass(frozen=True)
class Op:
    """One timed operation.

    *data* is a voxel grid (``grid_knn``), a vector set (``knn``,
    ``approx``, ``range``, ``add``, ``update``) or a list of vector sets
    (``batch_knn``).  *key* names the queries of an op whose answers are
    compared across workloads.
    """

    kind: str
    data: object = None
    oid: int | None = None
    key: tuple[int, ...] | None = None


def _entropy(seed: int, label: str, *extra: int) -> list[int]:
    return [int(seed), zlib.crc32(label.encode()), *extra]


def derive_rng(seed: int, label: str, *extra: int) -> np.random.Generator:
    """An independent stream per (seed, purpose)."""
    return np.random.default_rng(_entropy(seed, label, *extra))


def derive_int(seed: int, label: str, *extra: int) -> int:
    state = np.random.SeedSequence(_entropy(seed, label, *extra)).generate_state(1)
    return int(state[0])


class _Digest:
    """sha256 over the first *limit* ops handed out, after the corpus."""

    def __init__(self, limit: int):
        self._hash = hashlib.sha256()
        self._left = limit

    def array(self, arr) -> None:
        arr = np.ascontiguousarray(arr)
        self._hash.update(f"{arr.dtype.str}{arr.shape}".encode())
        self._hash.update(arr.tobytes())

    def op(self, op: Op) -> None:
        if self._left <= 0:
            return
        self._left -= 1
        self._hash.update(f"{op.kind}:{op.oid}".encode())
        if op.kind == "grid_knn":
            self.array(np.packbits(op.data.occupancy))
        elif op.data is not None:
            self.array(op.data)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _evenly_spread(counts: dict[str, int]) -> list[str]:
    """One period holding each name *count* times, every name spread
    evenly over the period so that every prefix is balanced too."""
    slots = [
        ((slot + 0.5) / count, name)
        for name, count in sorted(counts.items())
        for slot in range(count)
    ]
    return [name for _, name in sorted(slots)]


# -- vector-set corpora -----------------------------------------------------


def set_corpus(rng, n: int, *, recentre: bool):
    """The 24-family clustered vector-set corpus: ``(sets, prototypes)``.

    Each object is one of 24 prototype sets of ``SET_K`` vectors plus
    tight Gaussian noise; the first 5 % are ragged uniform one-offs.
    With *recentre* every prototype is shifted onto one common centroid,
    so the extended-centroid filter carries no family signal and an exact
    query must refine nearly every object (the "refine wall"); without
    it the centroids separate the families and the filter is selective.

    The family catalogue (the prototypes) is part of the workload and
    the same for every seed; the seed draws the members.  How selective
    the filter is depends on where 24 random prototypes happen to land,
    and a catalogue per seed made query cost differ by a third from seed
    to seed — spread that says nothing about the program.  Families are
    equally populated for the same reason.
    """
    catalogue = np.random.default_rng([CATALOGUE_SEED, int(recentre)])
    prototypes = catalogue.uniform(0.0, SPREAD, size=(FAMILIES, SET_K, DIMENSION))
    if recentre:
        centre = np.full(DIMENSION, SPREAD / 2.0)
        prototypes += (centre - prototypes.mean(axis=1))[:, None, :]
    families = rng.permutation(n) % FAMILIES
    sets = [
        prototypes[family] + rng.normal(0.0, FAMILY_SIGMA, size=(SET_K, DIMENSION))
        for family in families
    ]
    for i in range(max(1, n // 20)):
        size = int(rng.integers(1, SET_K + 1))
        sets[i] = rng.uniform(0.0, SPREAD, size=(size, DIMENSION))
    return sets, prototypes


def _perturbed(rng, arr: np.ndarray) -> np.ndarray:
    return arr + rng.normal(0.0, QUERY_SIGMA, size=arr.shape)


class SetQueryInputs:
    """The centroid-degenerate corpus and a fixed list of perturbed-member
    queries; ``ops`` hands each out once, one at a time or in batches.

    ``degenerate_exact_knn`` and ``sharded_batch_knn`` build this with the
    same seed and sizes, so they see the same corpus and queries.
    """

    def __init__(self, seed: int, n: int, queries: int, batch: int):
        rng = derive_rng(seed, "degenerate-corpus")
        sets, _ = set_corpus(rng, n, recentre=True)
        self.corpus = list(enumerate(sets))
        query_rng = derive_rng(seed, "degenerate-queries")
        # A query on a ragged one-off costs differently from one on a
        # family member: give the list the corpus's 5 % of them exactly,
        # not 5 % on average.
        ragged = max(1, n // 20)
        picks = np.concatenate(
            [
                query_rng.integers(0, ragged, size=queries // 20),
                query_rng.integers(ragged, n, size=queries - queries // 20),
            ]
        )
        query_rng.shuffle(picks)
        self.queries = [_perturbed(query_rng, sets[int(i)]) for i in picks]
        head = self.queries[:WARM_UP_QUERIES]
        self.warm_ops = [Op("batch_knn", head)] if batch else [Op("knn", q) for q in head]
        members = [q for q, i in zip(self.queries, picks) if i >= ragged]
        self.first_sets = members[:FIRST_QUERIES]
        # The key of an op names its queries, so that two workloads on
        # the same list can compare their answers query by query.
        if batch:
            self.ops = [
                Op(
                    "batch_knn",
                    self.queries[at : at + batch],
                    key=tuple(range(at, min(at + batch, queries))),
                )
                for at in range(0, queries, batch)
            ]
        else:
            self.ops = [Op("knn", q, key=(i,)) for i, q in enumerate(self.queries)]
        # The digest covers the whole list and is the same however the
        # queries are batched.
        self._digest = _Digest(0)
        for arr in sets + self.queries:
            self._digest.array(arr)

    def apply(self, op: Op) -> None:
        pass

    def digest(self) -> str:
        return self._digest.hexdigest()


def _mixed_schedule() -> list[str]:
    """One period of op kinds of ``mixed_durable_rw``.

    Drawn one by one, the kinds made what a run costs depend on the
    draw: how many queries came first after a mutation (and paid the
    engine re-pack), and which kind they were.  The schedule is therefore
    part of the workload, the same for every seed: the exact k-nn and
    range queries and the mutations are spread evenly over the period,
    and every mutation is followed by one approximate query, which is the
    query that pays for the re-pack.  The seed draws every set, target
    and new member.
    """
    schedule = []
    for kind in _evenly_spread(_MIX):
        schedule.append(kind)
        if kind in _MUTATIONS:
            schedule.append("approx")
    assert len(schedule) == _MIX_PERIOD
    return schedule


class MixedOpStream:
    """The selective clustered corpus and the read/write op list.

    The stream is also the benchmark's mirror of the live sets.  An op is
    drawn from the state the ops before it left behind, so drawing
    ``ops`` walks the mirror forward; it is then put back at the corpus,
    and whoever checks the answers walks it forward again with
    :meth:`apply`, one op at a time (``version`` counts the mutations).

    Exact and range queries are perturbed family members.  The corpus's
    ragged one-offs are there to be stored, updated and removed; an exact
    query on one finds nothing nearby, refines the whole database and
    costs fifty cheap queries, so that a handful of them decided the run.
    """

    def __init__(self, seed: int, n: int, count: int, digest_ops: int):
        rng = derive_rng(seed, "mixed-corpus")
        sets, self._prototypes = set_corpus(rng, n, recentre=False)
        self.corpus = list(enumerate(sets))
        self._ragged = max(1, n // 20)  # oids below this began as one-offs
        self._rng = derive_rng(seed, "mixed-ops")
        warm_rng = derive_rng(seed, "mixed-warm-up")
        members = [
            _perturbed(warm_rng, sets[int(warm_rng.integers(self._ragged, n))])
            for _ in range(max(WARM_UP_QUERIES, FIRST_QUERIES))
        ]
        self.warm_ops = [Op("knn", q) for q in members[:WARM_UP_QUERIES]]
        self.first_sets = members[:FIRST_QUERIES]
        self._digest = _Digest(digest_ops)
        for arr in sets:
            self._digest.array(arr)
        self._rewind()
        schedule = _mixed_schedule()
        self.ops = []
        for index in range(count):
            op = self._draw(schedule[index % _MIX_PERIOD])
            self._digest.op(op)
            self.ops.append(op)
            self.apply(op)
        self._rewind()

    def _rewind(self) -> None:
        self.sets: dict[int, np.ndarray] = dict(self.corpus)
        self._live = list(self.sets)
        self._slot = {oid: slot for slot, oid in enumerate(self._live)}
        self._next_oid = len(self.corpus)
        self.version = 0

    def _pick_live(self) -> int:
        return self._live[int(self._rng.integers(len(self._live)))]

    def _pick_member(self) -> int:
        while True:
            oid = self._pick_live()
            if oid >= self._ragged:
                return oid

    def _new_member(self) -> np.ndarray:
        family = int(self._rng.integers(FAMILIES))
        return self._prototypes[family] + self._rng.normal(
            0.0, FAMILY_SIGMA, size=(SET_K, DIMENSION)
        )

    def _draw(self, kind: str) -> Op:
        if kind == "add":
            return Op("add", self._new_member(), oid=self._next_oid)
        if kind == "update":
            return Op("update", self._new_member(), oid=self._pick_live())
        if kind == "remove":
            return Op("remove", oid=self._pick_live())
        # Approximate queries go to any live object: what they cost does
        # not depend on the target, and the one-offs are where their
        # recall is lost.
        target = self._pick_live() if kind == "approx" else self._pick_member()
        return Op(kind, _perturbed(self._rng, self.sets[target]))

    def apply(self, op: Op) -> None:
        if op.kind in _MUTATIONS:
            self.version += 1
        if op.kind == "add":
            self._next_oid = op.oid + 1
            self._slot[op.oid] = len(self._live)
            self._live.append(op.oid)
            self.sets[op.oid] = op.data
        elif op.kind == "update":
            self.sets[op.oid] = op.data
        elif op.kind == "remove":
            # Swap-remove keeps picking O(1) and deterministic.
            slot = self._slot.pop(op.oid)
            last = self._live.pop()
            if last != op.oid:
                self._live[slot] = last
                self._slot[last] = slot
            del self.sets[op.oid]

    def digest(self) -> str:
        return self._digest.hexdigest()


# -- voxel-grid corpus --------------------------------------------------------


def _voxelize(solid):
    from repro.voxel.voxelize import voxelize_solid

    grid = voxelize_solid(solid, RESOLUTION)
    if grid.is_empty():
        # Center sampling can miss a feature thinner than one voxel.
        grid = voxelize_solid(solid, RESOLUTION, supersample=4)
    return grid


#: Share of unclassified one-offs the aircraft generator mixes in, and
#: the share the held-out query traffic carries.
_NOISE_SHARE = 0.04
_QUERY_NOISE_SHARE = 0.087  # 8 parts in 100
_PERIOD = 100


def _family_pattern(noise_share: float) -> list[str]:
    """One period of part families: the aircraft class mix, beside
    *noise_share* of one-offs, as whole counts per 100 parts (largest
    remainder), spread evenly over the period."""
    from repro.datasets.aircraft import AIRCRAFT_CLASSES

    weights = {**AIRCRAFT_CLASSES, "noise": noise_share}
    total = sum(weights.values())
    exact = {name: _PERIOD * weight / total for name, weight in weights.items()}
    quota = {name: int(share) for name, share in exact.items()}
    by_remainder = sorted(exact, key=lambda name: (quota[name] - exact[name], name))
    for name in by_remainder[: _PERIOD - sum(quota.values())]:
        quota[name] += 1
    return _evenly_spread(quota)


class _PartStream:
    """``make_aircraft_dataset`` parts, handed out by family.

    The generator draws each part's family at random, so 600 parts hold
    12 wings give or take 3 — and the large families are the ones whose
    covers are slow to extract.  The workload hands parts out in a fixed
    family pattern (same share of each family in every 100), which keeps
    what a run costs from depending on that draw.  Surplus parts of
    common families wait in their queues.
    """

    def __init__(self, seed: int, label: str):
        from repro.datasets import make_aircraft_dataset

        self._make = make_aircraft_dataset
        self._seed = seed
        self._label = label
        self._queues: dict[str, deque] = {}
        self._chunks = 0

    def next_grid(self, family: str):
        queue = self._queues.setdefault(family, deque())
        while not queue:
            parts, _ = self._make(
                _PART_CHUNK, seed=derive_int(self._seed, self._label, self._chunks)
            )
            self._chunks += 1
            for part in parts:
                self._queues.setdefault(part.family, deque()).append(part)
        return _voxelize(queue.popleft().solid)


class GridInputs:
    """Aircraft-style parts voxelized at r = 15: a corpus to ingest and
    *count* held-out query grids.

    A query on an unclassified one-off is a cold extraction of 30-80 ms,
    ten times the typical query.  At the catalogue's 4 % the 95th
    percentile of the query latencies lay on the edge of that
    population, and at 24 or 34 ms depending on which four other queries
    of a run were slowest.  The query traffic therefore carries 8 % of
    one-offs, which puts the percentile inside the population, and takes
    them from a fixed list (``CATALOGUE_SEED``, like the family catalogue
    of the set corpora): how long a random solid takes to cover varies
    by a factor of two, and 32 of them do not average that out.  The
    seed draws the corpus and every other query.
    """

    def __init__(self, seed: int, n: int, count: int, digest_ops: int):
        pattern = _family_pattern(_NOISE_SHARE)
        corpus = _PartStream(seed, "parts-corpus")
        self.corpus = [
            (oid, corpus.next_grid(pattern[oid % _PERIOD])) for oid in range(n)
        ]
        warm = _PartStream(seed, "parts-warm-up")
        self.warm_ops = [
            Op("grid_knn", warm.next_grid(pattern[i])) for i in range(WARM_UP_QUERIES)
        ]
        members = _PartStream(seed, "parts-queries")
        one_offs = _PartStream(CATALOGUE_SEED, "parts-one-offs")
        query_pattern = _family_pattern(_QUERY_NOISE_SHARE)
        self.ops = []
        for i in range(count):
            family = query_pattern[i % _PERIOD]
            stream = one_offs if family == "noise" else members
            self.ops.append(Op("grid_knn", stream.next_grid(family)))
        self._digest = _Digest(digest_ops)
        for _, grid in self.corpus:
            self._digest.array(np.packbits(grid.occupancy))
        for op in self.ops:
            self._digest.op(op)

    def apply(self, op: Op) -> None:
        pass

    def digest(self) -> str:
        return self._digest.hexdigest()
