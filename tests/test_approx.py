"""The approximate candidate tier: sketches, Hamming ranking, engine.

Four layers of assurance:

* property tests (hypothesis) for the algebra the tier relies on —
  the partition kernel lights the bits of the stable-sort formula,
  sketches are permutation invariant over set elements, Hamming
  distance is a metric on packed codes, and a full-database shortlist
  contains the exact top-k by construction;
* a stateful differential machine interleaving add/remove/update/
  reload on :class:`SimilarityDatabase` and proving after every step
  that the engine's incrementally-maintained code column is
  *byte-identical* to a from-scratch rebuild, and that approx queries
  with a full budget reproduce the exact tier literally;
* one seeded quality gate: recall@10 on a centroid-degenerate family
  corpus with a fifth of the database as shortlist;
* snapshot round-trips (``.npz`` and dense mmap) carrying the
  projection matrix content-addressed by digest, hostile ``sketch__*``
  members failing typed, plus corruption detection through
  ``repro db verify``.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

import repro.approx.sketch as sketch_module
from repro.approx import (
    ApproxFilterRefineEngine,
    HammingIndex,
    SetSketcher,
    default_shortlist,
)
from repro.core.batch import PackedSets, match_many
from repro.core.queries import FilterRefineEngine, QueryMatch
from repro.db import ShardedSimilarityDatabase, SimilarityDatabase, open_database
from repro.db.archive import read_archive, write_archive
from repro.db.storage import DB_FORMAT
from repro.exceptions import QueryError, ReproError, StorageError
from repro.seeding import resolve_seed, spawn
from tests.conftest import assert_engine_is_fresh

DIM = 5
SEED = 1234


def small_sets(min_sets=1, max_sets=8, max_rows=6):
    return st.lists(
        st.integers(min_value=1, max_value=max_rows),
        min_size=min_sets,
        max_size=max_sets,
    )


def materialize(row_counts, rng):
    return [rng.standard_normal((rows, DIM)) * 10.0 for rows in row_counts]


# -- SetSketcher ------------------------------------------------------------


class TestSetSketcher:
    def test_validation(self):
        with pytest.raises(QueryError):
            SetSketcher(DIM, width=100)  # not a multiple of 64
        with pytest.raises(QueryError):
            SetSketcher(DIM, nnz=0)
        with pytest.raises(QueryError):
            SetSketcher(DIM, nnz=DIM + 1)
        with pytest.raises(QueryError):
            SetSketcher(DIM, width=128, wta=129)
        with pytest.raises(QueryError):
            SetSketcher(DIM, pool="max")

    def test_same_seed_same_sketch(self):
        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((4, DIM))
        a = SetSketcher(DIM, seed=SEED)
        b = SetSketcher(DIM, seed=SEED)
        assert a.digest() == b.digest()
        assert np.array_equal(a.sketch(vectors), b.sketch(vectors))

    def test_different_seed_different_projection(self):
        a = SetSketcher(DIM, seed=SEED)
        b = SetSketcher(DIM, seed=SEED + 1)
        assert a.digest() != b.digest()

    @pytest.mark.parametrize("pool", ["or", "wta"])
    @given(perm_seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariance(self, pool, perm_seed):
        """Element order inside a set must never change the sketch."""
        rng = np.random.default_rng(perm_seed)
        vectors = rng.standard_normal((6, DIM)) * 5.0
        sketcher = SetSketcher(DIM, width=128, wta=12, seed=SEED, pool=pool)
        base = sketcher.sketch(vectors)
        shuffled = vectors[rng.permutation(len(vectors))]
        assert np.array_equal(base, sketcher.sketch(shuffled))

    def test_sketch_shape_and_dtype(self):
        sketcher = SetSketcher(DIM, width=192, wta=10, seed=SEED)
        code = sketcher.sketch(np.ones((3, DIM)))
        assert code.dtype == np.uint64
        assert code.shape == (sketcher.words,) == (3,)

    @pytest.mark.parametrize("pool", ["or", "wta"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308])
    def test_non_finite_activations_are_refused(self, pool, bad):
        """NaN, inf and entries that overflow through the projection
        (1e308 is finite; its activations are not) have no top-``wta``
        order: refused typed, not sketched."""
        sketcher = SetSketcher(DIM, seed=SEED, pool=pool)
        vectors = np.ones((3, DIM))
        vectors[1] = bad
        with pytest.raises(QueryError, match="not finite"):
            sketcher.sketch(vectors)

    def test_fits_names_the_sketcher_a_database_would_build(self):
        sketcher = SetSketcher(DIM, seed=SEED, wta=12)
        assert sketcher.fits(DIM, seed=SEED, wta=12)
        assert not sketcher.fits(DIM, seed=SEED)  # default wta
        assert not sketcher.fits(DIM + 1, seed=SEED, wta=12)
        assert not sketcher.fits(DIM, seed=SEED, wta=12, width=128)
        assert not sketcher.fits(DIM, seed=SEED, wta=12, nnz=DIM + 1)  # invalid

    def test_snapshot_digest_mismatch_rejected(self):
        sketcher = SetSketcher(DIM, seed=SEED)
        params = {**sketcher.params(), "digest": sketcher.digest()}
        tampered = sketcher.projection.copy()
        tampered[0, 0] += 1.0
        with pytest.raises(QueryError):
            SetSketcher.from_snapshot(params, tampered)


@pytest.mark.parametrize("dims, nnz", [(3, 3), (6, 4), (8, 4), (42, 4)])
def test_projection_rows_are_distinct_signed_and_seeded(dims, nnz):
    """No row repeats while rows remain: a matrix wider than the
    ``C(dims, nnz) · 2^nnz`` rows that exist holds all of them in its
    first lap.  (At (42, 4) a matrix past its 1.8 million rows would
    take 600 MB; it is left out.)"""
    count = math.comb(dims, nnz) << nnz
    widths = [64, 192, 512] + ([(count // 64 + 1) * 64] if count < 2048 else [])
    for width in widths:
        proj = sketch_module._projection(dims, width, nnz, SEED)
        assert proj.shape == (width, dims)
        assert (np.count_nonzero(proj, axis=1) == nnz).all()
        assert np.isin(proj, (-1.0, 0.0, 1.0)).all()
        assert len(np.unique(proj[:count], axis=0)) == min(width, count)
        assert np.array_equal(proj, sketch_module._projection(dims, width, nnz, SEED))
        assert not np.array_equal(
            proj, sketch_module._projection(dims, width, nnz, SEED + 1)
        )


@pytest.mark.parametrize(
    "dims, width, wta",
    [(1, 64, 5), (3, 64, 5), (5, 64, 5), (6, 192, 15), (7, 512, 40), (42, 512, 40)],
)
def test_default_width_fits_the_rows_that_exist(dims, width, wta):
    """The default width is the largest multiple of 64 not above the
    distinct row count, within [64, 512]; the default ``wta`` is 40 per
    512 bits of it."""
    sketcher = SetSketcher(dims)
    assert (sketcher.width, sketcher.wta) == (width, wta)
    assert SetSketcher(dims, width=128).wta == 10


def stable_sort_sketch(sketcher, vectors):
    """The sketch as its formula reads: each element's (or, with
    ``pool="wta"``, the max-pooled row's) first ``wta`` bits in a stable
    sort of the negated activations light, and the bits pack into
    little-endian uint64 words."""
    acts = vectors @ sketcher.projection.T
    if sketcher.pool == "wta":
        acts = acts.max(axis=0, keepdims=True)
    top = np.argsort(-acts, axis=1, kind="stable")[:, : sketcher.wta]
    bits = np.zeros(sketcher.width, dtype=np.uint8)
    bits[top.ravel()] = 1
    packed = np.packbits(bits, bitorder="little")
    return np.frombuffer(packed.tobytes(), dtype="<u8").astype(np.uint64)


@functools.lru_cache(maxsize=None)
def cached_sketcher(dims, width, wta, pool):
    return SetSketcher(dims, width=width, wta=wta, seed=SEED, pool=pool)


#: Set shapes whose activations tie at the cut: integer coordinates (few
#: distinct projection sums), one element repeated, a single element,
#: all zeros (every activation ties) — and plain normals beside them.
SET_KINDS = ("normal", "integer", "repeated", "single", "zeros")


def kind_set(rng, kind, m, dims):
    if kind == "normal":
        return rng.normal(size=(m, dims)) * 10.0 ** rng.integers(-3, 4)
    if kind == "integer":
        return rng.integers(-2, 3, size=(m, dims)).astype(float)
    if kind == "repeated":
        return np.repeat(rng.integers(-3, 4, size=(1, dims)).astype(float), m, axis=0)
    if kind == "single":
        return rng.integers(-1, 2, size=(1, dims)).astype(float)
    return np.zeros((m, dims))


@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.integers(1, 8),
    width=st.sampled_from([64, 512]),
    wta=st.sampled_from(["one", "default", "width"]),
    pool=st.sampled_from(["or", "wta"]),
    kind=st.sampled_from(SET_KINDS),
    m=st.integers(1, 9),
)
def test_sketch_equals_the_stable_sort_formula_bit_for_bit(
    seed, dims, width, wta, pool, kind, m
):
    """The partition kernel lights the bits a stable sort would: every
    activation above the ``wta``-th largest, then the ties at it in
    ascending bit order — on tie-heavy sets too, for both pools, for
    ``wta`` from 1 to the whole width."""
    keep = {"one": 1, "default": 40, "width": width}[wta]
    sketcher = cached_sketcher(dims, width, keep, pool)
    vectors = kind_set(np.random.default_rng(seed), kind, m, dims)
    code = sketcher.sketch(vectors)
    assert code.dtype == np.uint64 and code.shape == (sketcher.words,)
    assert np.array_equal(code, stable_sort_sketch(sketcher, vectors))


def cover_lattice_set(rng, m, dims=6):
    """A set of cover features as the r = 15 parts corpus extracts them:
    multiples of 1/30.  Their activations tie at the cut."""
    return rng.integers(-15, 31, size=(m, dims)) / 30


def continuous_set(rng, m, dims=6):
    """A set of continuous features: its activations never tie."""
    return rng.normal(size=(m, dims))


def ties_at_the_cut(sketcher, vectors) -> bool:
    """Whether some element lights more than ``wta`` bits at ``>=`` its
    ``wta``-th largest activation: the sets the tie fill runs on."""
    acts = vectors @ sketcher.projection.T
    at = sketcher.width - sketcher.wta
    cut = np.partition(acts, at, axis=1)[:, at, None]
    return bool((np.count_nonzero(acts >= cut, axis=1) > sketcher.wta).any())


@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 7),
    kind=st.sampled_from([cover_lattice_set, continuous_set]),
    pool=st.sampled_from(["or", "wta"]),
)
def test_the_default_sketch_of_cover_features_equals_the_stable_sort_formula(
    seed, m, kind, pool
):
    """At the default 6-d sketcher (192 bits, wta 15), the sets the
    database sketches most: cover features, which tie at the cut and
    take the tie fill, and continuous sets, which take the threshold
    alone — bit for bit the stable sort's winners either way."""
    sketcher = cached_sketcher(6, 192, 15, pool)
    vectors = kind(np.random.default_rng(seed), m)
    assert np.array_equal(sketcher.sketch(vectors), stable_sort_sketch(sketcher, vectors))


def test_cover_features_tie_at_the_cut_and_continuous_sets_do_not():
    """Both branches of the kernel are what the property above draws."""
    sketcher = cached_sketcher(6, 192, 15, "or")
    rng = np.random.default_rng(SEED)
    lattice = [ties_at_the_cut(sketcher, cover_lattice_set(rng, 7)) for _ in range(100)]
    continuous = [ties_at_the_cut(sketcher, continuous_set(rng, 7)) for _ in range(100)]
    assert sum(lattice) >= 90 and not any(continuous)


# -- HammingIndex over the engine's code column -----------------------------

codes64 = st.lists(
    st.integers(min_value=0, max_value=2**64 - 1), min_size=2, max_size=2
).map(lambda ws: np.array(ws, dtype=np.uint64))


def random_codes(rng, n, words):
    return rng.integers(0, 2**63, (n, words)).astype(np.uint64)


def coded_engine(oids, codes):
    """An engine holding one trivial set per oid, *codes* its code column."""
    sets = [np.full((1, 2), float(oid)) for oid in oids]
    return FilterRefineEngine(sets, capacity=2, oids=oids, codes=codes)


def code_of(engine, oid):
    return engine.codes[engine.oids.tolist().index(oid)]


class TestHammingIndex:
    @given(a=codes64, b=codes64, c=codes64)
    @settings(max_examples=50, deadline=None)
    def test_metric_axioms(self, a, b, c):
        """Hamming distance on packed words: identity, symmetry, triangle."""
        index = HammingIndex(np.arange(3), np.stack([a, b, c]))
        d = index.distances(np.stack([a, b, c]))
        assert d[0, 0] == 0 and d[1, 1] == 0 and d[2, 2] == 0
        assert d[0, 1] == d[1, 0] and d[0, 2] == d[2, 0]
        assert d[0, 2] <= d[0, 1] + d[1, 2]

    def test_duplicate_add_rejected(self):
        """An oid already stored is refused before any column is
        written, the code column included."""
        engine = coded_engine([7], np.zeros((1, 1), dtype=np.uint64))
        with pytest.raises(QueryError):
            engine.add(7, np.ones((1, 2)), code=np.ones(1, dtype=np.uint64))
        with pytest.raises(QueryError):  # a code of the wrong width
            engine.add(8, np.ones((1, 2)), code=np.ones(2, dtype=np.uint64))
        with pytest.raises(QueryError):  # no code for a coded engine
            engine.add(8, np.ones((1, 2)))
        with pytest.raises(QueryError):  # a code for an engine without one
            FilterRefineEngine([np.ones((1, 2))], 2).add(
                8, np.ones((1, 2)), code=np.ones(1, dtype=np.uint64)
            )
        assert engine.oids.tolist() == [7] and engine.codes.tolist() == [[0]]

    def test_shortlist_full_budget_is_everything(self):
        rng = np.random.default_rng(3)
        oids = np.array([5, 1, 9, 3, 14])
        index = HammingIndex(oids, random_codes(rng, len(oids), 2))
        query = random_codes(rng, 1, 2)
        got = index.shortlist(query, len(oids) + 10)[0]
        assert sorted(got.tolist()) == sorted(oids.tolist())

    def test_shortlist_prefix_nesting(self):
        """A smaller budget must be a prefix of a larger one (same
        ranking, so the exact top-k survives any budget >= its rank),
        and the ranking is the canonical ``(hamming, oid)`` one whatever
        order the rows lie in."""
        rng = np.random.default_rng(4)
        oids, codes = np.arange(30), random_codes(rng, 30, 2)
        codes[10:15] = codes[3]  # ties, broken by ascending oid
        index = HammingIndex(oids, codes)
        query = random_codes(rng, 1, 2)
        big = index.shortlist(query, 20)[0]
        small = index.shortlist(query, 5)[0]
        assert small.tolist() == big[:5].tolist()
        shuffle = rng.permutation(30)
        assert HammingIndex(oids[shuffle], codes[shuffle]).shortlist(
            query, 20
        )[0].tolist() == big.tolist()

    def test_remove_and_update(self):
        """The code column moves with its row: a removal moves the last
        row (code included) into the hole, growth past the buffer keeps
        every code, and a replace overwrites the one code."""
        rng = np.random.default_rng(5)
        codes = random_codes(rng, 5, 1)
        engine = coded_engine(list(range(5)), codes)
        engine.remove(2)
        assert 2 not in engine.oids.tolist()
        assert [code_of(engine, oid)[0] for oid in (0, 1, 3, 4)] == codes[
            [0, 1, 3, 4], 0
        ].tolist()
        extra = random_codes(rng, 8, 1)
        for i, oid in enumerate(range(10, 18)):  # buffer 5 -> 10 -> 20 rows
            engine.add(oid, np.ones((1, 2)), code=extra[i])
        assert [code_of(engine, oid)[0] for oid in range(10, 18)] == extra[:, 0].tolist()
        engine.replace(4, np.ones((1, 2)), code=np.array([12345], dtype=np.uint64))
        assert code_of(engine, 4)[0] == 12345
        assert code_of(engine, 3)[0] == codes[3, 0]
        joined = FilterRefineEngine.joined([engine, coded_engine([99], codes[:1])])
        assert code_of(joined, 4)[0] == 12345 and code_of(joined, 99)[0] == codes[0, 0]


# -- ApproxFilterRefineEngine ----------------------------------------------


def build_tier(sets, seed=SEED):
    dim = sets[0].shape[1]
    # Capacity covers the stored sets AND the (<= 4-row) test queries.
    sketcher = SetSketcher(dim, width=128, wta=12, seed=seed)
    engine = FilterRefineEngine(
        sets,
        capacity=max(4, *(len(s) for s in sets)),
        codes=np.stack([sketcher.sketch(vectors) for vectors in sets]),
    )
    return ApproxFilterRefineEngine(engine, sketcher)


class TestApproxEngine:
    def test_default_shortlist_oversamples(self):
        assert default_shortlist(1) == 64
        assert default_shortlist(10) == 80

    def test_word_mismatch_rejected(self):
        sets = [np.ones((2, DIM))]
        sketcher = SetSketcher(DIM, width=128, seed=SEED)
        one_word = FilterRefineEngine(sets, capacity=2, codes=np.zeros((1, 1), np.uint64))
        with pytest.raises(QueryError):
            ApproxFilterRefineEngine(one_word, sketcher)
        with pytest.raises(QueryError):  # an engine without a code column
            ApproxFilterRefineEngine(FilterRefineEngine(sets, capacity=2), sketcher)

    @given(row_counts=small_sets(min_sets=3), budget=st.integers(1, 40))
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_never_crashes_and_oids_exist(self, row_counts, budget):
        """Any budget: valid oids, no duplicates, canonical order."""
        rng = np.random.default_rng(11)
        sets = materialize(row_counts, rng)
        tier = build_tier(sets)
        query = rng.standard_normal((2, DIM))
        results, stats = tier.knn_query(query, 3, shortlist=budget)
        oids = [m.object_id for m in results]
        assert len(oids) == len(set(oids))
        assert set(oids) <= set(range(len(sets)))
        keys = [(m.distance, m.object_id) for m in results]
        assert keys == sorted(keys)
        assert stats.exact_computations <= max(budget, 3, len(sets))

    @given(row_counts=small_sets(min_sets=4))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_full_budget_equals_exact(self, row_counts):
        """shortlist >= n refines everything: literally the exact result."""
        rng = np.random.default_rng(12)
        sets = materialize(row_counts, rng)
        tier = build_tier(sets)
        query = rng.standard_normal((3, DIM))
        approx, _ = tier.knn_query(query, 3, shortlist=len(sets))
        exact, _ = tier.engine.knn_query(query, 3)
        assert approx == exact

    def test_oracle_overlap_bounds(self):
        rng = np.random.default_rng(13)
        sets = materialize([3] * 12, rng)
        tier = build_tier(sets)
        query = rng.standard_normal((3, DIM))
        approx, _ = tier.knn_query(query, 4, shortlist=len(sets))
        exact, _ = tier.engine.knn_query(query, 4)
        truth = {match.object_id for match in exact}
        overlap = len(truth & {match.object_id for match in approx}) / len(truth)
        assert overlap == 1.0
        assert approx == exact


# -- the subset cascade: the shortlist as the cascade's candidate source ----

#: Cardinality bound of the tied engines below (sets and queries).
TIED_CAPACITY = 4


def tied_engine(seed, n_base, copies, block_size):
    """An engine over ``n_base * copies`` sets drawn from *n_base* coarse
    (0.1-lattice) ones, so equal sets sit under distinct, sparse oids
    and distances tie at every rank, and a query that is one of them or
    another lattice set: ``(engine, sets, oids, query, rng)``."""
    rng = np.random.default_rng(seed)

    def lattice_set():
        rows = int(rng.integers(1, TIED_CAPACITY + 1))
        return rng.normal(size=(rows, 3)).round(1)

    base = [lattice_set() for _ in range(n_base)]
    sets = [base[i] for i in rng.integers(0, n_base, size=n_base * copies)]
    oids = rng.permutation(4 * len(sets))[: len(sets)] - len(sets)
    engine = FilterRefineEngine(
        sets, capacity=TIED_CAPACITY, block_size=block_size, oids=oids
    )
    query = base[int(rng.integers(n_base))] if rng.random() < 0.5 else lattice_set()
    return engine, sets, oids, query, rng


def solve_everything(sets, oids, query, k, subset):
    """The subset k-nn by solving every listed object: one kernel call
    over the subset, then the canonical ``(distance, oid)`` cut."""
    if not len(subset):
        return []
    by_oid = dict(zip(oids.tolist(), sets))
    listed = np.asarray(subset, dtype=np.int64)
    packed = PackedSets.pack([by_oid[oid] for oid in subset], capacity=TIED_CAPACITY)
    exacts = match_many(query, packed)
    return [
        QueryMatch(int(listed[i]), float(exacts[i]))
        for i in np.lexsort((listed, exacts))[:k]
    ]


tied_engines = dict(
    seed=st.integers(0, 2**32 - 1),
    n_base=st.integers(1, 12),
    copies=st.integers(1, 4),
    k=st.integers(1, 10),
    block_size=st.integers(1, 8),
)


@given(data=st.data(), **tied_engines)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_subset_cascade_equals_solving_every_listed_object(
    data, seed, n_base, copies, k, block_size
):
    """knn_refine_subset prunes inside the subset by the cascade's
    bounds, yet answers exactly what solving every listed object does,
    ties at the k-th distance resolved by ascending oid."""
    engine, sets, oids, query, _ = tied_engine(seed, n_base, copies, block_size)
    subset = data.draw(st.lists(st.sampled_from(oids.tolist()), unique=True))
    got, stats = engine.knn_refine_subset(query, k, subset)
    assert got == solve_everything(sets, oids, query, k, subset)
    assert stats.candidates_ranked == len(subset)
    assert stats.exact_computations <= len(subset)
    assert stats.exact_computations + stats.pruned == len(sets)


@given(**tied_engines)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_a_subset_of_every_row_is_the_exact_query(seed, n_base, copies, k, block_size):
    """Every oid, in any order, as the subset: the candidate stream is
    the whole centroid column, so the answer and the cascade's work are
    knn_query's."""
    engine, _, oids, query, rng = tied_engine(seed, n_base, copies, block_size)
    got, stats = engine.knn_refine_subset(query, k, rng.permutation(oids))
    want, exact = engine.knn_query(query, k)
    assert got == want
    for key in ("exact_computations", "pruned", "bound_pruned", "extra_refinements"):
        assert getattr(stats, key) == getattr(exact, key), key
    assert stats.candidates_ranked == len(oids)


# -- database integration: incremental == fresh ----------------------------


def fresh_sketch_digest(db: SimilarityDatabase, sketch_params=None) -> str:
    """What the sketch tier would be if rebuilt from scratch right now.

    *sketch_params* are the parameters the database was first built
    with, for a caller that reopened it since: a non-empty snapshot
    carries them only inside its sketcher, the object under test.
    """
    if db.dimension is None:
        return "empty"
    if sketch_params is None:
        sketch_params = db._sketch_params
    sketcher = SetSketcher(db.dimension, **sketch_params)
    oids = sorted(db.object_ids())
    hasher = hashlib.sha256(np.array(oids, dtype=np.int64).tobytes())
    for oid in oids:
        hasher.update(sketcher.sketch(db.get(oid)).tobytes())
    return hasher.hexdigest()


class ApproxDifferentialMachine(RuleBasedStateMachine):
    """Incremental sketch and engine maintenance must equal a
    from-scratch build."""

    #: What the database is built with and, through every reload, the
    #: reference the live sketcher is held against.
    SKETCH_PARAMS = {"width": 128, "wta": 12}

    def __init__(self):
        super().__init__()
        self.db = SimilarityDatabase(6, sketch_params=self.SKETCH_PARAMS)
        self.rng = np.random.default_rng(99)
        self.next_oid = 0
        self.tmp = tempfile.TemporaryDirectory()

    def teardown(self):
        self.tmp.cleanup()

    @rule(rows=st.integers(min_value=1, max_value=6))
    def add(self, rows):
        self.db.add(self.next_oid, self.rng.standard_normal((rows, DIM)))
        self.next_oid += 1

    @precondition(lambda self: len(self.db) > 0)
    @rule(data=st.data())
    def remove(self, data):
        oid = data.draw(st.sampled_from(self.db.object_ids()))
        assert self.db.remove(oid)

    @precondition(lambda self: len(self.db) > 0)
    @rule(data=st.data(), rows=st.integers(min_value=1, max_value=6))
    def update(self, data, rows):
        oid = data.draw(st.sampled_from(self.db.object_ids()))
        self.db.update(oid, self.rng.standard_normal((rows, DIM)))

    @rule(dense=st.booleans())
    def reload(self, dense):
        """Save and reopen: the open packs an engine from the stored
        (for a dense snapshot: mmapped) arrays, and the steps after it
        maintain that one."""
        path = os.path.join(self.tmp.name, "dense.db" if dense else "db.npz")
        self.db.save(path, dense=dense)
        self.db = SimilarityDatabase.load(path)

    @invariant()
    def incremental_matches_fresh(self):
        assert self.db.sketch_digest() == fresh_sketch_digest(
            self.db, self.SKETCH_PARAMS
        )
        assert_engine_is_fresh(self.db)

    @invariant()
    def full_budget_matches_exact(self):
        if not len(self.db):
            return
        query = self.rng.standard_normal((2, DIM))
        exact = self.db.knn_query(query, 3)[0]
        approx = self.db.knn_query(
            query, 3, mode="approx", shortlist=len(self.db)
        )[0]
        assert approx == exact


ApproxDifferentialMachine.TestCase.settings = settings(
    max_examples=15,
    stateful_step_count=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestApproxDifferential = ApproxDifferentialMachine.TestCase


class TestDatabaseApproxMode:
    def make_db(self, n=20):
        rng = np.random.default_rng(21)
        db = SimilarityDatabase(6)
        for oid in range(n):
            db.add(oid, rng.standard_normal((int(rng.integers(1, 5)), DIM)))
        return db, rng

    def test_mode_validation(self):
        db, rng = self.make_db(4)
        query = rng.standard_normal((2, DIM))
        with pytest.raises(QueryError):
            db.knn_query(query, 2, mode="fuzzy")
        with pytest.raises(QueryError):
            db.knn_query(query, 2, shortlist=5)  # exact mode

    def test_sketch_disabled_paths(self):
        db = SimilarityDatabase(6, sketch=False)
        db.add(0, np.ones((2, DIM)))
        assert db.sketch_digest() == "disabled"
        with pytest.raises(QueryError):
            db.knn_query(np.ones((1, DIM)), 1, mode="approx")
        with pytest.raises(QueryError):
            SimilarityDatabase(6, sketch=False, sketch_params={"width": 128})

    @pytest.mark.parametrize("op", ["add", "update"])
    def test_an_unsketchable_set_is_refused_before_the_wal(self, tmp_path, op):
        """A finite set whose activations overflow (entries of 1e308)
        fails typed at the sketch, before the WAL append and before the
        engine changes: size, version and the directory stay as they
        were."""
        dbdir = tmp_path / "db"
        db = SimilarityDatabase(6, durable=True, path=dbdir)
        db.add(0, np.ones((2, DIM)))
        before = {p.name: p.read_bytes() for p in dbdir.iterdir()}
        version, digest = db.version, db.engine_digest()
        with pytest.raises(QueryError, match="not finite"):
            getattr(db, op)(0 if op == "update" else 1, np.full((2, DIM), 1e308))
        assert len(db) == 1 and db.version == version
        assert db.engine_digest() == digest
        assert {p.name: p.read_bytes() for p in dbdir.iterdir()} == before
        db.close()

    @pytest.mark.parametrize("op", ["add", "update"])
    def test_a_set_beyond_the_magnitude_bound_is_refused_before_the_wal(
        self, tmp_path, op
    ):
        """Entries of 1e200 sketch to finite activations but square to
        inf in the kernels: refused at the boundary like 1e308, before
        the WAL append, and every query path keeps answering."""
        dbdir = tmp_path / "db"
        db = SimilarityDatabase(6, durable=True, path=dbdir)
        db.add(0, np.ones((2, DIM)))
        before = {p.name: p.read_bytes() for p in dbdir.iterdir()}
        version, digest = db.version, db.engine_digest()
        with pytest.raises(QueryError, match="beyond"):
            getattr(db, op)(0 if op == "update" else 1, np.full((2, DIM), 1e200))
        assert len(db) == 1 and db.version == version
        assert db.engine_digest() == digest
        assert {p.name: p.read_bytes() for p in dbdir.iterdir()} == before
        with pytest.raises(QueryError, match="beyond"):
            db.knn_query(np.full((2, DIM), -1e200), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mode in ("exact", "approx"):
                assert db.knn_query(np.ones((1, DIM)), 1, mode=mode)[0][0].object_id == 0
        db.close()

    def test_a_refused_first_add_leaves_the_database_empty(self):
        """The first add fixes the dimension and builds the sketcher, but
        commits them only with its code: refused, it leaves neither."""
        db = SimilarityDatabase(4)
        with pytest.raises(QueryError, match="not finite"):
            db.add(1, np.full((2, 3), 1e308))
        assert db.dimension is None
        assert db.sketch_digest() == "empty"
        db.add(2, np.ones((2, 5)))
        assert db.dimension == 5 and len(db) == 1

    def test_a_fresh_sharded_database_builds_its_projection_once(self, monkeypatch):
        """Every shard sketches with the one sketcher the first add
        builds; the layout answers as one database holding the same
        objects."""
        import repro.approx.sketch as sketch_module

        calls = []
        build = sketch_module._projection
        monkeypatch.setattr(
            sketch_module, "_projection", lambda *args: calls.append(args) or build(*args)
        )
        db = ShardedSimilarityDatabase(6, shards=4)
        rng = np.random.default_rng(22)
        for oid in range(24):
            db.add(oid, rng.standard_normal((int(rng.integers(1, 5)), DIM)))
        assert all(len(shard) for shard in db.shards)
        assert len(calls) == 1
        assert len({id(shard._sketcher) for shard in db.shards}) == 1
        db.reshard(3)  # fresh shards take the live one too
        assert len(calls) == 1
        plain = SimilarityDatabase(6)
        for oid in db.object_ids():
            plain.add(oid, db.get(oid))
        query = rng.standard_normal((2, DIM))
        assert db.knn_query(query, 5, mode="approx", shortlist=6) == plain.knn_query(
            query, 5, mode="approx", shortlist=6
        )

    def test_every_budget_returns_valid_results(self):
        db, rng = self.make_db(15)
        query = rng.standard_normal((2, DIM))
        exact = db.knn_query(query, 5)[0]
        for budget in (1, 2, 5, 14, 15, 100):
            approx = db.knn_query(
                query, 5, mode="approx", shortlist=budget
            )[0]
            oids = [m.object_id for m in approx]
            assert set(oids) <= set(db.object_ids())
            assert len(oids) == len(set(oids))
            if budget >= len(db):
                assert approx == exact

    def test_recall_on_centroid_degenerate_families(self):
        """The tier's quality gate: 24 part families re-centred on one
        centroid (the centroid filter prunes next to nothing) plus 5 %
        ragged outliers; a fifth of the database as shortlist must find
        the exact 10-nn of perturbed family members."""
        n, set_k, dim, spread = 400, 7, 6, 100.0
        rng = spawn(SEED, "approx-recall-corpus")
        prototypes = rng.uniform(0.0, spread, size=(24, set_k, dim))
        prototypes += (spread / 2.0 - prototypes.mean(axis=1))[:, None, :]
        sets = [
            prototypes[family] + rng.normal(0.0, 0.04 * spread, size=(set_k, dim))
            for family in rng.integers(0, 24, size=n)
        ]
        for i in range(n // 20):
            rows = int(rng.integers(1, set_k + 1))
            sets[i] = rng.uniform(0.0, spread, size=(rows, dim))
        db = SimilarityDatabase(set_k)
        for oid, arr in enumerate(sets):
            db.add(oid, arr)
        recalls = []
        for i in rng.choice(np.arange(n // 20, n), size=20, replace=False):
            query = sets[i] + rng.normal(0.0, 1.0, size=sets[i].shape)
            exact, exact_stats = db.knn_query(query, 10)
            assert exact_stats.candidates_ranked > 0.9 * n  # degenerate filter
            approx, stats = db.knn_query(query, 10, mode="approx", shortlist=n // 5)
            assert stats.exact_computations <= n // 5
            assert all(a.distance >= e.distance for a, e in zip(approx, exact))
            assert db.knn_query(query, 10, mode="approx", shortlist=n)[0] == exact
            hits = {m.object_id for m in approx} & {m.object_id for m in exact}
            recalls.append(len(hits) / 10)
        assert np.mean(recalls) >= 0.95

    def test_read_view_approx(self):
        db, rng = self.make_db(10)
        query = rng.standard_normal((2, DIM))
        with db.read_view() as view:
            approx = view.knn_query(
                query, 3, mode="approx", shortlist=len(db)
            )[0]
        assert approx == db.knn_query(query, 3)[0]


# -- snapshot round-trips ---------------------------------------------------


def legacy_projection(dims, width, nnz, seed):
    """The projection as databases drew it before its rows were drawn
    distinct, one ``rng.choice`` per row: the matrix the snapshots of
    that time carry, at width 512 and wta 40 in every dimension."""
    rng = spawn(seed, "sketch-projection", dims, width, nnz)
    proj = np.zeros((width, dims))
    for row in range(width):
        cols = rng.choice(dims, size=nnz, replace=False)
        proj[row, cols] = rng.integers(0, 2, size=nnz) * 2 - 1
    return proj


LEGACY_SKETCH = {"width": 512, "wta": 40}


def legacy_database(monkeypatch, sets, shards=None):
    """A database holding *sets* (under their positions, or the oids of
    a dict) sketched as before: the legacy matrix and parameters."""
    with monkeypatch.context() as patch:
        patch.setattr(sketch_module, "_projection", legacy_projection)
        if shards is None:
            db = SimilarityDatabase(6, sketch_params=LEGACY_SKETCH)
        else:
            db = ShardedSimilarityDatabase(6, shards=shards, sketch_params=LEGACY_SKETCH)
        for oid, arr in (sets.items() if isinstance(sets, dict) else enumerate(sets)):
            db.add(oid, arr)
    return db


def parts_of(db):
    """The shards of a sharded database, else the database itself."""
    return getattr(db, "shards", [db])


class TestSketchSnapshots:
    def make_db(self, n=12):
        rng = np.random.default_rng(31)
        db = SimilarityDatabase(6)
        for oid in range(n):
            db.add(oid, rng.standard_normal((int(rng.integers(1, 5)), DIM)))
        return db, rng

    @pytest.mark.parametrize("dense", [False, True])
    def test_roundtrip_preserves_sketch_tier(self, tmp_path, dense):
        db, rng = self.make_db()
        path = tmp_path / ("db.dns" if dense else "db.npz")
        db.save(path, dense=dense)
        loaded = SimilarityDatabase.load(path)
        assert loaded.sketch_digest() == db.sketch_digest()
        assert np.array_equal(
            loaded._sketcher.projection, db._sketcher.projection
        )
        query = rng.standard_normal((2, DIM))
        assert (
            loaded.knn_query(query, 3, mode="approx", shortlist=len(db))[0]
            == db.knn_query(query, 3)[0]
        )

    @pytest.mark.parametrize("dense", [False, True])
    def test_loaded_db_still_mutable(self, tmp_path, dense):
        """Mutations after a load keep the code column in sync, and
        write into the engine's own copy: the snapshot file (for a dense
        one, the mapped arrays) stays byte-identical."""
        db, rng = self.make_db()
        path = tmp_path / ("db.dns" if dense else "db.npz")
        db.save(path, dense=dense)
        saved = path.read_bytes()
        loaded = SimilarityDatabase.load(path)
        loaded.add(100, rng.standard_normal((3, DIM)))
        loaded.remove(0)
        loaded.update(1, rng.standard_normal((2, DIM)))
        assert loaded.sketch_digest() == fresh_sketch_digest(loaded)
        assert path.read_bytes() == saved

    @pytest.mark.parametrize("dense", [False, True], ids=["npz", "dense"])
    @pytest.mark.parametrize(
        "case",
        [
            lambda a: a.__setitem__("sketch__oids", a["sketch__oids"][::-1].copy()),
            lambda a: a.__setitem__("sketch__oids", a["sketch__oids"] + 1),
            lambda a: a.__setitem__("sketch__codes", a["sketch__codes"][1:].copy()),
            lambda a: a.__setitem__(
                "sketch__codes", np.concatenate([a["sketch__codes"]] * 2, axis=1)
            ),
            lambda a: a.__setitem__("sketch__codes", a["sketch__codes"].view(np.int64)),
            lambda a: a.__setitem__("sketch__codes", a["sketch__codes"][:, 0].copy()),
            lambda a: a.pop("sketch__oids"),
        ],
        ids=["oids-reordered", "oids-not-set-oids", "rows", "words", "dtype",
             "one-dim", "oids-missing"],
    )
    def test_a_hostile_sketch_member_fails_typed(self, tmp_path, dense, case):
        """A CRC-valid snapshot whose ``sketch__*`` members do not fit the
        stored sets fails the open with a StorageError naming the file."""
        db, _ = self.make_db()
        path = tmp_path / ("db.dns" if dense else "db.npz")
        db.save(path, dense=dense)
        meta, arrays, _ = read_archive(path, DB_FORMAT)
        arrays = {name: np.array(arr) for name, arr in arrays.items()}
        case(arrays)
        write_archive(path, meta, arrays, dense=dense)
        with pytest.raises(StorageError, match=f"{path}.*sketch"):
            open_database(path)

    @pytest.mark.parametrize("layout", ["npz", "dense", "sharded", "durable"])
    def test_empty_database_keeps_sketch_params(self, tmp_path, layout):
        """A database saved before its first object has no sketcher to
        carry the constructor's parameters; the reopened one must still
        sketch with them, not with the defaults."""
        params = {"sketch_params": {"width": 128, "seed": 11}}
        path = tmp_path / f"empty-{layout}"
        if layout == "sharded":
            live = ShardedSimilarityDatabase(6, shards=2, **params)
            live.save(path)
        elif layout == "durable":
            live = SimilarityDatabase(6, durable=True, path=path, **params)
            live.checkpoint()
            live.close()
        else:
            live = SimilarityDatabase(6, **params)
            live.save(path, dense=layout == "dense")
        back = open_database(path)
        reference = SimilarityDatabase(6, **params)
        for db in (back, reference):
            db.add(0, np.arange(2.0 * DIM).reshape(2, DIM))
        got = back.sketch_digests() if layout == "sharded" else [back.sketch_digest()]
        assert reference.sketch_digest() in got
        back.close()

    @pytest.mark.parametrize("layout", ["npz", "dense", "sharded"])
    def test_a_legacy_projection_survives_reopening(self, tmp_path, monkeypatch, layout):
        """A layout written with the per-row-loop matrix at width 512 and
        wta 40 reopens with that matrix, its codes and its approx
        answers, whatever today's draw and default width are."""
        rng = np.random.default_rng(41)
        sets = [rng.standard_normal((int(rng.integers(1, 5)), 6)) for _ in range(16)]
        query = rng.standard_normal((3, 6))
        db = legacy_database(monkeypatch, sets, shards=2 if layout == "sharded" else None)
        path = tmp_path / layout
        db.save(path, dense=layout == "dense")
        back = open_database(path)
        for sketcher in (part._sketcher for part in parts_of(back)):
            assert (sketcher.width, sketcher.wta) == (512, 40)
            assert np.array_equal(
                sketcher.projection, legacy_projection(6, 512, 4, sketcher.seed)
            )
        assert [part.sketch_digest() for part in parts_of(back)] == [
            part.sketch_digest() for part in parts_of(db)
        ]
        assert back.knn_query(query, 5, mode="approx", shortlist=6) == db.knn_query(
            query, 5, mode="approx", shortlist=6
        )

    def test_a_legacy_shard_that_never_held_an_object_takes_its_layouts_projection(
        self, tmp_path, monkeypatch
    ):
        """A shard given no sketch parameters, saved before its first
        object, stored none: after the reopen its first add sketches with
        the layout's legacy matrix, not with today's default."""
        from repro.db.sharded import shard_of
        from tests.conftest import restamp_layout

        rng = np.random.default_rng(43)
        first = [oid for oid in range(60) if shard_of(oid, 2) == 0][:12]
        late = next(oid for oid in range(60) if shard_of(oid, 2) == 1)
        live = legacy_database(
            monkeypatch, {oid: rng.standard_normal((3, 6)) for oid in first}, shards=2
        )
        path = tmp_path / "sharded"
        live.save(path)
        restamp_layout(
            path / "shard-00001.npz",
            lambda meta, arrays: meta.pop("sketch_params"),
            lambda payload: None,
        )
        back = open_database(path)
        arr = rng.standard_normal((2, 6))
        back.add(late, arr)
        live.add(late, arr)
        assert back.shards[1]._sketcher is back.shards[0]._sketcher
        assert back.sketch_digests() == live.sketch_digests()
        query = rng.standard_normal((2, 6))
        assert back.knn_query(query, 5, mode="approx", shortlist=4) == live.knn_query(
            query, 5, mode="approx", shortlist=4
        )

    def test_a_legacy_durable_shard_that_replayed_takes_its_layouts_projection(
        self, tmp_path, monkeypatch
    ):
        """A durable shard given no sketch parameters and empty at its last
        checkpoint draws a projection of its own while replaying its WAL;
        the reopened layout sketches its sets again with the donor's
        legacy matrix, and answers as it did."""
        from repro.db.sharded import shard_of
        from tests.conftest import restamp_layout

        rng = np.random.default_rng(47)
        path = tmp_path / "durable"
        monkeypatch.setattr(sketch_module, "_projection", legacy_projection)
        live = ShardedSimilarityDatabase(
            6, shards=2, durable=True, path=path, sketch_params=LEGACY_SKETCH
        )
        for oid in [oid for oid in range(60) if shard_of(oid, 2) == 0][:8]:
            live.add(oid, rng.standard_normal((3, 6)))
        live.checkpoint()
        for oid in [oid for oid in range(60) if shard_of(oid, 2) == 1][:3]:
            live.add(oid, rng.standard_normal((3, 6)))
        query = rng.standard_normal((2, 6))
        answer = live.knn_query(query, 5, mode="approx", shortlist=4)
        digests = live.sketch_digests()
        live.close()
        monkeypatch.undo()
        restamp_layout(
            path / "shard-00001",
            lambda meta, arrays: meta.pop("sketch_params"),
            lambda payload: payload.pop("sketch_params"),
        )
        back = open_database(path)
        assert back.shards[1]._sketcher is back.shards[0]._sketcher
        assert back.sketch_digests() == digests
        assert back.knn_query(query, 5, mode="approx", shortlist=4) == answer
        back.close()

    def test_sketch_disabled_roundtrip(self, tmp_path):
        db = SimilarityDatabase(6, sketch=False)
        db.add(0, np.ones((2, DIM)))
        path = tmp_path / "nosketch.npz"
        db.save(path)
        loaded = SimilarityDatabase.load(path)
        assert loaded.sketch_digest() == "disabled"

    def test_corrupted_snapshot_fails_verify(self, tmp_path):
        from repro.cli import main

        db, _ = self.make_db()
        path = tmp_path / "db.npz"
        db.save(path)
        assert main(["db", "verify", str(path)]) == 0
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert main(["db", "verify", str(path)]) == 1


# -- seed determinism across processes -------------------------------------

_SKETCH_SNIPPET = """
import sys
import numpy as np
from repro.approx import SetSketcher
from repro.seeding import resolve_seed, spawn

seed = resolve_seed(None)
rng = spawn(seed, "determinism-probe")
vectors = rng.standard_normal((5, 4)) * 7.0
sketcher = SetSketcher(4, width=128, wta=9, seed=seed)
sys.stdout.write(sketcher.digest() + ":" + sketcher.sketch(vectors).tobytes().hex())
"""


def _run_probe(env_seed=None):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    if env_seed is None:
        env.pop("REPRO_SEED", None)
    else:
        env["REPRO_SEED"] = str(env_seed)
    out = subprocess.run(
        [sys.executable, "-c", _SKETCH_SNIPPET],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return out.stdout


class TestSeedDeterminism:
    def test_two_processes_byte_identical(self):
        assert _run_probe() == _run_probe()

    def test_env_seed_changes_and_reproduces(self):
        base = _run_probe()
        seeded = _run_probe(env_seed=777)
        assert seeded != base
        assert seeded == _run_probe(env_seed=777)

    def test_resolve_seed_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "42")
        assert resolve_seed(None) == 42
        assert resolve_seed(7) == 7  # explicit beats env
        monkeypatch.setenv("REPRO_SEED", "not-an-int")
        with pytest.raises(ReproError):
            resolve_seed(None)
