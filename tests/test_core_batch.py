"""Tests for the batched minimal-matching kernels (repro.core.batch)."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from benchmarks.e2e.inputs import set_corpus
from repro.core.batch import (
    DEFAULT_CHUNK_SIZE,
    PackedSets,
    _cost_tensor,
    assignment_bounds,
    hungarian_batch,
    match_many,
    match_pairs,
    pairwise_matrix,
    query_costs,
)
from repro.core.min_matching import min_matching_distance, min_matching_match
from repro.exceptions import DistanceError
from tests.conftest import random_vector_sets
from tests.kuhn_munkres import assignment_cost, definition_6, kuhn_munkres
from tests.test_core_queries import near_ties

# Collections of 2..8 ragged sets (1..5 vectors each, 3-d), bounded
# values so the scipy oracle and the omega-padded kernel see the same
# well-conditioned problems.
set_collections = st.lists(
    st.integers(1, 5).flatmap(
        lambda m: arrays(
            float, (m, 3), elements=st.floats(-50, 50, allow_nan=False, width=32)
        )
    ),
    min_size=2,
    max_size=8,
)

# The adversarial side of the distance contract: ragged sets of small
# integer vectors, duplicates included, so that assignment problems tie —
# among the omega-padded virtual rows always, among real rows often.
tied_collections = st.lists(
    st.integers(1, 5).flatmap(
        lambda m: arrays(float, (m, 3), elements=st.integers(-3, 3).map(float))
    ),
    min_size=2,
    max_size=8,
)

# The paper's shape of set: up to seven 6-d vectors at full double
# precision.  Seven terms past a few padding zeros are what ndarray.sum
# regroups, and 6-d doubles are where the Gram-form norm and
# `np.linalg.norm` part in the last bit.
cover_collections = st.lists(
    st.integers(1, 7).flatmap(
        lambda m: arrays(float, (m, 6), elements=st.floats(-50, 50, allow_nan=False))
    ),
    min_size=2,
    max_size=6,
)


def _degenerate_sets(seed, n=48):
    """The benchmark's centroid-degenerate corpus (ragged one-offs first)."""
    return set_corpus(np.random.default_rng(seed), n, recentre=True)[0]


def _kernel_view(query, sets, capacity=None):
    """What the kernel computes for *query* against *sets* packed at
    *capacity*: the padded cost stack, the matched costs of its
    assignments (ascending), and the distances `match_many` returns."""
    packed = PackedSets.pack(sets, capacity=capacity)
    prepared = packed.pad_query(query)
    costs = _cost_tensor(
        prepared.data, prepared.sq_norms, packed.data, packed.sq_norms
    )
    matched = np.take_along_axis(costs, hungarian_batch(costs)[:, :, None], axis=2)
    return costs, np.sort(matched[:, :, 0], axis=1), match_many(prepared, packed)


def _assert_same_up_to_ties(got, got_matched, want, want_matched):
    """The distance contract: one float per matched-cost multiset.  Two
    optima that match different multisets of equal real sum (a true tie)
    may round differently, by a few ulp."""
    for distance, costs, expected, expected_costs in zip(
        got, got_matched, want, want_matched
    ):
        if np.array_equal(costs, expected_costs):
            assert distance == expected
        else:
            assert abs(distance - expected) <= 4 * np.spacing(max(distance, expected))


def _check_row_order_invariance(sets, rng):
    shuffled = [s[rng.permutation(len(s))] for s in sets]
    _, matched, distances = _kernel_view(sets[0], sets)
    _, shuffled_matched, shuffled_distances = _kernel_view(shuffled[0], shuffled)
    _assert_same_up_to_ties(shuffled_distances, shuffled_matched, distances, matched)


def _check_against_scratch_solver(sets):
    costs, matched, distances = _kernel_view(sets[0], sets)
    scratch = [kuhn_munkres(cost) for cost in costs]
    _assert_same_up_to_ties(
        distances,
        matched,
        [assignment_cost(cost, own) for cost, own in zip(costs, scratch)],
        [np.sort(cost[np.arange(len(own)), own]) for cost, own in zip(costs, scratch)],
    )


def test_the_solver_is_imported_on_the_first_solve():
    """`scipy.optimize` takes most of a second to import: a process that
    never solves (`repro info`, `repro db init`) never pays it, and the
    first solve imports it."""
    check = (
        "import sys, numpy, repro, repro.db, repro.cli\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "assert 'scipy.ndimage' not in sys.modules\n"
        "from repro.core.batch import hungarian_batch\n"
        "hungarian_batch(numpy.eye(2)[None])\n"
        "assert 'scipy.optimize' in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", check],
        capture_output=True,
        text=True,
        env={
            "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
            "PATH": "/usr/bin:/bin",
        },
    )
    assert proc.returncode == 0, proc.stderr


class TestPackedSets:
    def test_pack_pads_with_omega(self, rng):
        omega = np.array([1.0, 2.0, 3.0])
        sets = [rng.normal(size=(2, 3)), rng.normal(size=(4, 3))]
        packed = PackedSets.pack(sets, capacity=5, omega=omega)
        assert packed.data.shape == (2, 5, 3)
        assert np.array_equal(packed.sizes, [2, 4])
        assert np.all(packed.data[0, 2:] == omega)
        assert np.all(packed.data[1, 4:] == omega)

    def test_pack_default_capacity_is_max_size(self, rng):
        packed = PackedSets.pack([rng.normal(size=(m, 3)) for m in (1, 4, 2)])
        assert packed.capacity == 4

    def test_pack_rejects_empty_collection(self):
        with pytest.raises(DistanceError):
            PackedSets.pack([])

    def test_pack_rejects_empty_set(self, rng):
        with pytest.raises(DistanceError):
            PackedSets.pack([rng.normal(size=(2, 3)), np.empty((0, 3))])

    def test_pack_rejects_undersized_capacity(self, rng):
        with pytest.raises(DistanceError):
            PackedSets.pack([rng.normal(size=(5, 3))], capacity=4)

    def test_pack_rejects_mixed_dimensions(self, rng):
        with pytest.raises(DistanceError):
            PackedSets.pack([rng.normal(size=(2, 3)), rng.normal(size=(2, 4))])

    def test_ragged_pack_equals_the_per_set_loop(self, rng):
        """One scatter from (rows, sizes) builds what filling the tensor
        set by set builds — the loop stays here as the reference."""
        omega = rng.normal(size=6)
        sets = random_vector_sets(rng, 40, dim=6, max_size=7)
        sizes = [len(arr) for arr in sets]
        packed = PackedSets.from_ragged(np.concatenate(sets), sizes, 7, omega)
        data = np.empty((len(sets), 7, 6))
        data[:] = omega
        for i, arr in enumerate(sets):
            data[i, : len(arr)] = arr
        assert np.array_equal(packed.data, data)
        assert np.array_equal(packed.sizes, sizes)
        assert np.array_equal(packed.sq_norms, np.einsum("nkd,nkd->nk", data, data))
        via_pack = PackedSets.pack(sets, capacity=7, omega=omega)
        assert np.array_equal(via_pack.data, data)

    def test_ragged_pack_validates(self, rng):
        rows = rng.normal(size=(5, 3))
        for sizes in ([2, 2], [5, 0], [4, 1], []):  # short, empty set, oversized, none
            with pytest.raises(DistanceError):
                PackedSets.from_ragged(rows, sizes, 3, np.zeros(3))
        with pytest.raises(DistanceError):
            PackedSets.from_ragged(rows, [3, 2], 3, np.zeros(4))

    def test_write_row_equals_a_fresh_pack(self, rng):
        omega = rng.normal(size=6)
        sets = random_vector_sets(rng, 9, dim=6, max_size=7)
        packed = PackedSets.pack(sets, capacity=7, omega=omega)
        for row, rows in ((0, 1), (4, 7), (8, 3)):  # shrink, fill, anything
            sets[row] = rng.normal(size=(rows, 6))
            packed.write_row(row, sets[row])
        fresh = PackedSets.pack(sets, capacity=7, omega=omega)
        for column in ("data", "sizes", "sq_norms"):
            assert np.array_equal(getattr(packed, column), getattr(fresh, column))
        head = packed.prefix(4)
        assert head.n == 4 and np.shares_memory(head.data, packed.data)

    def test_pad_query_roundtrip(self, rng):
        packed = PackedSets.pack([rng.normal(size=(3, 4)) for _ in range(3)])
        query = rng.normal(size=(2, 4))
        prepared = packed.pad_query(query)
        assert prepared.size == 2
        assert np.array_equal(prepared.data[:2], query)
        assert np.all(prepared.data[2:] == 0.0)

    def test_pad_query_rejects_oversized(self, rng):
        packed = PackedSets.pack([rng.normal(size=(3, 4))])
        with pytest.raises(DistanceError):
            packed.pad_query(rng.normal(size=(4, 4)))


class TestHungarianBatch:
    @pytest.mark.parametrize("batch", [1, 16, 1024])
    def test_optimal_against_scratch_solver(self, rng, batch):
        """Every assignment of a stack is a permutation whose cost is the
        from-scratch Kuhn–Munkres optimum: literally on integer costs
        (exact arithmetic, heavy ties), to rounding on continuous ones."""
        for n in (1, 2, 5, 9):
            for costs, tolerance in (
                (rng.integers(0, 4, size=(batch, n, n)).astype(float), 0.0),
                (rng.uniform(size=(batch, n, n)), 1e-12),
            ):
                assignment = hungarian_batch(costs)
                assert assignment.shape == (batch, n)
                assert np.array_equal(
                    np.sort(assignment, axis=1), np.tile(np.arange(n), (batch, 1))
                )
                for cost, got in zip(costs, assignment):
                    assert assignment_cost(cost, got) == pytest.approx(
                        assignment_cost(cost, kuhn_munkres(cost)),
                        abs=tolerance,
                    )

    @given(tied_collections)
    @settings(max_examples=60, deadline=None)
    def test_distance_matches_scratch_solver(self, sets):
        """The kernel distance is `assignment_cost` of the independent
        Kuhn–Munkres's assignment on the same padded matrix — bit for bit,
        whichever optimum either solver's tie-breaking picked."""
        _check_against_scratch_solver(sets)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_distance_matches_scratch_solver_on_degenerate_corpus(self, seed):
        _check_against_scratch_solver(_degenerate_sets(seed))

    def test_degenerate_ties(self):
        costs = np.zeros((3, 4, 4))
        assignment = hungarian_batch(costs)
        for row in assignment:
            assert sorted(row) == [0, 1, 2, 3]

    def test_empty_batch(self):
        assert hungarian_batch(np.empty((0, 5, 5))).shape == (0, 5)

    def test_rejects_bad_shapes(self, rng):
        with pytest.raises(DistanceError):
            hungarian_batch(rng.uniform(size=(3, 4, 5)))
        with pytest.raises(DistanceError):
            hungarian_batch(rng.uniform(size=(4, 4)))

    def test_rejects_non_finite(self):
        costs = np.zeros((2, 3, 3))
        costs[1, 0, 0] = np.inf
        with pytest.raises(DistanceError):
            hungarian_batch(costs)


def gram_reference(x, x_sq, y, y_sq):
    """The query-to-batch cost stack as the Gram formula reads: the dots
    ``x_k . y_cl`` written query rows first, ``(||x||^2 + ||y||^2) - 2 x.y``
    clipped at zero, square-rooted."""
    dots = np.einsum("kd,cld->ckl", x, y)
    sq = x_sq[None, :, None] + y_sq[:, None, :] - 2.0 * dots
    return np.sqrt(np.maximum(sq, 0.0))


def _sequential_sum(terms):
    """Ascending terms added one after another, as a plain loop."""
    total = np.zeros(terms.shape[:-1])
    for j in range(terms.shape[-1]):
        total += terms[..., j]
    return total


def minima_reference(cost):
    """``max(sorted row-minima sum, sorted column-minima sum)``, each sum
    sequential in ascending order: the summation of the distance the
    bound must never exceed.  (``.sum(axis=1)`` regroups its terms from
    eight on, so at capacities of eight and more it is not that sum.)"""
    rows = np.sort(cost.min(axis=2), axis=1)
    columns = np.sort(cost.min(axis=1), axis=1)
    return np.maximum(_sequential_sum(rows), _sequential_sum(columns))


@given(
    seed=st.integers(0, 2**32 - 1),
    capacity=st.integers(1, 12),
    dim=st.integers(1, 8),
    offset=st.sampled_from([0.0, 1.0, 1e3, 1e6]),
    block=st.integers(1, 40),
)
def test_query_kernels_equal_their_formulas_bit_for_bit(
    seed, capacity, dim, offset, block
):
    """`query_costs` and `assignment_bounds` are the written formulas to
    the last bit on near-tie inputs: the cost stack is C-contiguous with
    the query's rows first, a set equal to the query costs exactly zero,
    and no row's costs depend on which rows share its batch."""
    rng = np.random.default_rng(seed)
    query = offset + rng.normal(size=(int(rng.integers(1, capacity + 1)), dim))
    omega = offset * rng.integers(0, 2) + rng.normal(size=dim)
    sets = near_ties(rng, query, capacity, offset, 60) + [query]
    packed = PackedSets.pack(sets, capacity=capacity, omega=omega)
    prepared = packed.pad_query(query)
    rows = rng.permutation(packed.n)
    costs = query_costs(prepared, packed, rows)

    expected = gram_reference(
        prepared.data, prepared.sq_norms, packed.data[rows], packed.sq_norms[rows]
    )
    assert costs.shape == (len(rows), capacity, capacity)
    assert costs.flags.c_contiguous
    assert np.array_equal(costs, expected)
    assert np.array_equal(assignment_bounds(costs), minima_reference(costs))

    selves = [
        position
        for position, row in enumerate(rows)
        if packed.sizes[row] == len(query) and np.array_equal(packed.data[row], prepared.data)
    ]
    assert selves  # the query itself is one of the sets
    for position in selves:
        assert (np.diagonal(costs[position]) == 0.0).all()
    assert (match_many(prepared, packed, rows[selves]) == 0.0).all()

    for start in range(0, len(rows), block):
        part = slice(start, start + block)
        assert np.array_equal(query_costs(prepared, packed, rows[part]), costs[part])
    alone = int(rng.integers(len(rows)))
    assert np.array_equal(
        query_costs(prepared, packed, rows[alone : alone + 1]), costs[alone : alone + 1]
    )


class TestMatchMany:
    def test_matches_per_pair(self, rng):
        sets = random_vector_sets(rng, 40, dim=6, max_size=7)
        packed = PackedSets.pack(sets, capacity=7)
        query = rng.normal(size=(3, 6))
        batch = match_many(query, packed)
        reference = np.array([min_matching_distance(query, s) for s in sets])
        assert np.allclose(batch, reference, atol=1e-9)

    def test_self_distance_exactly_zero(self, rng):
        """The engine's self-query guarantees hinge on exact zeros, which
        the einsum-only Gram kernel preserves (a BLAS matmul would not)."""
        sets = random_vector_sets(rng, 30, dim=6, max_size=7)
        packed = PackedSets.pack(sets, capacity=7)
        for i in (0, 13, 29):
            assert match_many(sets[i], packed)[i] == 0.0

    def test_indices_subset(self, rng):
        sets = random_vector_sets(rng, 20, dim=6, max_size=7)
        packed = PackedSets.pack(sets, capacity=7)
        query = rng.normal(size=(2, 6))
        subset = np.array([3, 17, 0])
        full = match_many(query, packed)
        assert np.array_equal(match_many(query, packed, indices=subset), full[subset])

    def test_prepared_query_reuse(self, rng):
        sets = random_vector_sets(rng, 10, dim=6, max_size=7)
        packed = PackedSets.pack(sets, capacity=7)
        query = rng.normal(size=(4, 6))
        prepared = packed.pad_query(query)
        assert np.array_equal(match_many(prepared, packed), match_many(query, packed))

    def test_flags_match_per_pair(self, rng):
        sets = random_vector_sets(rng, 25, dim=6, max_size=7)
        packed = PackedSets.pack(sets, capacity=7)
        query = sets[4]
        _, identity = match_many(query, packed, return_flags=True)
        reference = [min_matching_match(query, s).is_identity for s in sets]
        assert list(identity) == reference

    def test_all_virtual_matching_is_not_identity(self):
        """Opposite collinear singletons tie the identity pairing against
        the all-penalty matching (triangle equality); if the solver picks
        the all-virtual one, the flag must not be vacuously True."""
        x = np.array([[3.0, 4.0]])
        y = np.array([[-3.0, -4.0]])
        packed = PackedSets.pack([x, y], capacity=2)
        distances, identity = match_many(x, packed, return_flags=True)
        assert distances[1] == pytest.approx(10.0)
        assert bool(identity[0]) is True  # self-match is the identity
        assert bool(identity[1]) is False

    @given(set_collections)
    @settings(max_examples=40, deadline=None)
    def test_property_matches_per_pair_and_oracle(self, sets):
        """Ragged cardinalities, m<n swaps and k=1 all reduce to the same
        distances as the per-pair path and the independent oracle."""
        packed = PackedSets.pack(sets)
        query = sets[0]
        batch = match_many(query, packed)
        oracle = [definition_6(query, s) for s in sets]
        reference = np.array([min_matching_distance(query, s) for s in sets])
        assert np.allclose(batch, oracle, atol=1e-8)
        assert np.allclose(batch, reference, atol=1e-8)

    @given(st.one_of(cover_collections, tied_collections))
    @settings(max_examples=80, deadline=None)
    def test_definition_6_is_the_kernel_distance_bit_for_bit(self, sets):
        """`min_matching_distance` returns the very float `match_many`
        does, at the tightest capacity and at wider ones (twelve puts
        more than seven terms in every sum); only a true tie - an
        optimum of another matched-cost multiset - may round otherwise."""
        query = sets[0]
        largest = max(len(s) for s in sets)
        for capacity in (largest, largest + 2, 12):
            costs, matched, distances = _kernel_view(query, sets, capacity)
            for cost, kernel_costs, distance, other in zip(
                costs, matched, distances, sets
            ):
                result = min_matching_match(query, other)
                size = max(len(query), len(other))
                # The per-pair optimum's matched costs, read off the
                # kernel's padded matrix (query rows first; the last row
                # and column are virtual whenever the sizes differ).
                own = [cost[i, j] for i, j in result.pairs]
                if len(query) > len(other):
                    own += [cost[i, -1] for i in result.unmatched]
                else:
                    own += [cost[-1, j] for j in result.unmatched]
                own += [cost[-1, -1]] * (capacity - size)
                _assert_same_up_to_ties(
                    [result.distance], [np.sort(own)], [distance], [kernel_costs]
                )

    @given(tied_collections, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_property_row_order_is_invisible(self, sets, random):
        """A set has no row order: permuting the rows of the query and
        of every database set leaves each distance bitwise unchanged."""
        _check_row_order_invariance(
            sets, np.random.default_rng(random.getrandbits(32))
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_row_order_is_invisible_on_degenerate_corpus(self, seed):
        _check_row_order_invariance(
            _degenerate_sets(seed), np.random.default_rng(seed)
        )


class TestMatchPairs:
    def test_matches_per_pair(self, rng):
        sets = random_vector_sets(rng, 15, dim=6, max_size=7)
        packed = PackedSets.pack(sets, capacity=7)
        i_idx = np.array([0, 3, 14, 7])
        j_idx = np.array([1, 3, 2, 11])
        batch = match_pairs(packed, i_idx, j_idx)
        reference = [min_matching_distance(sets[i], sets[j]) for i, j in zip(i_idx, j_idx)]
        assert np.allclose(batch, reference, atol=1e-9)

    def test_cross_database(self, rng):
        left = random_vector_sets(rng, 5, dim=6, max_size=7)
        right = random_vector_sets(rng, 8, dim=6, max_size=7)
        packed_l = PackedSets.pack(left, capacity=7)
        packed_r = PackedSets.pack(right, capacity=7)
        batch = match_pairs(packed_l, np.array([0, 4]), np.array([7, 2]), right=packed_r)
        assert batch[0] == pytest.approx(min_matching_distance(left[0], right[7]))
        assert batch[1] == pytest.approx(min_matching_distance(left[4], right[2]))

    def test_rejects_incompatible_layouts(self, rng):
        packed_a = PackedSets.pack([rng.normal(size=(3, 6))], capacity=7)
        packed_b = PackedSets.pack([rng.normal(size=(3, 6))], capacity=5)
        with pytest.raises(DistanceError):
            match_pairs(packed_a, np.array([0]), np.array([0]), right=packed_b)

    def test_rejects_mismatched_index_arrays(self, rng):
        packed = PackedSets.pack([rng.normal(size=(3, 6))], capacity=7)
        with pytest.raises(DistanceError):
            match_pairs(packed, np.array([0, 0]), np.array([0]))


class TestPairwiseMatrix:
    def _reference(self, sets):
        n = len(sets)
        matrix = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                matrix[i, j] = matrix[j, i] = min_matching_distance(sets[i], sets[j])
        return matrix

    def test_matches_per_pair(self, rng):
        sets = random_vector_sets(rng, 30, dim=6, max_size=7)
        matrix = pairwise_matrix(sets, capacity=7)
        assert np.allclose(matrix, self._reference(sets), atol=1e-9)
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0.0)

    def test_capacity_is_invisible(self, rng):
        """Wider padding adds virtual-virtual pairs of cost zero; they
        must not move a single distance (sets of seven are summed past
        eight terms at capacity eleven)."""
        sets = random_vector_sets(rng, 60, dim=6, max_size=7)
        assert np.array_equal(
            pairwise_matrix(sets, capacity=7), pairwise_matrix(sets, capacity=11)
        )

    def test_chunking_is_invisible(self, rng):
        """100 sets are 4 950 pairs, two kernel calls: the matrix is what
        one call over every pair gives."""
        sets = random_vector_sets(rng, 100, dim=6, max_size=7)
        i_idx, j_idx = np.triu_indices(len(sets), k=1)
        assert len(i_idx) > DEFAULT_CHUNK_SIZE
        matrix = pairwise_matrix(sets)
        assert np.array_equal(
            matrix[i_idx, j_idx], match_pairs(PackedSets.pack(sets), i_idx, j_idx)
        )

    def test_parallel_equals_serial(self, rng):
        """Two workers take one share of the two kernel calls each."""
        sets = random_vector_sets(rng, 100, dim=6, max_size=7)
        assert np.array_equal(pairwise_matrix(sets), pairwise_matrix(sets, n_jobs=2))

    def test_parallel_flags_equal_serial(self, rng):
        sets = random_vector_sets(rng, 100, dim=6, max_size=7)
        serial, serial_flags = pairwise_matrix(sets, return_flags=True)
        parallel, parallel_flags = pairwise_matrix(sets, n_jobs=2, return_flags=True)
        assert np.array_equal(serial, parallel)
        assert np.array_equal(serial_flags, parallel_flags)

    def test_flags_match_per_pair(self, rng):
        sets = random_vector_sets(rng, 18, dim=6, max_size=7)
        _, flags = pairwise_matrix(sets, capacity=7, return_flags=True)
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                result = min_matching_match(sets[i], sets[j])
                assert flags[i, j] == (not result.is_identity)

    def test_singleton_sets(self, rng):
        """k=1: every 'matching' is a single Euclidean distance."""
        sets = [rng.normal(size=(1, 4)) for _ in range(8)]
        matrix = pairwise_matrix(sets)
        for i in range(8):
            for j in range(8):
                assert matrix[i, j] == pytest.approx(
                    np.linalg.norm(sets[i][0] - sets[j][0])
                )

    @given(set_collections)
    @settings(max_examples=30, deadline=None)
    def test_property_matches_per_pair_and_oracle(self, sets):
        assert np.allclose(pairwise_matrix(sets), self._reference(sets), atol=1e-8)
