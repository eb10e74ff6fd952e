"""Tests for filter-and-refine query processing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import PackedSets, assignment_bounds, match_many, query_costs
from repro.core.centroid import extended_centroid
from repro.core.min_matching import min_matching_distance
from repro.core.queries import FilterRefineEngine, QueryMatch
from repro.core.vector_set import VectorSet
from repro.exceptions import DistanceError, QueryError
from repro.index.arraycore import densify
from tests.conftest import random_vector_sets, ranked


@pytest.fixture
def engine(rng):
    sets = random_vector_sets(rng, 120, dim=6, max_size=7)
    return FilterRefineEngine(sets, capacity=7), sets


def combined_bounds(engine, query):
    """Every object's cascade bound, in row order, computed directly."""
    query = np.asarray(query, dtype=float)
    costs = query_costs(
        engine._packed.pad_query(query), engine._packed, np.arange(len(engine))
    )
    center = extended_centroid(query, engine.capacity, engine.omega)
    centroid = engine.capacity * np.linalg.norm(engine.centroids - center, axis=1)
    return np.maximum(centroid, assignment_bounds(costs))


def record_solve_blocks(engine):
    """Make *engine* log the size of every block it solves; returns the log."""
    blocks = []
    solve = engine._refine_many

    def refine_many(prepared, rows, costs=None):
        blocks.append(len(rows))
        return solve(prepared, rows, costs)

    engine._refine_many = refine_many
    return blocks


def near_ties(rng, query, capacity, offset, count):
    """Sets that nearly tie with *query*: identical sets, translated
    copies, repeated rows, ragged subsets and supersets, plus noise."""
    dim = query.shape[1]
    sets = []
    for kind in rng.integers(0, 6, size=count):
        size = int(rng.integers(1, capacity + 1))
        if kind == 0:
            member = query.copy()
        elif kind == 1:
            member = query + rng.normal(size=dim) * 10.0 ** int(rng.integers(-9, 1))
        elif kind == 2:
            member = np.repeat(query[rng.integers(len(query))][None], size, axis=0)
        elif kind == 3:
            rows = int(rng.integers(1, len(query) + 1))
            member = query[:rows] + 1e-9 * rng.normal(size=(rows, dim))
        elif kind == 4:
            member = np.vstack([query, offset + rng.normal(size=(size, dim))])
        else:
            member = offset + rng.normal(size=(size, dim))
        sets.append(member[:capacity])
    return sets


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    capacity=st.integers(1, 12),
    dim=st.integers(1, 6),
    offset=st.sampled_from([0.0, 1.0, 1e3, 1e6]),
    block=st.integers(1, 40),
)
def test_assignment_bound_never_exceeds_the_computed_distance(
    seed, capacity, dim, offset, block
):
    """The float contract of the cascade's bound (DESIGN.md): sorted
    minima, summed the way the kernel sums sorted matched costs, stay at
    or below the computed distance bit for bit on near-tie inputs, and a
    window's bounds and distances do not depend on how it is cut."""
    rng = np.random.default_rng(seed)
    query = offset + rng.normal(size=(int(rng.integers(1, capacity + 1)), dim))
    omega = offset * rng.integers(0, 2) + rng.normal(size=dim)
    packed = PackedSets.pack(
        near_ties(rng, query, capacity, offset, 60), capacity=capacity, omega=omega
    )
    prepared = packed.pad_query(query)
    rows = rng.permutation(packed.n)
    costs = query_costs(prepared, packed, rows)
    bounds = assignment_bounds(costs)
    for start in range(0, len(rows), block):
        part = slice(start, start + block)
        exacts = match_many(prepared, packed, rows[part], costs=costs[part])
        assert np.array_equal(exacts, match_many(prepared, packed, rows[part]))
        assert np.array_equal(assignment_bounds(costs[part]), bounds[part])
        assert (bounds[part] <= exacts).all(), (bounds[part] - exacts).max()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda eng, query: eng.knn_query(query, 3),
        lambda eng, query: eng.range_query(query, 5.0),
        lambda eng, query: eng.knn_sequential(query, 3),
        lambda eng, query: eng.knn_refine_subset(query, 3, [0, 1, 2]),
    ],
    ids=["knn", "range", "sequential", "refine-subset"],
)
def test_a_non_finite_query_fails_typed(engine, rng, call, bad):
    """A NaN or infinite query is refused before a centroid is ranked or
    a cost matrix built: a NaN centroid distance compares false against
    every radius, so the cascade would otherwise answer ``[]``."""
    eng, _ = engine
    query = rng.normal(size=(3, 6))
    query[1, 2] = bad
    with pytest.raises(QueryError, match="finite"):
        call(eng, query)


def reference_windows(pairs, capacity, windows):
    """The windows a candidate stream ranked as *pairs* (``(oid, distance)``
    in ascending order) yields for a sequence of ``(limit, radius)``
    requests, one candidate at a time, and its ``ranked`` count after
    them: the longest prefix of at most *limit* whose centroid bounds do
    not exceed *radius*; a candidate left past the radius before the
    limit counts as examined until a later window takes one."""
    start, rejected, out = 0, False, []
    for limit, radius in windows:
        end = start
        while (
            end < len(pairs)
            and end - start < limit
            and capacity * pairs[end][1] <= radius
        ):
            end += 1
        if end > start:
            rejected = False
        rejected |= end - start < limit and end < len(pairs)
        out.append(pairs[start:end])
        start = end
    return out, start + rejected


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 500),
    dim=st.integers(1, 8),
    style=st.sampled_from(["grid", "coarse", "float", "one point"]),
    capacity=st.integers(1, 5),
    data=st.data(),
)
def test_the_column_cut_is_the_packed_ranking(seed, n, dim, style, capacity, data):
    """Windows cut from the centroid column, concatenated, are a fresh
    STR pack's ``ranking_chunks`` bit for bit — oids, order and
    distances — and ``ranked`` counts what the one-at-a-time stream
    would have examined, for any sequence of windows.  Duplicate
    centroids and equal distances tie by oid; a radius drawn from the
    bounds themselves lands exactly on a tie."""
    rng = np.random.default_rng(seed)
    if style == "grid":
        points = rng.integers(-3, 4, size=(n, dim)).astype(float)
    elif style == "coarse":
        points = rng.integers(-1, 2, size=(n, dim)) * 0.1
    elif style == "float":
        points = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-3, 4)
    else:
        points = np.repeat(rng.normal(size=(1, dim)), n, axis=0)
    oids = rng.choice(np.arange(-n, 3 * n), size=n, replace=False)
    eng = FilterRefineEngine(
        [p[None, :] for p in points], capacity=capacity, oids=oids, centroids=points
    )
    center = points[rng.integers(n)] + rng.integers(-1, 2, size=dim) * 0.5
    want = ranked(densify(points, oids, capacity=4), center)
    bounds = [capacity * dist for _, dist in want]
    # The cascade's first window: a partition of the whole column.
    windows = [(data.draw(st.integers(1, n), label="first limit"), np.inf)]
    windows += data.draw(
        st.lists(
            st.tuples(
                st.one_of(st.integers(1, n + 2), st.just(np.inf)),
                st.one_of(
                    st.just(np.inf),
                    st.floats(0, 50, allow_nan=False),
                    st.sampled_from(bounds),
                ),
            ),
            max_size=8,
        ),
        label="windows",
    )
    # A cascade's later window: everything within a radius that lands on
    # a bound, usually leaving a candidate past it.
    windows.append((np.inf, data.draw(st.sampled_from(bounds), label="last radius")))
    stream = eng._candidates(center)
    got = []
    for limit, radius in windows:
        rows, window_bounds = stream.take(limit, radius)
        assert window_bounds.tolist() == [capacity * d for d in stream._dists[rows]]
        got.append(list(zip(eng.oids[rows].tolist(), stream._dists[rows].tolist())))
    expected, examined = reference_windows(want, capacity, windows)
    assert got == expected
    assert stream.ranked == examined
    rows, _ = stream.take(np.inf, np.inf)
    tail = list(zip(eng.oids[rows].tolist(), stream._dists[rows].tolist()))
    assert [pair for window in got for pair in window] + tail == want


class TestKnn:
    def test_filter_equals_sequential(self, engine, rng):
        eng, sets = engine
        for _ in range(5):
            query = rng.normal(size=(rng.integers(1, 8), 6))
            filtered, _ = eng.knn_query(query, 7)
            sequential, _ = eng.knn_sequential(query, 7)
            assert [m.object_id for m in filtered] == [m.object_id for m in sequential]
            assert [m.distance for m in filtered] == pytest.approx(
                [m.distance for m in sequential]
            )

    def test_knn_distances_sorted(self, engine, rng):
        eng, _ = engine
        results, _ = eng.knn_query(rng.normal(size=(3, 6)), 10)
        distances = [m.distance for m in results]
        assert distances == sorted(distances)

    def test_self_query_returns_self_first(self, engine):
        eng, sets = engine
        results, _ = eng.knn_query(sets[42], 1)
        assert results[0].object_id == 42
        assert results[0].distance == pytest.approx(0.0)

    def test_pruning_happens(self, rng):
        """Clustered data must let the centroid filter skip refinements."""
        # Two well-separated clusters of sets.
        cluster_a = [rng.normal(size=(3, 6)) * 0.1 for _ in range(50)]
        cluster_b = [rng.normal(size=(3, 6)) * 0.1 + 100.0 for _ in range(50)]
        eng = FilterRefineEngine(cluster_a + cluster_b, capacity=7)
        _, stats = eng.knn_query(cluster_a[0], 5)
        assert stats.exact_computations < 100
        assert stats.pruned > 0

    def test_k_larger_than_database(self, engine, rng):
        eng, sets = engine
        results, _ = eng.knn_query(rng.normal(size=(2, 6)), len(sets) + 50)
        assert len(results) == len(sets)

    def test_invalid_k_rejected(self, engine, rng):
        eng, _ = engine
        with pytest.raises(QueryError):
            eng.knn_query(rng.normal(size=(2, 6)), 0)


class TestRange:
    def test_range_results_complete_and_correct(self, engine, rng):
        eng, sets = engine
        query = rng.normal(size=(4, 6))
        epsilon = 4.0
        results, _ = eng.range_query(query, epsilon)
        brute = {
            i
            for i, s in enumerate(sets)
            if min_matching_distance(query, s) <= epsilon
        }
        assert {m.object_id for m in results} == brute

    def test_zero_epsilon_finds_exact_copy(self, engine):
        eng, sets = engine
        results, _ = eng.range_query(sets[7], 1e-9)
        assert 7 in {m.object_id for m in results}

    def test_negative_epsilon_rejected(self, engine, rng):
        eng, _ = engine
        with pytest.raises(QueryError):
            eng.range_query(rng.normal(size=(2, 6)), -1.0)


class TestBlockedRefinement:
    """The blocked batch refinement must be invisible in the results."""

    def test_block_sizes_agree(self, engine, rng):
        eng, sets = engine
        for block_size in (1, 3, 16, 64, 1000):
            other = FilterRefineEngine(sets, capacity=7, block_size=block_size)
            for qi in (0, 42):
                expected, _ = eng.knn_query(sets[qi], 6)
                got, _ = other.knn_query(sets[qi], 6)
                assert [m.object_id for m in got] == [m.object_id for m in expected]
                assert [m.distance for m in got] == [m.distance for m in expected]

    def test_refines_exactly_what_the_bounds_admit(self, engine, rng):
        """The cascade's optimality, against brute force: every object
        whose combined bound does not exceed the final k-th distance is
        solved, and every other solve is counted as overshoot."""
        eng, sets = engine
        queries = [rng.normal(size=(rng.integers(1, 8), 6)) for _ in range(4)]
        queries += [sets[3], sets[77] + 0.01]
        for block_size in (1, 3, 16, 64, 1000):
            other = FilterRefineEngine(sets, capacity=7, block_size=block_size)
            for query in queries:
                for k in (1, 5, 40):
                    results, stats = other.knn_query(query, k)
                    expected, _ = eng.knn_sequential(query, k)
                    assert results == expected
                    kth = results[-1].distance
                    bounds = combined_bounds(other, query)
                    admitted = int((bounds <= kth).sum())
                    assert stats.exact_computations - stats.extra_refinements == admitted
                    assert stats.pruned == len(sets) - stats.exact_computations
                    assert (
                        stats.exact_computations + stats.bound_pruned
                        <= stats.candidates_ranked
                    )

    def test_block_size_one_is_strictly_sequential(self, engine, rng):
        """At block_size 1 every solve is a block of its own."""
        eng, sets = engine
        sequential = FilterRefineEngine(sets, capacity=7, block_size=1)
        blocks = record_solve_blocks(sequential)
        for _ in range(5):
            query = rng.normal(size=(rng.integers(1, 8), 6))
            blocks.clear()
            results, stats = sequential.knn_query(query, 5)
            assert results == eng.knn_sequential(query, 5)[0]
            assert blocks == [1] * stats.exact_computations

    def test_extra_refinements_bounded_by_block(self, engine, rng):
        """No solve block exceeds block_size, and everything blocking
        solves beyond block_size 1 is counted as overshoot."""
        _, sets = engine
        blocked = FilterRefineEngine(sets, capacity=7)
        sequential = FilterRefineEngine(sets, capacity=7, block_size=1)
        blocks = record_solve_blocks(blocked)
        for _ in range(5):
            query = rng.normal(size=(rng.integers(1, 8), 6))
            blocks.clear()
            _, blocked_stats = blocked.knn_query(query, 5)
            _, seq_stats = sequential.knn_query(query, 5)
            assert max(blocks) <= blocked.block_size
            assert sum(blocks) == blocked_stats.exact_computations
            assert 0 <= blocked_stats.extra_refinements <= blocked_stats.exact_computations
            assert (
                blocked_stats.exact_computations - blocked_stats.extra_refinements
                == seq_stats.exact_computations - seq_stats.extra_refinements
            )

    def test_range_solves_only_what_the_bounds_admit(self, engine, rng):
        eng, sets = engine
        query = rng.normal(size=(4, 6))
        bounds = combined_bounds(eng, query)
        for epsilon in (0.0, 3.0, 6.0, np.inf):
            _, stats = eng.range_query(query, epsilon)
            assert stats.exact_computations == int((bounds <= epsilon).sum())
            assert stats.extra_refinements == 0

    @pytest.mark.parametrize("chunk", [1, 2, 5, 33])
    def test_stats_do_not_depend_on_chunking(self, engine, rng, chunk):
        """Windows are cut from the centroid column, so a stream taken in
        windows of *chunk* candidates yields the pack's ranking, with the
        same bounds and the same ``ranked`` count as one taken at once —
        with no radius and with one that ends the stream early."""
        eng, _ = engine
        for _ in range(3):
            query = rng.normal(size=(rng.integers(1, 8), 6))
            center = extended_centroid(query, eng.capacity, eng.omega)
            want = ranked(densify(eng.centroids, eng.oids, capacity=4), center)
            for radius in (np.inf, eng.capacity * want[len(want) // 2][1]):
                within = [pair for pair in want if eng.capacity * pair[1] <= radius]
                whole = eng._candidates(center)
                whole.take(np.inf, radius)
                stream, got = eng._candidates(center), []
                while True:
                    rows, bounds = stream.take(chunk, radius)
                    dists = stream._dists[rows]
                    assert bounds.tolist() == [eng.capacity * d for d in dists]
                    got += zip(eng.oids[rows].tolist(), dists.tolist())
                    if len(rows) < chunk:
                        break
                assert got == within
                assert stream.ranked == whole.ranked
                assert stream.ranked == len(within) + (len(within) < len(want))

    def test_matches_per_pair_refinement(self, engine, rng):
        """The batched engine agrees with a brute-force scan of the
        per-pair reference, ``min_matching_distance``, to the bit: one
        solver and one summation behind both."""
        eng, sets = engine
        query = rng.normal(size=(4, 6))
        reference = sorted(
            (min_matching_distance(query, s), oid) for oid, s in enumerate(sets)
        )
        batched, _ = eng.knn_query(query, 8)
        assert [m.object_id for m in batched] == [oid for _, oid in reference[:8]]
        assert [m.distance for m in batched] == [dist for dist, _ in reference[:8]]
        batched_range, _ = eng.range_query(query, 4.0)
        assert [m.object_id for m in batched_range] == [
            oid for dist, oid in reference if dist <= 4.0
        ]

    def test_invalid_block_size_rejected(self, rng):
        with pytest.raises(QueryError):
            FilterRefineEngine([rng.normal(size=(2, 6))], capacity=7, block_size=0)


class TestConstruction:
    def test_empty_database_rejected(self):
        with pytest.raises(QueryError):
            FilterRefineEngine([], capacity=7)

    def test_oversized_set_rejected(self, rng):
        with pytest.raises(QueryError):
            FilterRefineEngine([rng.normal(size=(9, 6))], capacity=7)

    def test_inconsistent_dimensions_rejected(self, rng):
        with pytest.raises(QueryError):
            FilterRefineEngine(
                [rng.normal(size=(2, 6)), rng.normal(size=(2, 5))], capacity=7
            )

    def test_vector_set_inputs(self, rng):
        sets = [VectorSet(rng.normal(size=(3, 6)), capacity=7) for _ in range(10)]
        eng = FilterRefineEngine(sets, capacity=7)
        results, _ = eng.knn_query(sets[0], 3)
        assert results[0].object_id == 0

    def test_custom_ranker_is_used(self, engine, rng):
        """The ranker is the engine's centroid column, and a column the
        caller supplies (``centroids=``, as an opened database passes its
        stored centroids) is the one ranked: the computed column handed
        back answers with the same results and stats, and a column with
        one row moved onto the query's centroid ranks that row first."""
        eng, sets = engine
        query = rng.normal(size=(3, 6))
        given = FilterRefineEngine(sets, capacity=7, centroids=eng.centroids)
        assert given.knn_query(query, 5) == eng.knn_query(query, 5)
        assert given.range_query(query, 9.0) == eng.range_query(query, 9.0)
        center = extended_centroid(query, eng.capacity, eng.omega)
        moved = eng.centroids.copy()
        moved[17] = center
        stream = FilterRefineEngine(sets, capacity=7, centroids=moved)._candidates(
            center
        )
        rows, bounds = stream.take(1, np.inf)
        assert eng.oids[rows].tolist() == [17]
        assert bounds.tolist() == [0.0]

    def test_unknown_oid_chunk_rejected(self, engine, rng):
        eng, sets = engine
        query = rng.normal(size=(3, 6))
        with pytest.raises(QueryError, match="unknown object id -1"):
            eng.knn_refine_subset(query, 5, [0, -1])

    def test_repeated_oids_rejected_before_a_solve(self, engine, rng):
        """A repeated oid would be solved, and answered, twice."""
        eng, _ = engine
        blocks = record_solve_blocks(eng)
        with pytest.raises(QueryError, match="unique"):
            eng.knn_refine_subset(rng.normal(size=(3, 6)), 3, [0, 0, 1, 2])
        assert blocks == []

    def test_unsorted_oids_answer_like_sorted(self, rng):
        sets = random_vector_sets(rng, 60, dim=6, max_size=7)
        oids = (rng.permutation(60) * 3 + 11).tolist()
        by_oid = sorted(zip(oids, sets), key=lambda pair: pair[0])
        shuffled = FilterRefineEngine(sets, capacity=7, oids=oids)
        ordered = FilterRefineEngine(
            [s for _, s in by_oid], capacity=7, oids=[o for o, _ in by_oid]
        )
        subset = sorted(oids)[::4]
        for _ in range(4):
            query = rng.normal(size=(rng.integers(1, 8), 6))
            assert shuffled.knn_query(query, 6) == ordered.knn_query(query, 6)
            assert shuffled.range_query(query, 8.0) == ordered.range_query(query, 8.0)
            assert shuffled.knn_sequential(query, 6) == ordered.knn_sequential(query, 6)
            assert shuffled.knn_refine_subset(
                query, 6, subset
            ) == ordered.knn_refine_subset(query, 6, subset)


def fresh_like(engine, contents):
    """A from-scratch engine over ``{oid: set}`` in ascending-oid order."""
    oids = sorted(contents)
    return FilterRefineEngine(
        [contents[oid] for oid in oids],
        capacity=engine.capacity,
        omega=engine.omega,
        block_size=engine.block_size,
        oids=oids,
    )


class TestMaintainedInPlace:
    """add / replace / remove keep the packing equal to a fresh build."""

    @pytest.mark.parametrize("dim", [1, 3, 6, 7])
    def test_every_step_equals_a_fresh_build(self, rng, dim):
        omega = rng.normal(size=dim)
        contents = {3 * i + 11: rng.normal(size=(int(rng.integers(1, 6)), dim)) for i in range(3)}
        engine = FilterRefineEngine(
            list(contents.values()), capacity=5, omega=omega, oids=list(contents)
        )
        buffer_rows = [len(engine._oid_buf)]
        swaps = 0
        next_oid = 100
        for step in range(60):
            live = sorted(contents)
            if step % 4 == 3 and len(live) > 1:
                # Oldest object: never the last row, so the last row moves.
                victim = live[0]
                swaps += engine._row_of[victim] != len(engine) - 1
                engine.remove(victim)
                del contents[victim]
            elif step % 4 == 2:
                # Alternate shrinking and growing rewrites of one object.
                target = live[step % len(live)]
                rows = 1 if step % 8 == 2 else 5
                contents[target] = rng.normal(size=(rows, dim))
                engine.replace(target, contents[target])
            else:
                contents[next_oid] = rng.normal(size=(int(rng.integers(1, 6)), dim))
                engine.add(next_oid, contents[next_oid])
                next_oid += 7
            buffer_rows.append(len(engine._oid_buf))
            fresh = fresh_like(engine, contents)
            assert len(engine) == len(contents)
            assert engine.digest() == fresh.digest(), step
            query = rng.normal(size=(int(rng.integers(1, 6)), dim))
            assert engine.knn_query(query, 4) == fresh.knn_query(query, 4)
            assert engine.range_query(query, 6.0) == fresh.range_query(query, 6.0)
            assert engine.knn_sequential(query, 4) == fresh.knn_sequential(query, 4)
            subset = sorted(contents)[::2]
            assert engine.knn_refine_subset(query, 3, subset) == fresh.knn_refine_subset(
                query, 3, subset
            )
        assert len(set(buffer_rows)) >= 3, "the buffers never grew"
        assert swaps, "no removal ever moved the last row"

    def test_shrinking_replace_repads_with_omega(self, rng):
        omega = np.full(4, 9.0)
        engine = FilterRefineEngine([rng.normal(size=(3, 4))], capacity=3, omega=omega)
        engine.replace(0, np.ones((1, 4)))
        assert np.array_equal(engine._packed.data[0, 1:], np.tile(omega, (2, 1)))
        assert engine._packed.sizes[0] == 1

    def test_stored_centroids_are_trusted(self, rng):
        sets = random_vector_sets(rng, 5, dim=4, max_size=3)
        marked = np.full((5, 4), 42.0)
        engine = FilterRefineEngine(sets, capacity=3, centroids=marked)
        assert np.array_equal(engine.centroids, marked)
        marked[0] = 0.0  # the engine keeps its own copy
        assert engine.centroids[0, 0] == 42.0
        engine.add(9, sets[0], centroid=np.full(4, 7.0))
        assert np.array_equal(engine.centroids[-1], np.full(4, 7.0))
        with pytest.raises(QueryError):
            FilterRefineEngine(sets, capacity=3, centroids=marked[:4])
        with pytest.raises(QueryError):
            engine.add(10, sets[0], centroid=np.zeros(3))

    def test_adopts_a_packed_tensor(self, rng):
        from repro.core.batch import PackedSets

        sets = random_vector_sets(rng, 12, dim=4, max_size=3)
        omega = rng.normal(size=4)
        packed = PackedSets.pack(sets, capacity=3, omega=omega)
        engine = FilterRefineEngine(packed, capacity=3)
        assert engine._packed is packed
        assert engine.digest() == FilterRefineEngine(sets, 3, omega=omega).digest()
        with pytest.raises(QueryError):
            FilterRefineEngine(packed, capacity=4)
        with pytest.raises(QueryError):
            FilterRefineEngine(packed, capacity=3, omega=np.zeros(4))

    def test_invalid_mutations_rejected(self, rng):
        engine = FilterRefineEngine([rng.normal(size=(2, 4))], capacity=3, oids=[5])
        before = engine.digest()
        with pytest.raises(QueryError, match="already present"):
            engine.add(5, rng.normal(size=(1, 4)))
        with pytest.raises(QueryError, match="no object with id 6"):
            engine.replace(6, rng.normal(size=(1, 4)))
        with pytest.raises(QueryError, match="no object with id 6"):
            engine.remove(6)
        with pytest.raises(QueryError, match="only object"):
            engine.remove(5)
        for bad in (rng.normal(size=(4, 4)), rng.normal(size=(2, 3)), np.empty((0, 4))):
            with pytest.raises(QueryError):
                engine.add(7, bad)
            with pytest.raises(QueryError):
                engine.replace(5, bad)
        assert engine.digest() == before

    def test_rejected_add_at_a_full_buffer_leaves_the_engine_usable(self, rng):
        """A rejection where the buffers would have doubled must not
        detach the live view from the buffers later writes go to."""
        contents = {oid: rng.normal(size=(2, 4)) for oid in (5, 6)}
        engine = FilterRefineEngine(list(contents.values()), capacity=3, oids=[5, 6])
        assert len(engine) == len(engine._oid_buf)
        with pytest.raises(QueryError):
            engine.add(7, contents[5], centroid=np.zeros(3))
        contents[6] = rng.normal(size=(1, 4))
        engine.replace(6, contents[6])
        assert engine.digest() == fresh_like(engine, contents).digest()
        (match,), _ = engine.knn_query(contents[6], 1)
        assert (match.object_id, match.distance) == (6, 0.0)

    def test_default_ranker_breaks_centroid_ties_by_oid(self):
        """Row order is arbitrary after removals, so the built-in scan
        ranks by (centroid distance, oid) — stats cannot depend on it."""
        same = np.ones((1, 2))
        engine = FilterRefineEngine([same] * 6, capacity=1, oids=[60, 10, 50, 20, 40, 30])
        engine.remove(60)  # row 0 now holds oid 30
        results, stats = engine.knn_query(same, 2)
        assert [m.object_id for m in results] == [10, 20]
        fresh = FilterRefineEngine([same] * 5, capacity=1, oids=[10, 20, 30, 40, 50])
        assert fresh.knn_query(same, 2) == (results, stats)
