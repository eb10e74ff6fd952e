"""Tests for the Table 1/Table 2 experiment drivers at toy scale."""

import numpy as np
import pytest

from repro.evaluation.table1 import permutation_rate_for_k, run_table1
from repro.evaluation.table2 import (
    _query_variants,
    run_one_vector_xtree,
    run_vector_set_filter,
    run_vector_set_scan,
)
from repro.exceptions import ReproError
from tests.conftest import random_vector_sets


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


class TestTable1Driver:
    def test_rates_in_unit_interval(self):
        rows = run_table1(ks=(2, 3), dataset="aircraft")
        # (Car would be slower; any dataset exercises the driver.)
        for row in rows:
            assert 0.0 <= row.permutation_rate <= 1.0
            assert row.mean_set_size <= row.covers
            assert row.pairs_counted > 0

    def test_set_size_grows_with_k(self):
        import os

        os.environ["REPRO_AIRCRAFT_N"] = "30"
        try:
            from repro.evaluation.experiments import prepare_dataset

            bundle = prepare_dataset("aircraft", resolution=15, n=30)
            small = permutation_rate_for_k(bundle, 2)
            large = permutation_rate_for_k(bundle, 6)
            assert large.mean_set_size >= small.mean_set_size
        finally:
            os.environ.pop("REPRO_AIRCRAFT_N", None)


class TestQueryVariants:
    def test_variant_counts(self, rng):
        query = rng.normal(size=(3, 6))
        assert len(_query_variants(query, 1)) == 1
        assert len(_query_variants(query, 48)) == 48
        with pytest.raises(ReproError):
            _query_variants(query, 0)
        with pytest.raises(ReproError):
            _query_variants(query, 49)

    def test_first_variant_is_identity(self, rng):
        query = rng.normal(size=(2, 6))
        first = _query_variants(query, 1)[0]
        assert np.allclose(first, query)


class TestMethodConsistency:
    def test_all_three_methods_agree_on_identity_queries(self, rng):
        """For variants=1 all three methods rank by the same distance,
        so their result distance profiles must coincide - literally: the
        filter leg's kernel and the scan leg's `min_matching_distance`
        share one solver and one summation."""
        sets = random_vector_sets(rng, 50)
        k = 7
        padded = np.vstack(
            [
                np.vstack([s, np.zeros((k - len(s), 6))]).reshape(-1)
                for s in sets
            ]
        )
        queries = [0, 13, 37]
        _, filter_results = run_vector_set_filter(sets, queries, k, 5, 1)
        _, scan_results = run_vector_set_scan(sets, queries, 5, 1)
        for a, b in zip(filter_results, scan_results):
            assert [d for _, d in a] == [d for _, d in b]

        # The one-vector method ranks by a DIFFERENT distance (padded
        # Euclidean) but must still find the query object itself first.
        _, onevec_results = run_one_vector_xtree(padded, queries, sets, k, 5, 1)
        for query_id, result in zip(queries, onevec_results):
            assert result[0][0] == query_id
            assert result[0][1] == pytest.approx(0.0)
