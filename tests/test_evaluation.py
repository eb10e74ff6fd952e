"""Smoke tests of the experiment drivers (reduced scale, no cache)."""

import numpy as np
import pytest

from repro.evaluation.experiments import (
    DatasetBundle,
    distance_matrix_for,
    extract_features,
    model_resolution,
    paper_model,
    prepare_dataset,
)
from repro.evaluation.report import format_table
from repro.evaluation.table2 import Table2Row, run_table2
from repro.exceptions import ReproError


@pytest.fixture(scope="module")
def tiny_cache(tmp_path_factory):
    """Isolated cache directory so tests never touch the repo cache."""
    import os

    path = tmp_path_factory.mktemp("cache")
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(path)
    yield path
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old


@pytest.fixture(scope="module")
def tiny_aircraft(tiny_cache):
    return prepare_dataset("aircraft", resolution=15, n=40, seed=11)


class TestPreparation:
    def test_bundle_shape(self, tiny_aircraft):
        assert tiny_aircraft.n == 40
        assert len(tiny_aircraft.labels) == 40
        assert all(not g.is_empty() for g in tiny_aircraft.grids())

    def test_cache_roundtrip(self, tiny_cache):
        first = prepare_dataset("aircraft", resolution=15, n=25, seed=13)
        second = prepare_dataset("aircraft", resolution=15, n=25, seed=13)
        assert np.array_equal(first.labels, second.labels)
        assert all(
            np.array_equal(a.grid.occupancy, b.grid.occupancy)
            for a, b in zip(first.objects, second.objects)
        )

    def test_truncated_cache_is_regenerated(self, tiny_cache):
        """A cache entry cut short by a killed writer is a miss: the
        bundle is regenerated equal and the entry rewritten whole."""
        first = prepare_dataset("aircraft", resolution=15, n=12, seed=17)
        (path,) = tiny_cache.glob("grids_aircraft_r15_n12_s17.npz")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        second = prepare_dataset("aircraft", resolution=15, n=12, seed=17)
        assert np.array_equal(first.labels, second.labels)
        assert [o.name for o in first.objects] == [o.name for o in second.objects]
        assert all(
            np.array_equal(a.grid.occupancy, b.grid.occupancy)
            for a, b in zip(first.objects, second.objects)
        )
        with np.load(path) as data:
            assert np.array_equal(data["labels"], first.labels)
        assert not list(tiny_cache.glob("*.tmp"))

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ReproError):
            prepare_dataset("submarine")

    def test_paper_model_configs(self):
        assert paper_model("volume").partitions == 5
        assert paper_model("vector-set", k=5).k == 5
        assert model_resolution("volume") == 30
        assert model_resolution("vector-set") == 15
        with pytest.raises(ReproError):
            paper_model("hologram")


class TestFeatureExtraction:
    def test_features_cached(self, tiny_aircraft, tiny_cache):
        model = paper_model("vector-set", k=3)
        first = extract_features(tiny_aircraft, model)
        second = extract_features(tiny_aircraft, model)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_distance_matrix_kinds(self, tiny_aircraft):
        model = paper_model("vector-set", k=3)
        features = extract_features(tiny_aircraft, model)
        matching, flags = distance_matrix_for(features, "matching")
        assert matching.shape == (40, 40)
        assert np.allclose(matching, matching.T)
        assert flags is not None and flags.dtype == bool
        permutation, _ = distance_matrix_for(features, "permutation")
        assert np.all(permutation >= 0)
        with pytest.raises(ReproError):
            distance_matrix_for(features, "telepathy")

    def test_matrix_cache_is_keyed_by_features_and_kind(self, tiny_cache, rng):
        """A cached matrix is served only for the features and the kind
        it was computed from: under the same tag, other features or
        another kind are a miss."""
        sets = [rng.normal(size=(int(rng.integers(1, 5)), 6)) for _ in range(6)]
        matching, _ = distance_matrix_for(sets, "matching", cache_tag="keyed")
        hit, _ = distance_matrix_for(sets, "matching", cache_tag="keyed")
        assert np.array_equal(hit, matching)
        scaled = [2.0 * s for s in sets]
        fresh, _ = distance_matrix_for(scaled, "matching", cache_tag="keyed")
        assert not np.array_equal(fresh, matching)
        assert np.array_equal(fresh, distance_matrix_for(scaled, "matching")[0])
        permutation, flags = distance_matrix_for(sets, "permutation", cache_tag="keyed")
        assert flags is None
        assert np.array_equal(permutation, distance_matrix_for(sets, "permutation")[0])
        assert len(list(tiny_cache.glob("dist_keyed_*.npz"))) == 3

    def test_euclidean_matrix_on_flat_features(self, tiny_aircraft):
        model = paper_model("cover", k=3)
        features = extract_features(tiny_aircraft, model)
        matrix, flags = distance_matrix_for(features, "euclidean")
        assert flags is None
        manual = np.linalg.norm(features[0] - features[1])
        assert matrix[0, 1] == pytest.approx(manual)


class TestTable2Driver:
    def test_reduced_run_is_consistent(self, tiny_cache):
        rows, consistent = run_table2(
            n_queries=2, variants=4, n=40, use_cache=True
        )
        assert consistent
        assert [r.method for r in rows] == [
            "1-Vect. (X-tree)",
            "Vect. Set w. filter",
            "Vect. Set seq. scan",
        ]
        scan = rows[2]
        assert scan.exact_computations == 2 * 4 * 40
        filter_row = rows[1]
        assert filter_row.exact_computations < scan.exact_computations

    def test_total_is_cpu_plus_io(self):
        row = Table2Row("x", cpu_seconds=1.0, io_seconds=2.0, page_accesses=0, bytes_read=0, exact_computations=0)
        assert row.total_seconds == pytest.approx(3.0)


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"], [["alpha", 1.2345], ["b", 100.0]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "-+-" in lines[2]  # separator under the header
        assert "alpha" in lines[3]
        assert all("|" in line for line in lines[1:] if "-+-" not in line)
