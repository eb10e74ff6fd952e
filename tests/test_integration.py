"""End-to-end integration tests across subsystem boundaries."""

import numpy as np
import pytest

from repro.clustering.optics import distance_rows_from_matrix, optics
from repro.clustering.quality import best_cut_quality
from repro.core.batch import pairwise_matrix
from repro.core.queries import FilterRefineEngine
from repro.datasets.car import make_car_dataset
from repro.features.vector_set_model import VectorSetModel
from repro.pipeline import Pipeline


@pytest.fixture(scope="module")
def small_car_database():
    """A reduced Car dataset processed through the full pipeline."""
    parts, labels = make_car_dataset(
        class_counts={"tire": 8, "door": 8, "engine_block": 8, "bracket": 8},
        n_noise=4,
        seed=99,
    )
    pipeline = Pipeline(resolution=15)
    objects = pipeline.process_parts(parts)
    model = VectorSetModel(k=7)
    sets = [model.extract(obj.grid) for obj in objects]
    return objects, sets, labels


class TestEndToEnd:
    def test_knn_retrieves_same_family(self, small_car_database):
        """The headline behaviour: a part's nearest neighbors are its
        family members."""
        objects, sets, labels = small_car_database
        engine = FilterRefineEngine(sets, capacity=7)
        hits = 0
        for query_id in range(0, 8):  # the tires
            results, _ = engine.knn_query(sets[query_id], 4)
            neighbor_families = [
                objects[m.object_id].family
                for m in results
                if m.object_id != query_id
            ]
            hits += sum(f == objects[query_id].family for f in neighbor_families)
        assert hits >= 16  # most neighbors are tires too

    def test_optics_recovers_families(self, small_car_database):
        objects, sets, labels = small_car_database
        matrix = pairwise_matrix(sets)
        ordering = optics(len(sets), distance_rows_from_matrix(matrix), min_pts=3)
        ari, _ = best_cut_quality(ordering, labels)
        assert ari > 0.5

    def test_range_query_self_retrieval(self, small_car_database):
        _, sets, _ = small_car_database
        engine = FilterRefineEngine(sets, capacity=7)
        results, stats = engine.range_query(sets[10], 1e-9)
        assert 10 in {m.object_id for m in results}
        assert stats.exact_computations <= len(sets)

    def test_database_save_load_preserves_queries(
        self, small_car_database, tmp_path
    ):
        from repro.db import SimilarityDatabase

        objects, sets, labels = small_car_database
        db = SimilarityDatabase(7)
        for oid, (obj, vectors) in enumerate(zip(objects, sets)):
            db.add(oid, vectors, {"name": obj.name, "family": obj.family})
        path = tmp_path / "car.npz"
        db.save(path)
        loaded = SimilarityDatabase.load(path)
        assert [loaded.payload(oid)["name"] for oid in range(len(objects))] == [
            obj.name for obj in objects
        ]
        engine = FilterRefineEngine(sets, capacity=7)
        expected, _ = engine.knn_query(sets[5], 3)
        answer, _ = loaded.knn_query(loaded.get(5), 3)
        assert [(m.object_id, m.distance) for m in answer] == [
            (m.object_id, m.distance) for m in expected
        ]
