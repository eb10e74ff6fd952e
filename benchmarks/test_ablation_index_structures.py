"""Ablation: access structures for vector set queries.

Section 4.3 names two routes: a metric index (M-tree) directly on the
vector sets, or the centroid filter over a spatial index.  This
benchmark pits them (plus the incremental spatial index against the STR
pack the database ranks with) against each other on the same 10-nn
workload, counting the dominant cost of each: exact matching-distance
evaluations.
"""

import numpy as np

from repro.core.min_matching import min_matching_distance
from repro.core.queries import FilterRefineEngine
from repro.evaluation.experiments import extract_features, prepare_dataset
from repro.evaluation.report import format_table
from repro.features.vector_set_model import VectorSetModel
from repro.index.arraycore import densify
from repro.index.mtree import MTree
from repro.index.rstar import RStarTree


def test_access_structure_comparison(benchmark):
    bundle = prepare_dataset("car", resolution=15)
    sets = [np.asarray(s) for s in extract_features(bundle, VectorSetModel(k=7))]
    queries = list(range(0, len(sets), 10))

    def run_all():
        results = {}

        # Centroid filter (the paper's choice).
        engine = FilterRefineEngine(sets, capacity=7)
        refined = []
        answers = {}
        for query_id in queries:
            matches, stats = engine.knn_query(sets[query_id], 10)
            refined.append(stats.exact_computations)
            answers[query_id] = sorted(round(m.distance, 9) for m in matches)
        results["centroid filter + scan ranking"] = float(np.mean(refined))

        # M-tree directly on the metric.
        tree = MTree(min_matching_distance, capacity=8)
        for index, vector_set in enumerate(sets):
            tree.insert(vector_set, index)
        per_query = []
        for query_id in queries:
            tree.distance_computations = 0
            matches = tree.knn(sets[query_id], 10)
            per_query.append(tree.distance_computations)
            got = sorted(round(d, 9) for _, d in matches)
            assert got == answers[query_id], "M-tree must agree with the engine"
        results["M-tree (metric index)"] = float(np.mean(per_query))

        # Sequential scan: one matching per object.
        results["sequential scan"] = float(len(sets))
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["access structure", "exact matchings / 10-nn query"],
            [[name, value] for name, value in results.items()],
            title="Ablation — access structures for vector set 10-nn queries",
        )
    )
    # Both index routes must beat the scan on matching count.
    assert results["centroid filter + scan ranking"] < results["sequential scan"]
    assert results["M-tree (metric index)"] < results["sequential scan"]


def test_bulk_load_vs_incremental(benchmark):
    """STR bulk loading — the database's array pack — against an
    incrementally built R*-tree: same answers, fewer nodes, no more than
    1.2x the query pages (each read through its own page manager)."""
    rng = np.random.default_rng(2)
    points = rng.random(size=(3000, 6))

    def run_both():
        incremental = RStarTree(6)
        for index, point in enumerate(points):
            incremental.insert(point, index)
        packed = densify(points, np.arange(len(points)))
        packed.check_invariants()

        incremental.pages.reset()
        for query in points[::300]:
            a = [oid for oid, _ in incremental.knn(query, 10)]
            b = []
            for oids, _ in packed.ranking_chunks(query):
                b.extend(oids.tolist())
                if len(b) >= 10:
                    break
            assert a == b[:10]
        return (
            incremental.node_count(),
            len(packed.arrays["node_level"]),
            incremental.pages.cost.page_accesses,
            packed.pages.cost.page_accesses,
        )

    nodes_inc, nodes_bulk, pages_inc, pages_bulk = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    print(
        f"\nnodes: incremental={nodes_inc} bulk={nodes_bulk}; "
        f"query pages: incremental={pages_inc} bulk={pages_bulk}"
    )
    assert nodes_bulk <= nodes_inc
    assert pages_bulk <= pages_inc * 1.2
