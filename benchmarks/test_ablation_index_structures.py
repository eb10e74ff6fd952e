"""Ablation: access structures for vector set queries.

Section 4.3 names two routes: a metric index directly on the vector
sets, or the centroid filter over a spatial index.  The metric-index
row (an M-tree) retired with ``repro.index.mtree``; EXPERIMENTS.md keeps
its last numbers.  This benchmark counts the dominant cost of a 10-nn
query, exact matching-distance evaluations, for the centroid filter
against the sequential scan, and pits the incremental R*-tree against
an STR bulk pack of the same points.
"""

import numpy as np

from repro.core.queries import FilterRefineEngine
from repro.evaluation.experiments import extract_features, prepare_dataset
from repro.evaluation.report import format_table
from repro.features.vector_set_model import VectorSetModel
from repro.index.arraycore import densify
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
        for query_id in queries:
            _, stats = engine.knn_query(sets[query_id], 10)
            refined.append(stats.exact_computations)
        results["centroid filter + scan ranking"] = float(np.mean(refined))

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
    # The filter must beat the scan on matching count.
    assert results["centroid filter + scan ranking"] < results["sequential scan"]


def test_bulk_load_vs_incremental(benchmark):
    """STR bulk loading into an array core against an
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
