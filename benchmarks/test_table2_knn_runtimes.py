"""Table 2: runtimes of sample 10-nn queries on the Aircraft dataset.

Paper (100 queries, 5,000 objects, XEON 1.7 GHz, simulated I/O):

    model                 | CPU s   | I/O s   | total s
    ----------------------+---------+---------+--------
    1-Vect. (X-tree)      |  142.82 | 2632.06 | 2774.88
    Vect. Set w. filter   |  105.88 |  932.80 | 1038.68
    Vect. Set seq. scan   | 1025.32 |  806.40 | 1831.72

Expected shape at reduced scale (10 queries, REPRO_AIRCRAFT_N objects,
48 rotation/reflection variants per query):

* the centroid filter refines only a small fraction of the candidates
  (the paper reports a ~10x CPU speed-up over the sequential scan),
* the 1-vector X-tree pays the worst I/O (the 6k-d index degenerates
  and its pages carry dummy-padded vectors),
* filter and scan return identical 10-nn results (Lemma 2 losslessness).

The scan's *total* advantage at small n is a scale artifact: its I/O
grows linearly with the database while the filter's grows with the
result size — at the paper's 5,000 objects the filter wins overall (run
with ``REPRO_AIRCRAFT_N=5000`` to see the crossover).

Only deterministic columns are asserted.  The CPU ratio is printed, not
gated: since PR 21 the scan leg runs every matching through the batched
kernel while the filter leg still refines candidate by candidate, so
``filter CPU < scan CPU / 3`` measured 2.0-2.9x here and failed on
wall-clock noise although the filter computes under a quarter of the
scan's matchings - which is what the refinement-count assertion holds.
"""

import os

from repro.evaluation.report import format_table
from repro.evaluation.table2 import run_table2

PAPER = {
    "1-Vect. (X-tree)": (142.82, 2632.06, 2774.88),
    "Vect. Set w. filter": (105.88, 932.80, 1038.68),
    "Vect. Set seq. scan": (1025.32, 806.40, 1831.72),
}


def test_table2_knn_runtimes(benchmark):
    n = int(os.environ.get("REPRO_AIRCRAFT_N", 600))
    rows, consistent = benchmark.pedantic(
        run_table2,
        kwargs={"n_queries": 10, "variants": 48, "n": n},
        rounds=1,
        iterations=1,
    )

    print()
    print(
        format_table(
            ["method", "CPU s", "I/O s", "total s", "pages", "refinements",
             "paper CPU", "paper I/O"],
            [
                [
                    row.method,
                    row.cpu_seconds,
                    row.io_seconds,
                    row.total_seconds,
                    row.page_accesses,
                    row.exact_computations,
                    PAPER[row.method][0],
                    PAPER[row.method][1],
                ]
                for row in rows
            ],
            title=f"Table 2 — 10-nn queries ({n} objects, 10 queries, 48 variants)",
        )
    )

    one_vector, filtered, scan = rows
    assert consistent, "filter and scan must return identical 10-nn sets"
    # Filter refines only a fraction of what the scan computes.
    assert filtered.exact_computations < 0.25 * scan.exact_computations
    # I/O: the high-dimensional 1-vector index is the worst I/O citizen.
    assert one_vector.io_seconds > filtered.io_seconds
    # Total: the filter beats the degenerated 1-vector index.
    assert filtered.total_seconds < one_vector.total_seconds
