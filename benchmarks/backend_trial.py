"""Backend trial: every ``repro.db.BACKENDS`` entry on the end-to-end
benchmark's own set corpus, in memory.

For each corpus (selective / centroid-degenerate) and size it ingests
through ``add``, runs perturbed-member 10-nn queries (best of ``PASSES``
passes per query), requires every backend's answers, distances *and*
``QueryStats`` to be literally equal — every backend ranks alike, from
the engine's centroid column, and the backends differ only in the index
tables their snapshots carry — and times the first query after a
mutation.  CI runs it at n = 800.  The script reads the backend list
from the code it runs against, so a clone of an older commit (whose
``xtree`` walked a packed core plus a delta) reports that commit's
backends and timings::

    PYTHONPATH=src python benchmarks/backend_trial.py 800 5000 20000
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.e2e.inputs import KNN_K, SET_K, _perturbed, set_corpus  # noqa: E402
from repro.db import BACKENDS, SimilarityDatabase  # noqa: E402

SEED = 1
QUERIES = 30
PASSES = 3


def trial(n: int, recentre: bool) -> None:
    rng = np.random.default_rng(SEED)
    sets, _ = set_corpus(rng, n, recentre=recentre)
    queries = [_perturbed(rng, sets[i]) for i in rng.choice(n, QUERIES, replace=False)]
    reference = None
    for backend in BACKENDS:
        db = SimilarityDatabase(SET_K, backend=backend, sketch=False)
        start = time.perf_counter()
        for oid, vectors in enumerate(sets):
            db.add(oid, vectors)
        ingest = n / (time.perf_counter() - start)
        best = [np.inf] * QUERIES
        for _ in range(PASSES):
            answers, refined = [], []
            for i, query in enumerate(queries):
                start = time.perf_counter()
                matches, stats = db.knn_query(query, KNN_K)
                best[i] = min(best[i], time.perf_counter() - start)
                answers.append(([(m.object_id, m.distance) for m in matches], stats))
                refined.append(stats.exact_computations)
        if reference is None:
            reference = answers
        assert answers == reference, f"{backend} disagrees with {BACKENDS[0]}"
        after_mutation = []
        for i in range(5):
            db.update(i, sets[i])
            start = time.perf_counter()
            db.knn_query(queries[i], KNN_K)
            after_mutation.append(time.perf_counter() - start)
        print(
            f"{'degenerate' if recentre else 'selective':10s} n={n:<6d} {backend:6s}"
            f" p50 {1e3 * statistics.median(best):8.2f} ms"
            f"  matchings/query {statistics.fmean(refined):8.0f}"
            f"  ingest {ingest:6.0f} /s"
            f"  first query after a mutation {1e3 * statistics.median(after_mutation):7.2f} ms",
            flush=True,
        )


if __name__ == "__main__":
    for n in map(int, sys.argv[1:] or ["800"]):
        for recentre in (False, True):
            trial(n, recentre)
