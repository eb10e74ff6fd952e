"""Part retrieval: the paper's motivating CAD-reuse scenario.

An engineer designed a new bracket and wants to know whether a similar
part already exists in the company database (so it can be reused instead
of manufactured).  This example

* builds and persists a part database with precomputed features,
* reloads it (as a separate session would),
* queries it with a *new, unseen* part in a random orientation,
* shows that the retrieval is invariant to that orientation,
* and spreads the parts over shards, then reshards them, with every
  answer the single database's.

Run:  python examples/part_retrieval.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import Pipeline, VectorSetModel
from repro.datasets import make_car_dataset
from repro.datasets.parts import make_part, random_placement
from repro.db import ShardedSimilarityDatabase, SimilarityDatabase


def build_database(path: Path) -> None:
    """One-time ingest: voxelize, normalize, extract, persist."""
    parts, _ = make_car_dataset(seed=77)
    pipeline = Pipeline(resolution=15)
    model = VectorSetModel(k=7)

    database = SimilarityDatabase(7)
    for oid, part in enumerate(parts):
        processed = pipeline.process_part(part)
        database.add(
            oid,
            model.extract(processed.grid),
            {"name": processed.name, "family": processed.family},
        )
    database.save(path)
    print(f"ingested {len(database)} parts -> {path}")


def query_database(path: Path) -> None:
    """A later session: load the database and search with a new part."""
    database = SimilarityDatabase.load(path)

    pipeline = Pipeline(resolution=15)
    model = VectorSetModel(k=7)
    rng = np.random.default_rng(123)

    # The "new" part: a bracket the database has never seen, dropped in
    # at an arbitrary 90-degree orientation and position.
    new_part = make_part("bracket", rng, place=False)
    for trial in range(3):
        placed = new_part.solid.transformed(random_placement(rng))
        grid, _ = pipeline.process_solid(placed)
        query_set = model.extract(grid)
        results, stats = database.knn_query(query_set, 5)
        families = [database.payload(m.object_id)["family"] for m in results]
        print(f"\norientation {trial + 1}: retrieved families = {families} "
              f"(refined {stats.exact_computations}/{len(database)})")
        assert families.count("bracket") >= 3, "retrieval should find brackets"
    print("\nretrieval is stable across orientations — reuse candidate found.")


def shard_database(path: Path) -> None:
    """Scale-out: the same parts over 2 shards, then over 3, answer like
    the one database."""
    database = SimilarityDatabase.load(path)
    sharded = ShardedSimilarityDatabase(7, shards=2)
    for oid in database.object_ids():
        sharded.add(oid, database.get(oid), database.payload(oid))
    probe = database.get(database.object_ids()[0])
    expected = database.knn_query(probe, 5)[0]
    assert sharded.knn_query(probe, 5)[0] == expected
    sharded.reshard(3)
    assert sharded.knn_query(probe, 5)[0] == expected
    print(f"\n{sharded.n_shards} shards answer like one database.")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "car_parts.npz"
        build_database(path)
        query_database(path)
        shard_database(path)


if __name__ == "__main__":
    main()
