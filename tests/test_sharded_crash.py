"""Sharded kill matrix: hard kills between per-shard checkpoints.

The sharded layer adds one genuinely new crash window to the durable
story: :meth:`ShardedSimilarityDatabase.checkpoint` walks the shards in
order, and each gap between two shard checkpoints is a moment where the
on-disk layout is *mixed* — shards ``0..i`` on their new generation,
shards ``i+1..`` on the old generation plus WAL tail.  The
``between-shard-checkpoints`` crash point fires in exactly those gaps
(``:n`` selects the gap), alongside the single-database points which
here fire inside whichever shard happens to be mutating.

The contract after recovery (``open_database`` on the root):

* the recovered contents equal a fresh build over ``plan[:M]`` for some
  ``M >= acked`` — every acknowledged mutation survives, shard
  generations never mix into a state no serial execution produced;
* the version vector is *consistent*: every shard holds exactly the
  oids the CRC routing assigns it, and all shards agree on the same
  plan prefix;
* knn/range answers are byte-identical to a single-shard fresh build
  of that prefix — the differential contract holds through a crash,
  whether the directory was new or one recorded as ``scan`` while
  snapshots carried an index (``tests.conftest.BACKENDS``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.db import (
    ShardedSimilarityDatabase,
    SimilarityDatabase,
    open_database,
    shard_of,
)
from repro.testing.faults import CRASH_ENV, CRASH_EXIT_CODE

from tests.conftest import (
    BACKENDS,
    assert_answers_like_a_fresh_pack,
    reads_only,
    start_database,
)
from tests.test_db_durable import (
    CAPACITY,
    fresh_build,
    make_plan,
    rand_set,
    same_contents,
)

SHARDS = 3

WORKER = """\
import json, os, sys
import numpy as np
from repro.db import ShardedSimilarityDatabase

dbdir, planfile, ackfile = sys.argv[1:4]
with open(planfile) as handle:
    plan = json.load(handle)
if os.path.exists(dbdir):  # started by the test: a recorded "scan" layout
    db = ShardedSimilarityDatabase.load(dbdir)
else:
    db = ShardedSimilarityDatabase(
        plan["capacity"], shards=plan["shards"], backend="xtree",
        durable=True, path=dbdir, fsync="always",
    )
ack = open(ackfile, "w")
for i, (op, oid, arr) in enumerate(plan["steps"]):
    if op == "add":
        db.add(oid, np.asarray(arr, dtype=float))
    elif op == "remove":
        db.remove(oid)
    elif op == "update":
        db.update(oid, np.asarray(arr, dtype=float))
    elif op == "checkpoint":
        db.checkpoint()
    ack.write(f"{i}\\n")
    ack.flush()
    os.fsync(ack.fileno())
db.close()
ack.close()
"""

# Gap :1 and :2 are both real interleavings for K=3 (shard 0 new /
# 1, 2 old, and shards 0, 1 new / 2 old); the single-database points
# fire inside whichever shard the routed mutation lands on.
CRASH_SPECS = {
    "first-gap": "between-shard-checkpoints",
    "second-gap": "between-shard-checkpoints:2",
    "wal-append": "after-wal-append:7",
    "checkpoint-swap": "mid-checkpoint-swap",
    "snapshot-write": "mid-snapshot-write",
}


def run_worker(tmp_path, plan, backend="xtree", crash_spec=None):
    worker = tmp_path / "worker.py"
    worker.write_text(WORKER)
    planfile = tmp_path / "plan.json"
    planfile.write_text(
        json.dumps(
            {
                "capacity": CAPACITY,
                "shards": SHARDS,
                "steps": [
                    [op, oid, None if arr is None else arr.tolist()]
                    for op, oid, arr in plan
                ],
            }
        )
    )
    ackfile = tmp_path / "acks"
    dbdir = tmp_path / "db"
    if backend != "xtree":
        start_database(
            backend, dbdir, CAPACITY, shards=SHARDS, durable=True, fsync="always"
        ).close()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    env.pop(CRASH_ENV, None)
    if crash_spec is not None:
        env[CRASH_ENV] = crash_spec
    proc = subprocess.run(
        [sys.executable, str(worker), str(dbdir), str(planfile), str(ackfile)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    acked = (
        len(ackfile.read_text().splitlines()) if ackfile.exists() else 0
    )
    return proc, dbdir, acked


def assert_consistent_vector(recovered, reference_single, rng):
    """The recovered layout is one coherent database: routing holds
    shard by shard, every shard's invariants hold and its core plus
    delta answers like a fresh pack, and scatter-gather answers are
    byte-identical to the single-shard reference."""
    assert recovered.n_shards == SHARDS
    probes = [rand_set(rng) for _ in range(2)]
    for i, shard in enumerate(recovered.shards):
        for oid in shard.object_ids():
            assert shard_of(oid, SHARDS) == i, (
                f"oid {oid} recovered into shard {i}, "
                f"routing says {shard_of(oid, SHARDS)}"
            )
        shard.check_invariants()
        assert_answers_like_a_fresh_pack(shard, probes, k=5, epsilon=6.0)
    for _ in range(3):
        query = rand_set(rng)
        got, _ = reads_only(recovered, lambda db: db.knn_query(query, 5))
        want, _ = reference_single.knn_query(query, 5)
        assert [(m.object_id, m.distance) for m in got] == [
            (m.object_id, m.distance) for m in want
        ]
        got_r, _ = recovered.range_query(query, 6.0)
        want_r, _ = reference_single.range_query(query, 6.0)
        assert [(m.object_id, m.distance) for m in got_r] == [
            (m.object_id, m.distance) for m in want_r
        ]


def matches_some_prefix(recovered, state_plan, floor, rng) -> bool:
    for upto in range(floor, len(state_plan) + 1):
        reference = fresh_build(state_plan[:upto])
        if same_contents(recovered, reference):
            assert_consistent_vector(recovered, reference, rng)
            return True
    return False


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("point", sorted(CRASH_SPECS))
def test_kill_and_recover(point, backend, tmp_path, rng):
    plan = make_plan(rng)
    proc, dbdir, acked = run_worker(
        tmp_path, plan, backend, crash_spec=CRASH_SPECS[point]
    )
    assert proc.returncode == CRASH_EXIT_CODE, (
        f"worker did not die at {point}: rc={proc.returncode}\n{proc.stderr}"
    )
    assert acked < len(plan), "crash fired only after the whole plan ran"
    recovered = open_database(dbdir)
    assert isinstance(recovered, ShardedSimilarityDatabase)
    assert recovered.durable
    assert len(recovered.last_recovery) == SHARDS
    state_plan = [s for s in plan if s[0] != "checkpoint"]
    acked_state = len([s for s in plan[:acked] if s[0] != "checkpoint"])
    assert matches_some_prefix(recovered, state_plan, acked_state, rng), (
        f"recovered sharded state after {point} kill matches no prefix "
        f">= the {acked} acknowledged mutations"
    )
    recovered.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_clean_run_control(backend, tmp_path, rng):
    """No crash spec: the worker completes and recovery equals a fresh
    single-shard build over the whole plan — the baseline the kill
    matrix is measured against."""
    plan = make_plan(rng)
    proc, dbdir, acked = run_worker(tmp_path, plan, backend)
    assert proc.returncode == 0, proc.stderr
    assert acked == len(plan)
    recovered = open_database(dbdir)
    assert all(not report.degraded for report in recovered.last_recovery)
    state_plan = [s for s in plan if s[0] != "checkpoint"]
    reference = fresh_build(state_plan)
    assert same_contents(recovered, reference)
    assert_consistent_vector(recovered, reference, rng)
    recovered.close()


def test_gap_kill_leaves_mixed_generations(tmp_path, rng):
    """The first-gap kill really does land mid-checkpoint: shard 0 has
    checkpointed (its WAL tail is empty or sealed) while a later shard
    still carries its tail — and recovery reconciles them anyway."""
    plan = make_plan(rng)
    proc, dbdir, acked = run_worker(
        tmp_path, plan, crash_spec="between-shard-checkpoints"
    )
    assert proc.returncode == CRASH_EXIT_CODE, proc.stderr
    checkpoint_step = next(
        i for i, step in enumerate(plan) if step[0] == "checkpoint"
    )
    # The kill fired inside the checkpoint step, before its ack.
    assert acked == checkpoint_step
    recovered = open_database(dbdir)
    state_plan = [s for s in plan if s[0] != "checkpoint"]
    acked_state = len(
        [s for s in plan[:acked] if s[0] != "checkpoint"]
    )
    assert matches_some_prefix(recovered, state_plan, acked_state, rng)
    recovered.close()
