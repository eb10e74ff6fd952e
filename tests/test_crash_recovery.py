"""Subprocess crash/recover matrix: real ``os._exit`` kills.

Unlike the in-process ``InjectedCrash`` tests, these run the mutation
plan in a child interpreter with ``REPRO_CRASH_POINT`` set, let the
harness hard-kill it mid-operation (no ``finally`` blocks, no atexit —
exactly like SIGKILL or a power cut), then recover in the parent and
check the crash-consistency contract:

* under ``fsync=always`` every *acknowledged* mutation survives —
  recovery equals a fresh build over ``plan[:M]`` with ``M >= acked``;
* knn/range answers from the recovered database are byte-identical to
  that fresh build's, whether the directory was new or one recorded as
  ``scan`` while snapshots carried an index (``tests.conftest.BACKENDS``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.db import SimilarityDatabase
from repro.testing.faults import CRASH_ENV, CRASH_EXIT_CODE, CRASH_POINTS

from tests.conftest import BACKENDS, start_database
from tests.test_db_durable import (
    CAPACITY,
    assert_equivalent,
    fresh_build,
    make_plan,
    matches_some_prefix,
)

WORKER = """\
import json, os, sys
import numpy as np
from repro.db import SimilarityDatabase

dbdir, planfile, ackfile = sys.argv[1:4]
with open(planfile) as handle:
    plan = json.load(handle)
if os.path.exists(dbdir):  # started by the test: a recorded "scan" layout
    db = SimilarityDatabase.load(dbdir)
else:
    db = SimilarityDatabase(
        plan["capacity"], backend="xtree", durable=True, path=dbdir,
        fsync="always",
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
    # The ack is this harness's stand-in for replying to a client:
    # fsynced, so the parent knows exactly which mutations were
    # acknowledged before the kill.
    ack.write(f"{i}\\n")
    ack.flush()
    os.fsync(ack.fileno())
db.close()
ack.close()
"""

# Hit counts chosen so every point actually fires mid-plan: the plan
# from make_plan() contains one checkpoint (mid-snapshot-write,
# mid-checkpoint-swap) and dozens of appends (after-wal-append fires on
# the 7th).  The single-database
# plan never reaches "between-shard-checkpoints" (it fires only inside
# ShardedSimilarityDatabase.checkpoint) — its kill matrix lives in
# tests/test_sharded_crash.py, so this suite parametrizes over the
# specs it arms rather than all of CRASH_POINTS.
CRASH_SPECS = {
    "after-wal-append": "after-wal-append:7",
    "mid-snapshot-write": "mid-snapshot-write",
    "mid-checkpoint-swap": "mid-checkpoint-swap",
}


def run_worker(tmp_path, plan, backend="xtree", crash_spec=None):
    worker = tmp_path / "worker.py"
    worker.write_text(WORKER)
    planfile = tmp_path / "plan.json"
    planfile.write_text(
        json.dumps(
            {
                "capacity": CAPACITY,
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
        start_database(backend, dbdir, CAPACITY, durable=True, fsync="always").close()
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


def test_specs_cover_single_database_points():
    """Every registered crash point is exercised somewhere: the three
    single-database points here, the sharded gap in the sharded kill
    matrix."""
    assert set(CRASH_SPECS) == set(CRASH_POINTS) - {"between-shard-checkpoints"}


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
    recovered = SimilarityDatabase.load(dbdir)
    state_plan = [s for s in plan if s[0] != "checkpoint"]
    acked_state = len([s for s in plan[:acked] if s[0] != "checkpoint"])
    assert matches_some_prefix(recovered, state_plan, acked_state, rng), (
        f"recovered state after {point} kill matches no prefix >= the "
        f"{acked} acknowledged mutations"
    )
    recovered.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_clean_run_control(backend, tmp_path, rng):
    """Without a crash spec the worker completes, and recovery equals a
    fresh build over the entire plan — the baseline the kill matrix is
    measured against."""
    plan = make_plan(rng)
    proc, dbdir, acked = run_worker(tmp_path, plan, backend)
    assert proc.returncode == 0, proc.stderr
    assert acked == len(plan)
    recovered = SimilarityDatabase.load(dbdir)
    assert not recovered.last_recovery.degraded
    assert_equivalent(recovered, fresh_build(plan), rng)
    recovered.close()


def test_crash_env_spec_counts_hits(tmp_path, rng):
    """`name:n` fires on the n-th hit: a later hit count acknowledges
    strictly more mutations before the kill."""
    plan = make_plan(rng)
    early = tmp_path / "early"
    late = tmp_path / "late"
    early.mkdir()
    late.mkdir()
    _, _, acked_early = run_worker(early, plan, crash_spec="after-wal-append:2")
    _, _, acked_late = run_worker(late, plan, crash_spec="after-wal-append:12")
    assert acked_early < acked_late
