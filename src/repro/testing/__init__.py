"""Test support for the :mod:`repro` library.

:mod:`repro.testing.faults` is a deterministic fault-injection harness:
counter-based schedules plus context managers that make voxelization,
file reads and ``np.savez`` fail on cue, helpers that corrupt bytes on
disk, and the named crash-point seams
(:data:`~repro.testing.faults.CRASH_POINTS`) the durability layer's
kill/recover suite is built on.  Used by ``tests/test_fault_injection.py``
and ``tests/test_crash_recovery.py`` to prove every degradation path of
the ingestion, persistence and recovery layers.
"""

from repro.testing.faults import (
    CRASH_ENV,
    CRASH_EXIT_CODE,
    CRASH_POINTS,
    FaultSchedule,
    InjectedCrash,
    armed_crash_point,
    corrupt_bytes,
    crash_point,
    fail_always,
    fail_every,
    fail_first,
    fail_once,
    never_fail,
    read_faults,
    savez_faults,
    tamper_npz_array,
    voxelization_faults,
)

__all__ = [
    "CRASH_ENV",
    "CRASH_EXIT_CODE",
    "CRASH_POINTS",
    "FaultSchedule",
    "InjectedCrash",
    "armed_crash_point",
    "crash_point",
    "fail_once",
    "fail_first",
    "fail_every",
    "fail_always",
    "never_fail",
    "voxelization_faults",
    "read_faults",
    "savez_faults",
    "corrupt_bytes",
    "tamper_npz_array",
]
