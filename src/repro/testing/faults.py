"""Deterministic fault injection for robustness tests.

Three context managers monkeypatch well-defined seams of the library —
voxelization, file reads, and ``np.savez_compressed`` — and make them
fail according to a counter-based :class:`FaultSchedule`.  Nothing here
uses randomness or wall-clock time, so every injected failure is exactly
reproducible.

Typical use::

    from repro.testing import fail_once, voxelization_faults

    with voxelization_faults(fail_once(at=2)) as schedule:
        report = pipeline.process_parts(parts, on_error="skip")
    assert schedule.fired == 1

The injected exceptions mimic what the real seam would raise
(:class:`~repro.exceptions.VoxelizationError` for voxelization,
:class:`OSError` for I/O), so production code cannot tell an injected
fault from a real one — which is the point.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
from pathlib import Path
from typing import Callable

import numpy as np

from repro.exceptions import VoxelizationError


class FaultSchedule:
    """Counter-based schedule deciding, per call, whether a fault fires.

    Attributes
    ----------
    calls:
        Total times the instrumented seam was entered.
    fired:
        How many of those calls were made to fail.
    """

    def __init__(self, predicate: Callable[[int], bool], description: str):
        self._predicate = predicate
        self.description = description
        self.calls = 0
        self.fired = 0

    def fire(self) -> bool:
        """Advance the call counter and report whether this call fails."""
        self.calls += 1
        hit = bool(self._predicate(self.calls))
        if hit:
            self.fired += 1
        return hit

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultSchedule({self.description!r}, calls={self.calls}, "
            f"fired={self.fired})"
        )


def fail_once(at: int = 1) -> FaultSchedule:
    """Fail exactly the *at*-th call (1-based), succeed otherwise."""
    return FaultSchedule(lambda n: n == at, f"fail call #{at}")


def fail_first(n: int) -> FaultSchedule:
    """Fail the first *n* calls, then succeed forever."""
    return FaultSchedule(lambda c: c <= n, f"fail first {n} calls")


def fail_every(n: int) -> FaultSchedule:
    """Fail every *n*-th call (the n-th, 2n-th, ...)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return FaultSchedule(lambda c: c % n == 0, f"fail every {n}th call")


def fail_always() -> FaultSchedule:
    """Fail every call."""
    return FaultSchedule(lambda c: True, "fail always")


def never_fail() -> FaultSchedule:
    """Count calls without ever failing (for instrumentation-only runs)."""
    return FaultSchedule(lambda c: False, "never fail")


# -- context managers ---------------------------------------------------------


@contextlib.contextmanager
def voxelization_faults(schedule: FaultSchedule, exc_factory=None):
    """Make :func:`voxelize_solid`/:func:`voxelize_mesh` fail on *schedule*.

    Patches both :mod:`repro.voxel.voxelize` and the names
    :mod:`repro.pipeline` imported from it, so faults hit regardless of
    which entry point the caller uses.
    """
    import repro.pipeline as pipeline_module
    import repro.voxel.voxelize as voxelize_module

    if exc_factory is None:
        exc_factory = lambda: VoxelizationError("injected voxelization fault")

    real_solid = voxelize_module.voxelize_solid
    real_mesh = voxelize_module.voxelize_mesh

    def _wrap(real):
        def instrumented(*args, **kwargs):
            if schedule.fire():
                raise exc_factory()
            return real(*args, **kwargs)

        return instrumented

    patched_solid, patched_mesh = _wrap(real_solid), _wrap(real_mesh)
    voxelize_module.voxelize_solid = patched_solid
    voxelize_module.voxelize_mesh = patched_mesh
    pipeline_module.voxelize_solid = patched_solid
    pipeline_module.voxelize_mesh = patched_mesh
    try:
        yield schedule
    finally:
        voxelize_module.voxelize_solid = real_solid
        voxelize_module.voxelize_mesh = real_mesh
        pipeline_module.voxelize_solid = real_solid
        pipeline_module.voxelize_mesh = real_mesh


@contextlib.contextmanager
def read_faults(schedule: FaultSchedule, exc_factory=None):
    """Make ``Path.read_bytes``/``Path.read_text`` fail on *schedule*.

    Both readers share one schedule, matching how the STL/OFF parsers
    and the mesh-directory ingest path consume files.
    """
    if exc_factory is None:
        exc_factory = lambda path: OSError(f"injected read fault: {path}")

    real_read_bytes = pathlib.Path.read_bytes
    real_read_text = pathlib.Path.read_text

    def read_bytes(self, *args, **kwargs):
        if schedule.fire():
            raise exc_factory(self)
        return real_read_bytes(self, *args, **kwargs)

    def read_text(self, *args, **kwargs):
        if schedule.fire():
            raise exc_factory(self)
        return real_read_text(self, *args, **kwargs)

    pathlib.Path.read_bytes = read_bytes
    pathlib.Path.read_text = read_text
    try:
        yield schedule
    finally:
        pathlib.Path.read_bytes = real_read_bytes
        pathlib.Path.read_text = real_read_text


#: Partial bytes the savez fault leaves behind: a plausible-looking but
#: truncated zip header, simulating a process killed mid-write.
PARTIAL_WRITE = b"PK\x03\x04" + b"\x00" * 28


@contextlib.contextmanager
def savez_faults(schedule: FaultSchedule, partial: bytes = PARTIAL_WRITE):
    """Make ``np.savez_compressed`` fail on *schedule*.

    A firing call first emits *partial* bytes to its destination — the
    on-disk state a process killed mid-save would leave — and then
    raises :class:`OSError`.  The atomic-save machinery must contain the
    damage to its temporary file.
    """
    real = np.savez_compressed

    def instrumented(file, *args, **kwargs):
        if schedule.fire():
            if hasattr(file, "write"):
                file.write(partial)
                with contextlib.suppress(OSError):
                    file.flush()
            else:
                Path(file).write_bytes(partial)
            raise OSError("injected write fault (killed mid-save)")
        return real(file, *args, **kwargs)

    np.savez_compressed = instrumented
    try:
        yield schedule
    finally:
        np.savez_compressed = real


# -- crash-point injection -----------------------------------------------------
#
# Named seams in the durability code path (WAL append, snapshot write,
# checkpoint publication) call :func:`crash_point`.  In
# production the call is a single dict lookup and returns immediately.
# Two trigger mechanisms exist:
#
# * ``REPRO_CRASH_POINT=<name>[:<n>]`` in the environment kills the
#   process with ``os._exit`` at the *n*-th (default first) hit of the
#   named point — no cleanup, no flushing, no ``atexit``: the closest a
#   test can get to ``kill -9`` while still choosing *where* it lands.
#   The subprocess recovery suite drives this.
# * :func:`armed_crash_point` arms the point in-process and raises
#   :class:`InjectedCrash` (a ``BaseException``, so production
#   ``except Exception`` clauses cannot swallow it).  Property tests use
#   this to simulate hundreds of crashes without paying a process spawn
#   per example; the "crashed" database object is simply abandoned and
#   recovery runs from disk.

#: Every named crash seam wired into the durability path.  Recovery
#: tests iterate this tuple, so adding a seam automatically adds it to
#: the kill/recover matrix.
CRASH_POINTS = (
    "after-wal-append",
    "mid-snapshot-write",
    "mid-checkpoint-swap",
    "between-shard-checkpoints",
)

#: Environment variable consulted by :func:`crash_point`.
CRASH_ENV = "REPRO_CRASH_POINT"

#: Exit status of a process killed at a crash point (mirrors SIGKILL's
#: conventional 128+9 so harnesses can tell an injected crash from an
#: ordinary failure).
CRASH_EXIT_CODE = 137


class InjectedCrash(BaseException):
    """Raised by an in-process armed crash point (never by the env
    trigger, which ``os._exit``\\ s).  Derives from ``BaseException`` so
    that no production error handling can absorb it."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"injected crash at point {name!r}")


_hit_counts: dict[str, int] = {}
_armed: dict[str, int] | None = None


def crash_point(name: str) -> None:
    """Production seam: die here if this crash point is triggered.

    Looks up the in-process armed table first, then the
    ``REPRO_CRASH_POINT`` environment spec (``name`` or ``name:n``).
    Unknown names are a programming error — the seam must be listed in
    :data:`CRASH_POINTS` so the recovery matrix covers it.
    """
    if name not in CRASH_POINTS:
        raise ValueError(f"unregistered crash point {name!r}")
    if _armed is not None and name in _armed:
        _hit_counts[name] = _hit_counts.get(name, 0) + 1
        if _hit_counts[name] == _armed[name]:
            raise InjectedCrash(name)
        return
    spec = os.environ.get(CRASH_ENV)
    if not spec:
        return
    target, _, at = spec.partition(":")
    if target != name:
        return
    _hit_counts[name] = _hit_counts.get(name, 0) + 1
    if _hit_counts[name] == int(at or 1):
        # A real crash: no stack unwinding, no finally blocks, no
        # buffered-write flushing.  Whatever reached the kernel is all
        # that survives — exactly the contract the WAL must honor.
        os._exit(CRASH_EXIT_CODE)


@contextlib.contextmanager
def armed_crash_point(name: str, at: int = 1):
    """Arm *name* in-process: its *at*-th hit raises :class:`InjectedCrash`.

    Hit counters reset on entry and the table is restored on exit, so
    nested/sequential arming in one test is deterministic.
    """
    global _armed
    if name not in CRASH_POINTS:
        raise ValueError(f"unregistered crash point {name!r}")
    previous, previous_hits = _armed, dict(_hit_counts)
    _armed = {name: at}
    _hit_counts.clear()
    try:
        yield
    finally:
        _armed = previous
        _hit_counts.clear()
        _hit_counts.update(previous_hits)


# -- on-disk corruption helpers -----------------------------------------------


def corrupt_bytes(path: str | Path, offset: int, count: int = 8, xor: int = 0xFF) -> None:
    """XOR-flip *count* bytes of *path* starting at *offset*, in place.

    Negative offsets count from the end of the file.  Deterministic:
    the same call always produces the same corruption.
    """
    path = Path(path)
    data = bytearray(path.read_bytes())
    if offset < 0:
        offset += len(data)
    for i in range(max(offset, 0), min(offset + count, len(data))):
        data[i] ^= xor
    path.write_bytes(bytes(data))


def tamper_npz_array(path: str | Path, key: str, xor: int = 0x01) -> None:
    """Rewrite one array inside an ``.npz`` with its payload bytes flipped.

    The container stays a valid zip, but the named member's data no
    longer matches its stored checksum — the member-level corruption a
    snapshot read must name (:class:`~repro.exceptions.SnapshotIntegrityError`)
    and a durable directory's recovery ladder must fall back past.
    """
    path = Path(path)
    with np.load(path) as data:
        arrays = {name: np.asarray(data[name]) for name in data.files}
    original = arrays[key]
    raw = bytearray(original.tobytes())
    for i in range(len(raw)):
        raw[i] ^= xor
    arrays[key] = np.frombuffer(bytes(raw), dtype=original.dtype).reshape(
        original.shape
    )
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)
