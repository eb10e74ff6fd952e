"""Persistence: mesh formats and voxel grids."""

from pathlib import Path

from repro.exceptions import StorageError
from repro.io.off import read_off, write_off
from repro.io.stl import read_stl, write_stl_ascii, write_stl_binary
from repro.io.vox import load_grid, save_grid


def read_mesh(path):
    """Read a mesh file, dispatching on its suffix (``.stl``/``.off``)."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".off":
        return read_off(path)
    if suffix == ".stl":
        return read_stl(path)
    raise StorageError(
        f"unsupported mesh format: {path.suffix!r} (use .stl or .off)"
    )


__all__ = [
    "read_mesh",
    "read_off",
    "write_off",
    "read_stl",
    "write_stl_ascii",
    "write_stl_binary",
    "save_grid",
    "load_grid",
]
