"""Triangle meshes: the boundary representation used for OFF/STL input.

The paper's pipeline starts from CAD surfaces that have been voxelized.
When parts come in as triangle meshes (rather than as analytic solids),
:class:`TriangleMesh` carries the raw geometry through transformation and
into :func:`repro.voxel.voxelize.voxelize_mesh`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import GeometryError
from repro.geometry.transform import Transform


@dataclass
class TriangleMesh:
    """An indexed triangle mesh.

    Attributes
    ----------
    vertices:
        ``(n, 3)`` float array of vertex positions.
    faces:
        ``(m, 3)`` int array of vertex indices, counter-clockwise when
        viewed from outside.
    """

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self) -> None:
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.faces = np.asarray(self.faces, dtype=int)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise GeometryError(f"vertices must be (n, 3), got {self.vertices.shape}")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise GeometryError(f"faces must be (m, 3), got {self.faces.shape}")
        if len(self.faces) and (self.faces.min() < 0 or self.faces.max() >= len(self.vertices)):
            raise GeometryError("face indices out of range")

    # -- basic queries ---------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounding box as ``(lower, upper)``."""
        if not len(self.vertices):
            raise GeometryError("empty mesh has no bounds")
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def triangles(self) -> np.ndarray:
        """Return the ``(m, 3, 3)`` array of triangle corner positions."""
        return self.vertices[self.faces]

    def triangle_areas(self) -> np.ndarray:
        """Per-face area."""
        tri = self.triangles()
        cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        return 0.5 * np.linalg.norm(cross, axis=1)

    def centroid(self) -> np.ndarray:
        """Area-weighted surface centroid."""
        tri = self.triangles()
        centers = tri.mean(axis=1)
        areas = self.triangle_areas()
        total = areas.sum()
        if total == 0:
            return self.vertices.mean(axis=0)
        return (centers * areas[:, np.newaxis]).sum(axis=0) / total

    # -- transformation --------------------------------------------------

    def transformed(self, transform: Transform) -> "TriangleMesh":
        """Return a new mesh with *transform* applied to every vertex."""
        return TriangleMesh(transform.apply(self.vertices), self.faces.copy())

    def translated(self, offset: np.ndarray) -> "TriangleMesh":
        return self.transformed(Transform.translation(offset))

    def scaled(self, factors: float | np.ndarray) -> "TriangleMesh":
        return self.transformed(Transform.scaling(factors))

    def merged(self, other: "TriangleMesh") -> "TriangleMesh":
        """Concatenate two meshes into one (no welding)."""
        vertices = np.vstack([self.vertices, other.vertices])
        faces = np.vstack([self.faces, other.faces + len(self.vertices)])
        return TriangleMesh(vertices, faces)

    # -- validation ------------------------------------------------------

    def degenerate_faces(self, tolerance: float = 1e-12) -> np.ndarray:
        """Indices of faces with (numerically) zero area."""
        return np.nonzero(self.triangle_areas() <= tolerance)[0]

    def validate(self) -> None:
        """Raise :class:`GeometryError` on structural problems."""
        if not len(self.vertices):
            raise GeometryError("mesh has no vertices")
        if not len(self.faces):
            raise GeometryError("mesh has no faces")
        if not np.all(np.isfinite(self.vertices)):
            raise GeometryError("mesh contains non-finite vertices")
        degenerate = self.degenerate_faces()
        if len(degenerate):
            raise GeometryError(f"mesh contains {len(degenerate)} degenerate faces")


# -- mesh constructors for the analytic primitives ------------------------


def box_mesh(center=(0.0, 0.0, 0.0), size=(1.0, 1.0, 1.0)) -> TriangleMesh:
    """Axis-aligned box as 12 triangles."""
    center = np.asarray(center, dtype=float)
    half = np.asarray(size, dtype=float) / 2.0
    if np.any(half <= 0):
        raise GeometryError("box size must be positive in every dimension")
    corners = np.array(
        [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], dtype=float
    )
    vertices = center + corners * half
    faces = np.array(
        [
            [0, 1, 3], [0, 3, 2],  # x = -1
            [4, 6, 7], [4, 7, 5],  # x = +1
            [0, 4, 5], [0, 5, 1],  # y = -1
            [2, 3, 7], [2, 7, 6],  # y = +1
            [0, 2, 6], [0, 6, 4],  # z = -1
            [1, 5, 7], [1, 7, 3],  # z = +1
        ]
    )
    return TriangleMesh(vertices, faces)


def uv_sphere_mesh(center=(0.0, 0.0, 0.0), radius=0.5, rings=12, segments=24) -> TriangleMesh:
    """Latitude/longitude sphere tessellation."""
    if radius <= 0:
        raise GeometryError("sphere radius must be positive")
    if rings < 2 or segments < 3:
        raise GeometryError("need rings >= 2 and segments >= 3")
    center = np.asarray(center, dtype=float)
    vertices = [center + np.array([0.0, 0.0, radius])]
    for ring in range(1, rings):
        phi = np.pi * ring / rings
        for seg in range(segments):
            theta = 2.0 * np.pi * seg / segments
            vertices.append(
                center
                + radius
                * np.array(
                    [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)]
                )
            )
    vertices.append(center + np.array([0.0, 0.0, -radius]))
    vertices = np.asarray(vertices)

    faces: list[list[int]] = []
    # Top cap.
    for seg in range(segments):
        faces.append([0, 1 + seg, 1 + (seg + 1) % segments])
    # Body quads.
    for ring in range(rings - 2):
        base_a = 1 + ring * segments
        base_b = base_a + segments
        for seg in range(segments):
            a0 = base_a + seg
            a1 = base_a + (seg + 1) % segments
            b0 = base_b + seg
            b1 = base_b + (seg + 1) % segments
            faces.append([a0, b0, b1])
            faces.append([a0, b1, a1])
    # Bottom cap.
    south = len(vertices) - 1
    base = 1 + (rings - 2) * segments
    for seg in range(segments):
        faces.append([south, base + (seg + 1) % segments, base + seg])
    return TriangleMesh(vertices, np.asarray(faces))


def cylinder_mesh(
    center=(0.0, 0.0, 0.0), radius=0.5, height=1.0, segments=24
) -> TriangleMesh:
    """Closed cylinder along z as a triangle mesh."""
    if radius <= 0 or height <= 0:
        raise GeometryError("cylinder radius and height must be positive")
    if segments < 3:
        raise GeometryError("need segments >= 3")
    center = np.asarray(center, dtype=float)
    half = height / 2.0
    ring = np.array(
        [
            [radius * np.cos(2 * np.pi * s / segments), radius * np.sin(2 * np.pi * s / segments)]
            for s in range(segments)
        ]
    )
    bottom = np.column_stack([ring, np.full(segments, -half)])
    top = np.column_stack([ring, np.full(segments, half)])
    vertices = np.vstack([bottom, top, [[0.0, 0.0, -half]], [[0.0, 0.0, half]]]) + center
    faces: list[list[int]] = []
    bottom_center = 2 * segments
    top_center = 2 * segments + 1
    for seg in range(segments):
        nxt = (seg + 1) % segments
        # Side quad.
        faces.append([seg, nxt, segments + nxt])
        faces.append([seg, segments + nxt, segments + seg])
        # Caps.
        faces.append([bottom_center, nxt, seg])
        faces.append([top_center, segments + seg, segments + nxt])
    return TriangleMesh(vertices, np.asarray(faces))


def torus_mesh(
    center=(0.0, 0.0, 0.0),
    major_radius=1.0,
    minor_radius=0.25,
    major_segments=24,
    minor_segments=12,
) -> TriangleMesh:
    """Torus in the xy-plane as a triangle mesh."""
    if major_radius <= 0 or minor_radius <= 0:
        raise GeometryError("torus radii must be positive")
    if major_segments < 3 or minor_segments < 3:
        raise GeometryError("need at least 3 segments in each direction")
    center = np.asarray(center, dtype=float)
    vertices = []
    for i in range(major_segments):
        theta = 2 * np.pi * i / major_segments
        ring_center = np.array([np.cos(theta), np.sin(theta), 0.0]) * major_radius
        for j in range(minor_segments):
            phi = 2 * np.pi * j / minor_segments
            normal = np.array([np.cos(theta) * np.cos(phi), np.sin(theta) * np.cos(phi), np.sin(phi)])
            vertices.append(center + ring_center + minor_radius * normal)
    vertices = np.asarray(vertices)
    faces = []
    for i in range(major_segments):
        for j in range(minor_segments):
            a = i * minor_segments + j
            b = i * minor_segments + (j + 1) % minor_segments
            c = ((i + 1) % major_segments) * minor_segments + j
            d = ((i + 1) % major_segments) * minor_segments + (j + 1) % minor_segments
            faces.append([a, c, d])
            faces.append([a, d, b])
    return TriangleMesh(vertices, np.asarray(faces))
