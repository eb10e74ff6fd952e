"""Tests for triangle meshes and the mesh primitive constructors."""

import numpy as np
import pytest

from repro.exceptions import GeometryError
from repro.geometry.mesh import (
    TriangleMesh,
    box_mesh,
    cylinder_mesh,
    torus_mesh,
    uv_sphere_mesh,
)
from repro.geometry.transform import Transform


class TestTriangleMesh:
    def test_surface_area_of_unit_box(self):
        mesh = box_mesh(size=(1.0, 1.0, 1.0))
        assert mesh.triangle_areas().sum() == pytest.approx(6.0)

    def test_bounds(self):
        mesh = box_mesh(center=(1.0, 2.0, 3.0), size=(2.0, 4.0, 6.0))
        lower, upper = mesh.bounds()
        assert np.allclose(lower, [0.0, 0.0, 0.0])
        assert np.allclose(upper, [2.0, 4.0, 6.0])

    def test_centroid_of_symmetric_box(self):
        mesh = box_mesh(center=(1.0, -1.0, 0.5))
        assert np.allclose(mesh.centroid(), [1.0, -1.0, 0.5])

    def test_transform_preserves_topology(self):
        mesh = box_mesh()
        moved = mesh.transformed(Transform.rotation("z", 0.3))
        assert moved.num_faces == mesh.num_faces
        assert moved.triangle_areas().sum() == pytest.approx(mesh.triangle_areas().sum())

    def test_scaling_scales_area_quadratically(self):
        mesh = box_mesh()
        area = mesh.triangle_areas().sum()
        assert mesh.scaled(2.0).triangle_areas().sum() == pytest.approx(4 * area)

    def test_merge_offsets_indices(self):
        a, b = box_mesh(), box_mesh(center=(5.0, 0.0, 0.0))
        merged = a.merged(b)
        assert merged.num_vertices == a.num_vertices + b.num_vertices
        assert merged.num_faces == a.num_faces + b.num_faces
        merged.validate()

    def test_face_index_out_of_range_rejected(self):
        with pytest.raises(GeometryError):
            TriangleMesh(np.zeros((2, 3)), np.array([[0, 1, 2]]))

    def test_degenerate_face_detection(self):
        vertices = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]], dtype=float)
        mesh = TriangleMesh(vertices, np.array([[0, 1, 2], [0, 1, 3]]))
        assert list(mesh.degenerate_faces()) == [0]
        with pytest.raises(GeometryError):
            mesh.validate()

    def test_nonfinite_vertices_rejected_by_validate(self):
        vertices = np.array([[0, 0, 0], [1, 0, 0], [np.nan, 1, 0]], dtype=float)
        mesh = TriangleMesh(vertices, np.array([[0, 1, 2]]))
        with pytest.raises(GeometryError):
            mesh.validate()


class TestPrimitiveMeshes:
    def test_sphere_area_approximates_analytic(self):
        mesh = uv_sphere_mesh(radius=1.0, rings=40, segments=80)
        assert mesh.triangle_areas().sum() == pytest.approx(4 * np.pi, rel=0.01)

    def test_cylinder_area_approximates_analytic(self):
        mesh = cylinder_mesh(radius=1.0, height=2.0, segments=96)
        analytic = 2 * np.pi * 1.0 * 2.0 + 2 * np.pi  # side + two caps
        assert mesh.triangle_areas().sum() == pytest.approx(analytic, rel=0.01)

    def test_torus_area_approximates_analytic(self):
        mesh = torus_mesh(major_radius=1.0, minor_radius=0.3, major_segments=60, minor_segments=30)
        analytic = 4 * np.pi**2 * 1.0 * 0.3
        assert mesh.triangle_areas().sum() == pytest.approx(analytic, rel=0.02)

    @pytest.mark.parametrize(
        "factory",
        [box_mesh, uv_sphere_mesh, cylinder_mesh, torus_mesh],
        ids=["box", "sphere", "cylinder", "torus"],
    )
    def test_primitives_are_valid(self, factory):
        factory().validate()

    def test_sphere_parameter_validation(self):
        with pytest.raises(GeometryError):
            uv_sphere_mesh(radius=-1.0)
        with pytest.raises(GeometryError):
            uv_sphere_mesh(rings=1)

    def test_primitive_size_validation(self):
        with pytest.raises(GeometryError):
            box_mesh(size=(0.0, 1.0, 1.0))
        with pytest.raises(GeometryError):
            cylinder_mesh(segments=2)
        with pytest.raises(GeometryError):
            torus_mesh(minor_radius=0.0)
