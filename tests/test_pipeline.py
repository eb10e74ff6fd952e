"""Tests for the end-to-end preparation pipeline."""

import numpy as np
import pytest

from repro.datasets.parts import make_part
from repro.exceptions import ReproError
from repro.features.vector_set_model import VectorSetModel
from repro.core.min_matching import min_matching_distance
from repro.geometry.mesh import box_mesh
from repro.geometry.sdf import Box, Sphere
from repro.pipeline import Pipeline


class TestPipeline:
    def test_process_solid_returns_centered_grid(self):
        pipeline = Pipeline(resolution=15)
        grid, pose = pipeline.process_solid(Box(size=(2.0, 1.0, 0.5)))
        lower, upper = grid.bounding_box()
        slack_low = lower
        slack_high = 14 - upper
        assert np.all(np.abs(slack_low - slack_high) <= 1)
        assert pose.scale_factors[0] > pose.scale_factors[2]

    def test_placement_invariance(self, rng):
        """The pipeline output is identical for any rigid 90-degree
        placement of the same solid — the end-to-end statement of
        Section 3.2's invariances."""
        pipeline = Pipeline(resolution=15)
        part = make_part("door", rng, place=False)
        reference, _ = pipeline.process_solid(part.solid)
        from repro.datasets.parts import random_placement

        for _ in range(4):
            placed = part.solid.transformed(random_placement(rng, mirror=True))
            grid, _ = pipeline.process_solid(placed)
            overlap = (grid.occupancy & reference.occupancy).sum()
            union = (grid.occupancy | reference.occupancy).sum()
            assert overlap / union > 0.55  # resampling noise only

    def test_distances_shrink_under_invariance(self, rng):
        """Matching distance between a part and its rotated copy is
        near zero after the pipeline."""
        pipeline = Pipeline(resolution=15)
        model = VectorSetModel(k=7)
        part = make_part("bracket", rng, place=False)
        from repro.datasets.parts import random_placement

        grid_a, _ = pipeline.process_solid(part.solid)
        grid_b, _ = pipeline.process_solid(
            part.solid.transformed(random_placement(rng))
        )
        same = min_matching_distance(model.extract(grid_a), model.extract(grid_b))
        other = make_part("wing", rng, place=False)
        grid_c, _ = pipeline.process_solid(other.solid)
        different = min_matching_distance(model.extract(grid_a), model.extract(grid_c))
        assert same < different

    def test_process_mesh(self):
        pipeline = Pipeline(resolution=12)
        grid, pose = pipeline.process_mesh(box_mesh(size=(1.0, 2.0, 0.5)))
        assert grid.count > 0

    def test_process_part_carries_metadata(self, rng):
        pipeline = Pipeline(resolution=12)
        part = make_part("tire", rng, name="tire-x", class_id=5)
        processed = pipeline.process_part(part)
        assert processed.name == "tire-x"
        assert processed.class_id == 5
        assert processed.family == "tire"

    def test_canonical_pose_optional(self, rng):
        pipeline_raw = Pipeline(resolution=12, canonical_pose=False)
        part = make_part("door", rng)
        grid, _ = pipeline_raw.process_solid(part.solid)
        assert grid.count > 0

    def test_tiny_resolution_rejected(self):
        with pytest.raises(ReproError):
            Pipeline(resolution=1)

    def test_degenerate_solid_rejected(self):
        pipeline = Pipeline(resolution=8)
        # A sphere fully outside its reported bounds cannot happen, but a
        # zero-measure intersection can: intersection of disjoint boxes.
        degenerate = Box(center=(0, 0, 0)) & Box(center=(10, 10, 10))
        with pytest.raises(ReproError):
            pipeline.process_solid(degenerate)


class TestParallelIngestion:
    """``n_jobs`` parity: parallel ingestion must be indistinguishable
    from serial — same objects, same order, same per-object records —
    because workers run the identical per-object path and results are
    merged in submission order."""

    @pytest.fixture
    def parts(self, rng):
        from repro.datasets.parts import make_part

        return [make_part(family, rng) for family in ("door", "bracket", "tire")]

    def test_process_parts_parallel_matches_serial(self, parts):
        pipeline = Pipeline(resolution=10)
        serial = pipeline.process_parts(parts)
        parallel = pipeline.process_parts(parts, n_jobs=2)
        assert [obj.name for obj in parallel.objects] == [
            obj.name for obj in serial.objects
        ]
        assert [(rec.name, rec.status) for rec in parallel.records] == [
            (rec.name, rec.status) for rec in serial.records
        ]
        for got, expected in zip(parallel.objects, serial.objects):
            assert np.array_equal(got.grid.occupancy, expected.grid.occupancy)
            assert got.class_id == expected.class_id

    def test_parallel_skip_isolates_failing_part(self, parts):
        # The degenerate solid fails inside the worker process (no
        # monkeypatching — that would not cross the fork boundary).
        from repro.datasets.parts import CADPart

        bad = CADPart(
            name="degenerate",
            family="noise",
            class_id=-1,
            solid=Box(center=(0, 0, 0)) & Box(center=(10, 10, 10)),
        )
        mixed = [parts[0], bad, parts[1]]
        pipeline = Pipeline(resolution=10)
        report = pipeline.process_parts(mixed, on_error="skip", n_jobs=2)
        assert [obj.name for obj in report.objects] == [
            parts[0].name, parts[1].name
        ]
        assert not report.all_ok()
        failed = [rec for rec in report.records if rec.status == "failed"]
        assert len(failed) == 1 and failed[0].name == "degenerate"

    def test_parallel_raise_propagates_failure(self, parts):
        from repro.datasets.parts import CADPart

        bad = CADPart(
            name="degenerate",
            family="noise",
            class_id=-1,
            solid=Box(center=(0, 0, 0)) & Box(center=(10, 10, 10)),
        )
        pipeline = Pipeline(resolution=10)
        with pytest.raises(ReproError):
            pipeline.process_parts([parts[0], bad], on_error="raise", n_jobs=2)

    def test_process_mesh_directory_parallel_matches_serial(self, tmp_path):
        from repro.io.stl import write_stl_binary

        for i in range(3):
            write_stl_binary(box_mesh((1.0, 1.0 + i, 0.5)), tmp_path / f"box{i}.stl")
        pipeline = Pipeline(resolution=8)
        serial = pipeline.process_mesh_directory(tmp_path)
        parallel = pipeline.process_mesh_directory(tmp_path, n_jobs=2)
        assert [obj.name for obj in parallel.objects] == [
            obj.name for obj in serial.objects
        ]
        for got, expected in zip(parallel.objects, serial.objects):
            assert np.array_equal(got.grid.occupancy, expected.grid.occupancy)
