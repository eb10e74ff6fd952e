"""Repository-level consistency checks: docs, packaging, public API.

These tests keep the documentation honest: every example script exists
and is syntactically valid, every module named in DESIGN.md's inventory
imports, and the public API surface re-exported from ``repro`` works.
"""

import ast
import importlib
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

PUBLIC_MODULES = [
    "repro",
    "repro.cli",
    "repro.core",
    "repro.core.matching",
    "repro.core.min_matching",
    "repro.core.partial",
    "repro.core.permutation",
    "repro.core.queries",
    "repro.core.ranking",
    "repro.clustering",
    "repro.clustering.optics",
    "repro.clustering.xi",
    "repro.datasets",
    "repro.distances",
    "repro.evaluation",
    "repro.evaluation.figures",
    "repro.evaluation.knn_quality",
    "repro.evaluation.table1",
    "repro.evaluation.table2",
    "repro.features",
    "repro.features.beam",
    "repro.features.scaling",
    "repro.geometry",
    "repro.index",
    "repro.index.bulkload",
    "repro.io",
    "repro.normalize",
    "repro.pipeline",
    "repro.voxel",
    "repro.voxel.metrics",
]


class TestImports:
    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_module_imports(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_subpackage_all_exports_resolve(self):
        for module_name in ("repro.core", "repro.features", "repro.index",
                            "repro.clustering", "repro.voxel", "repro.distances"):
            module = importlib.import_module(module_name)
            for name in module.__all__:
                assert getattr(module, name, None) is not None, (module_name, name)


class TestExamples:
    def test_examples_exist_and_parse(self):
        examples = sorted((REPO / "examples").glob("*.py"))
        assert len(examples) >= 3, "need at least three example scripts"
        for path in examples:
            tree = ast.parse(path.read_text())
            docstring = ast.get_docstring(tree)
            assert docstring, f"{path.name} lacks a docstring"
            assert "main" in path.read_text(), f"{path.name} lacks a main()"

    def test_readme_mentions_every_example(self):
        readme = (REPO / "README.md").read_text()
        for path in sorted((REPO / "examples").glob("*.py")):
            assert path.name in readme, f"README does not mention {path.name}"


class TestDocs:
    def test_required_documents_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            assert (REPO / name).exists(), name

    def test_design_references_every_benchmark(self):
        """DESIGN.md promises a bench per table/figure; the files exist."""
        for bench in (
            "test_table1_permutations.py",
            "test_table2_knn_runtimes.py",
            "test_fig5_optics_demo.py",
            "test_fig6_histogram_models.py",
            "test_fig7_cover_sequence.py",
            "test_fig8_permutation_distance.py",
            "test_fig9_vector_set.py",
            "test_fig10_cluster_classes.py",
        ):
            assert (REPO / "benchmarks" / bench).exists(), bench

    def test_readme_cli_lines_name_known_subcommands(self):
        """Every ``python -m repro <command> ...`` line in the README
        names a subcommand the parser actually has."""
        import argparse
        import re

        from repro.cli import _build_parser

        (subparsers,) = (
            action
            for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        readme = (REPO / "README.md").read_text()
        commands = re.findall(r"python -m repro[ \t]+(\S+)", readme)
        assert commands, "README shows no CLI usage"
        assert set(commands) <= set(subparsers.choices), sorted(
            set(commands) - set(subparsers.choices)
        )

    def test_experiments_covers_all_tables_and_figures(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for item in ("Table 1", "Table 2", "Figure 5", "Figure 6", "Figure 7",
                     "Figure 8", "Figure 9", "Figure 10"):
            assert item in text, f"EXPERIMENTS.md misses {item}"

    def test_version_consistency(self):
        import repro

        pyproject = (REPO / "pyproject.toml").read_text()
        assert f'version = "{repro.__version__}"' in pyproject
