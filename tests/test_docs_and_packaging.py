"""Repository-level consistency checks: docs, packaging, public API.

These tests keep the documentation honest: every example script exists
and is syntactically valid, every module named in DESIGN.md's inventory
imports, the public API surface re-exported from ``repro`` works, and no
module sits in ``src/`` that no serving, reproduction or example path
imports, nor a public callable that none of them names.
"""

import ast
import importlib
from collections import Counter
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
    "repro.clustering",
    "repro.clustering.optics",
    "repro.datasets",
    "repro.evaluation",
    "repro.evaluation.figures",
    "repro.evaluation.knn_quality",
    "repro.evaluation.table1",
    "repro.evaluation.table2",
    "repro.features",
    "repro.features.scaling",
    "repro.geometry",
    "repro.index",
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
                            "repro.clustering", "repro.voxel"):
            module = importlib.import_module(module_name)
            for name in module.__all__:
                assert getattr(module, name, None) is not None, (module_name, name)


SRC = REPO / "src"

#: Where the import walk starts: what a user runs (CLI, examples), what
#: the benchmark judges, and what regenerates the paper's tables, figures
#: and the committed leave-one-out table.  Unit tests and ablation
#: benches are deliberately not roots: "reached only by its own test" is
#: the state the walk exists to catch.
REACH_ROOT_MODULES = ("repro.cli", "repro.__main__")
REACH_ROOT_SCRIPTS = (
    "examples/*.py",
    "benchmarks/e2e/*.py",
    "benchmarks/test_table*.py",
    "benchmarks/test_fig*.py",
    "benchmarks/test_knn_classification.py",
)

#: Modules no root reaches, each with the recorded reason it stays.  A
#: new entry needs the same verdict: wire it, record why it stays, or
#: delete it.
UNREACHED_ON_PURPOSE = {
    "repro.normalize.pca": "paper §3.2 principal-axis transform",
    "repro.voxel.metrics": (
        "paper §3.3.3 symmetric volume difference, the oracle "
        "tests/test_extensions.py holds the greedy extraction's error to"
    ),
    "repro.io.vox": (
        "persisted form of the paper's input unit (a voxel grid), hardened "
        "by tests/test_io_malformed.py; stays until an ingest path reads it "
        "or a later trial removes it"
    ),
}

#: Public callables of reached modules that no root names, each with one
#: of five reasons to stay: (a) a reference implementation a named test
#: compares against, (b) fault or crash infrastructure the tests arm,
#: (c) a digest the differential machines compare, (d) a trace target
#: ``benchmarks/e2e/layers.py`` names by string (until the benchmark
#: stops tracing it), (e) a writer or generator of test inputs.
UNREFERENCED_ON_PURPOSE = {
    "repro.core.centroid.centroid_lower_bound": (
        "(a) Lemma 2 in scalar form, held under the exact distance by "
        "tests/test_core_centroid.py::TestLemma2::test_lower_bound_property"
    ),
    "repro.core.min_matching.euclidean_cross_reference": (
        "(a) tests/test_core_min_matching.py::TestCrossDistances::"
        "test_gram_form_matches_broadcast_reference"
    ),
    "repro.core.permutation.permutation_distance_bruteforce": (
        "(a) tests/test_core_permutation.py::TestEquivalence::"
        "test_bruteforce_equals_matching_reduction"
    ),
    "repro.core.queries.FilterRefineEngine.knn_sequential": (
        "(a) the sequential-scan answer, "
        "tests/test_core_queries.py::TestKnn::test_filter_equals_sequential"
    ),
    "repro.features.cover_sequence.CoverSequence.approximation": (
        "(a) S_k rebuilt from the covers, tests/test_extensions.py::"
        "TestVoxelMetrics::test_cover_sequence_error_agrees"
    ),
    "repro.voxel.grid.VoxelGrid.center_of_mass": (
        "(a) the written mean of the canonical pose, tests/test_normalize.py::"
        "TestNormalizationMatchesTheWrittenFormulas::test_canonical_pose"
    ),
    "repro.index.rstar.RStarTree.knn": (
        "(a) tests/test_array_core.py::test_core_queries_equal_pointer"
    ),
    "repro.index.rstar.RStarTree.range_search": (
        "(a) tests/test_array_core.py::test_core_queries_equal_pointer"
    ),
    "repro.index.rstar.RStarTree.node_count": (
        "(a) tests/test_extensions.py::TestBulkLoad::test_packed_tree_is_smaller"
    ),
    "repro.testing.faults.armed_crash_point": "(b)",
    "repro.testing.faults.corrupt_bytes": "(b)",
    "repro.testing.faults.fail_always": "(b)",
    "repro.testing.faults.fail_every": "(b)",
    "repro.testing.faults.fail_first": "(b)",
    "repro.testing.faults.fail_once": "(b)",
    "repro.testing.faults.never_fail": "(b)",
    "repro.testing.faults.read_faults": "(b)",
    "repro.testing.faults.savez_faults": "(b)",
    "repro.testing.faults.tamper_npz_array": "(b)",
    "repro.testing.faults.voxelization_faults": "(b)",
    "repro.db.core.SimilarityDatabase.engine_digest": "(c)",
    "repro.db.sharded.ShardedSimilarityDatabase.index_digests": "(c)",
    "repro.db.sharded.ShardedSimilarityDatabase.sketch_digests": "(c)",
    "repro.index.arraycore.RTreeArrayCore.ranking_chunks": "(d) index.ranking_chunks",
    "repro.index.arraycore.densify": "(d) index.densify",
    "repro.geometry.mesh.uv_sphere_mesh": "(e)",
    "repro.io.stl.write_stl_ascii": "(e)",
}

#: Flagged callables with none of the five reasons whose deletion would
#: retire more of their own tests than one change should; each is to go
#: in a later change, with the tests whose only subject it is.
DELETION_DEFERRED = {
    "repro.index.rstar.RStarTree.insert_box",
    "repro.obs.tracectx.trace_context",
    "repro.voxel.morphology.connected_components",
    "repro.voxel.morphology.dilate",
    "repro.voxel.voxelize.voxelize_points",
}


def _source_modules() -> dict[str, Path]:
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imported_modules(path: Path, modules: dict[str, Path]) -> set[str]:
    """Non-package ``repro`` modules the file at *path* imports, at any
    depth of the syntax tree (function-level lazy imports included)."""

    def is_package(name):
        return modules[name].name == "__init__.py"

    def defining_modules(module, name, seen=frozenset()):
        """What ``from module import name`` really imports: the module
        itself, or - through a package's ``__init__`` - the submodule the
        name is re-exported from, so a re-export is not a caller.  A name
        an ``__init__`` defines itself reaches nothing."""
        if module not in modules or (module, name) in seen:
            return set()
        if not is_package(module):
            return {module}
        submodule = f"{module}.{name}"
        if submodule in modules:
            return set() if is_package(submodule) else {submodule}
        for node in ast.parse(modules[module].read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        return defining_modules(
                            node.module, alias.name, seen | {(module, name)}
                        )
        return set()

    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path}: relative import"
            for alias in node.names:
                assert alias.name != "*", f"{path}: star import"
                found |= defining_modules(node.module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in modules and not is_package(alias.name):
                    found.add(alias.name)
    return found


def _reached(roots, modules: dict[str, Path]) -> set[str]:
    """Every module the *roots* import, directly or transitively, the
    roots included."""
    pending, reached = list(roots), set()
    while pending:
        module = pending.pop()
        if module not in reached:
            reached.add(module)
            pending.extend(_imported_modules(modules[module], modules))
    return reached


def _root_scripts() -> list[Path]:
    scripts = []
    for pattern in REACH_ROOT_SCRIPTS:
        matched = sorted(REPO.glob(pattern))
        assert matched, f"root pattern matches nothing: {pattern}"
        scripts.extend(matched)
    return scripts


def _reached_from_roots(modules: dict[str, Path]) -> set[str]:
    roots = list(REACH_ROOT_MODULES)
    for script in _root_scripts():
        roots.extend(_imported_modules(script, modules))
    return _reached(roots, modules)


def _referenced_names(tree: ast.AST) -> Counter:
    """Every identifier *tree* uses: names, attribute names and imported
    names.  Matching by name over-approximates callers, never misses one."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _public_callables(tree: ast.Module):
    """``(qualified name, definition)`` of every public top-level function
    and class of a module, and of every public method of its classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, kinds) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member


class TestReachability:
    def test_every_module_is_reached(self):
        """"Exported, tested, never called" is not a state a module can
        be in: every non-``__init__`` module under ``src/repro`` is
        imported - directly or transitively - from a serving,
        reproduction or example path, or carries a recorded reason."""
        modules = _source_modules()
        reached = _reached_from_roots(modules)
        unreached = {
            name for name, path in modules.items()
            if path.name != "__init__.py" and name not in reached
        }
        unexplained = sorted(unreached - set(UNREACHED_ON_PURPOSE))
        assert not unexplained, (
            "no CLI, example, benchmark or table/figure path imports "
            f"{unexplained}: wire them, delete them, or record a reason in "
            "UNREACHED_ON_PURPOSE"
        )
        stale = sorted(set(UNREACHED_ON_PURPOSE) - unreached)
        assert not stale, f"allow-listed but reached or gone: {stale}"

    def test_every_public_callable_is_referenced(self):
        """The same rule one level down: every public function, class and
        method of a reached module is named by a reached module or a root
        script somewhere outside its own definition, or carries a recorded
        reason in ``UNREFERENCED_ON_PURPOSE``."""
        modules = _source_modules()
        trees = {name: ast.parse(modules[name].read_text())
                 for name in _reached_from_roots(modules)}
        scripts = [ast.parse(path.read_text()) for path in _root_scripts()]
        referenced = Counter()
        for tree in [*trees.values(), *scripts]:
            referenced += _referenced_names(tree)
        unreferenced = set()
        for module, tree in trees.items():
            for qualname, node in _public_callables(tree):
                own = _referenced_names(node)[node.name]
                if referenced[node.name] <= own:
                    unreferenced.add(f"{module}.{qualname}")
        allowed = set(UNREFERENCED_ON_PURPOSE) | DELETION_DEFERRED
        unexplained = sorted(unreferenced - allowed)
        assert not unexplained, (
            "no CLI, example, benchmark or table/figure path names "
            f"{unexplained}: call them, delete them, or record a reason in "
            "UNREFERENCED_ON_PURPOSE"
        )
        stale = sorted(allowed - unreferenced)
        assert not stale, f"allow-listed but referenced or gone: {stale}"
        layers = (REPO / "benchmarks/e2e/layers.py").read_text()
        for name, reason in UNREFERENCED_ON_PURPOSE.items():
            assert reason[:3] in {"(a)", "(b)", "(c)", "(d)", "(e)"}, name
            if reason.startswith("(a)"):
                path, *_, test = reason.split("tests/", 1)[1].split("::")
                assert f"def {test}(" in (REPO / "tests" / path).read_text(), name
            if reason.startswith("(d)"):
                assert f'"{name.rsplit(".", 1)[1]}"' in layers, name

    def test_the_database_imports_no_pointer_tree(self):
        """The database ranks with the array core alone: ``repro.db``, the
        core, its pack and the snapshot containers reach no pointer tree,
        so the R*- and X-trees serve Table 2 and the ablations only."""
        modules = _source_modules()
        pointer_trees = {f"repro.index.{name}" for name in ("rstar", "xtree")}
        serving = [name for name in modules if name.split(".")[:2] == ["repro", "db"]]
        serving += ["repro.index.arraycore", "repro.index.snapshot", "repro.index.dense"]
        for root in serving:
            leaked = sorted(_reached([root], modules) & pointer_trees)
            assert not leaked, f"{root} imports {leaked}"


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
