"""Repository-level consistency checks: docs, packaging, public API.

These tests keep the documentation honest: every example script exists
and is syntactically valid, every module named in DESIGN.md's inventory
imports, the public API surface re-exported from ``repro`` works, and no
module sits in ``src/`` that no serving, reproduction or example path
imports.
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
    "repro.index.mtree": (
        "paper §4.3 access-structure ablation (metric index on the sets vs "
        "centroid filter), benchmarks/test_ablation_index_structures.py; "
        "PR 24's verdict"
    ),
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


class TestReachability:
    def test_every_module_is_reached(self):
        """"Exported, tested, never called" is not a state a module can
        be in: every non-``__init__`` module under ``src/repro`` is
        imported - directly or transitively - from a serving,
        reproduction or example path, or carries a recorded reason."""
        modules = _source_modules()
        roots = list(REACH_ROOT_MODULES)
        for pattern in REACH_ROOT_SCRIPTS:
            scripts = sorted(REPO.glob(pattern))
            assert scripts, f"root pattern matches nothing: {pattern}"
            for script in scripts:
                roots.extend(_imported_modules(script, modules))
        reached = _reached(roots, modules)
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

    def test_the_database_imports_no_pointer_tree(self):
        """The database ranks with the array core alone: ``repro.db``, the
        core, its pack and the snapshot containers reach no pointer tree,
        so the R*-/X-/M-trees serve Table 2 and the ablations only."""
        modules = _source_modules()
        pointer_trees = {f"repro.index.{name}" for name in ("rstar", "xtree", "mtree")}
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
