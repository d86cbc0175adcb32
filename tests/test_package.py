"""Package identity: the installed metadata and the module agree, the
runtime needs numpy only, and the library holds no name only tests use."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dce

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"
LIBRARY = Path(dce.__file__).parent
ORACLES = Path(__file__).parent / "oracles.py"

TEST_ONLY = ("scipy", "pytest", "hypothesis", "oracles", "helpers")
# Public names the library defines but never uses, each with the reason.
UNUSED_BY_DESIGN = {
    # raised by the tests' lattice oracles and by perfbench/test_harness.py,
    # which is versioned with the benchmark rather than with the library
    "errors.NoFeasiblePoint",
}
SOLVERS = {"solve_reciprocal", "condense", "solve_inner_gp", "solve_allocation"}


def test_pyproject_matches_package_version():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project["name"] == "dce"
    assert project["version"] == dce.__version__


def test_runtime_loads_no_test_dependency(tmp_path):
    """A fresh interpreter imports dce and runs ``dce alloc`` for each
    scheme without loading scipy, pytest, hypothesis or the tests' own
    ``oracles`` and ``helpers``; the suite itself imports them, so only a
    separate process can see a stray import."""
    script = (
        "import json, sys\n"
        "import dce\n"
        "import dce.cli as cli\n"
        "codes = [cli.main(['alloc', '--scheme', scheme, '--out', sys.argv[1]])\n"
        "         for scheme in (dce.RECIPROCAL, dce.NON_RECIPROCAL)]\n"
        "loaded = sorted({name.split('.')[0] for name in sys.modules}\n"
        f"                & set({TEST_ONLY!r}))\n"
        "print(json.dumps({'codes': codes, 'loaded': loaded}))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(dce.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "alloc.csv")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0], "loaded": []}


def _loaded_names(tree: ast.AST) -> set:
    """Every name a module reads: Name and Attribute loads and imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names


def _public_definitions(tree: ast.Module) -> set:
    """The public names a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_library_defines_no_name_only_tests_use():
    """Each public top-level name of a ``dce`` module is read somewhere in
    the library (``__init__``'s re-exports do not count as a use), and the
    tests' lattice oracles reach no solver: they score points with the
    closed forms alone, so they stay an independent check on the solvers."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(LIBRARY.glob("*.py")) if path.stem != "__init__"}
    loaded = set().union(*map(_loaded_names, trees.values()))
    unused = {f"{module}.{name}" for module, tree in trees.items()
              for name in _public_definitions(tree) - loaded}
    assert unused == UNUSED_BY_DESIGN
    assert not _loaded_names(ast.parse(ORACLES.read_text())) & SOLVERS
