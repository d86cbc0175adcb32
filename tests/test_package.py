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

TEST_ONLY = ("scipy", "pytest", "hypothesis", "oracles", "helpers",
             "reference_estimators", "reference_ostbc")
# Public names the library defines but never uses, each with the reason.
UNUSED_BY_DESIGN = {
    # raised by the tests' lattice oracles and by perfbench/test_harness.py,
    # which is versioned with the benchmark rather than with the library
    "errors.NoFeasiblePoint",
}
SOLVERS = {"solve_reciprocal", "condense", "solve_inner_gp", "solve_allocation"}
# ``dce.__all__``.  A name with no caller outside the package's modules and
# the tests is imported from its module instead.
EXPORTED = {
    "ConfigError", "DceError", "ExperimentConfig", "GpState", "Infeasible",
    "InfeasibleGamma", "NON_RECIPROCAL", "NoFeasiblePoint", "NonFiniteOutcome",
    "NotConverged", "PowerAllocation", "RECIPROCAL", "ResultTable", "Stalled",
    "SystemParams", "UnsupportedGeometry", "complex_gaussian", "condense",
    "default_params", "forward_training", "initial_feasible_state",
    "linear_to_db", "nmse_l_nonreciprocal_approx", "nmse_l_reciprocal",
    "nmse_lower_bound", "nmse_u", "null_space_basis", "reciprocal_allocation",
    "reverse_training", "round_trip_training", "run_nmse_experiment",
    "run_ser_experiment", "sample_channels", "solve_allocation",
    "solve_inner_gp", "solve_reciprocal", "trial_rng",
    "with_fixed_energy_budgets",
    # submodules
    "alloc_reciprocal", "config", "errors", "gp", "montecarlo", "nmse",
    "ostbc", "params", "rng", "tables", "training",
}


def test_pyproject_matches_package_version():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project["name"] == "dce"
    assert project["version"] == dce.__version__


def test_exported_names_are_pinned():
    """``dce.__all__`` is every public name ``__init__`` binds, and that set
    is this list: a name joins or leaves the package surface only here."""
    assert set(dce.__all__) == EXPORTED


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


def _public_definitions(tree: ast.Module) -> dict:
    """The public names a module binds at its top level, and the public
    methods of its classes as ``Class.method``, each mapped to the name a
    use of it reads."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names.update((f"{node.name}.{item.name}", item.name) for item in node.body
                         if isinstance(item, ast.FunctionDef))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update((t.id, t.id) for t in targets if isinstance(t, ast.Name))
    return {qual: name for qual, name in names.items() if not name.startswith("_")}


def test_library_defines_no_name_only_tests_use():
    """Each public top-level name of a ``dce`` module, and each public method
    of its classes, is read somewhere in the library (``__init__``'s
    re-exports do not count as a use), and the tests' lattice oracles reach
    no solver: they score points with the closed forms alone, so they stay
    an independent check on the solvers."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(LIBRARY.glob("*.py")) if path.stem != "__init__"}
    loaded = set().union(*map(_loaded_names, trees.values()))
    unused = {f"{module}.{qual}" for module, tree in trees.items()
              for qual, name in _public_definitions(tree).items() if name not in loaded}
    assert unused == UNUSED_BY_DESIGN
    assert not _loaded_names(ast.parse(ORACLES.read_text())) & SOLVERS
