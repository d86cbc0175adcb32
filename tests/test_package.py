"""Package identity: the installed metadata and the module agree, and the
runtime needs numpy only."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dce

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

TEST_ONLY = ("scipy", "pytest", "hypothesis")


def test_pyproject_matches_package_version():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project["name"] == "dce"
    assert project["version"] == dce.__version__


def test_runtime_loads_no_test_dependency(tmp_path):
    """A fresh interpreter imports dce and runs ``dce alloc`` for each
    scheme without loading scipy, pytest or hypothesis; the suite itself
    imports scipy, so only a separate process can see a stray import."""
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
