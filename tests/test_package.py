"""Package identity: the installed metadata and the module agree."""

from pathlib import Path

import pytest

import dce

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"


def test_pyproject_matches_package_version():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project["name"] == "dce"
    assert project["version"] == dce.__version__
