"""Packaging metadata agrees with the dependencies it declares."""

import re
import tomllib
from importlib.metadata import metadata, requires
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _floor(spec: str) -> tuple[int, ...]:
    """The highest ``>=X.Y[.Z]`` lower bound of a version spec."""
    floors = [tuple(map(int, m.split("."))) for m in
              re.findall(r">=\s*(\d+(?:\.\d+)+)", spec)]
    assert floors, f"no >= bound in {spec!r}"
    return max(floors)


@pytest.mark.parametrize("dependency", ["numpy", "scipy"])
def test_python_floor_covers_dependencies(dependency):
    with open(PYPROJECT, "rb") as fh:
        ours = _floor(tomllib.load(fh)["project"]["requires-python"])
    theirs = metadata(dependency)["Requires-Python"]
    assert ours >= _floor(theirs), (
        f"requires-python floor {ours} is below {dependency}'s {theirs}")


def test_numpy_floor_covers_scipy():
    with open(PYPROJECT, "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    ours = _floor(next(d for d in deps if d.startswith("numpy")))
    theirs = next(r for r in requires("scipy") if r.startswith("numpy"))
    assert ours >= _floor(theirs), (
        f"numpy floor {ours} is below scipy's {theirs}")
