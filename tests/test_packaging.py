"""Packaging metadata agrees with the dependencies it declares."""

import re
import tomllib
from importlib.metadata import metadata
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _floor(spec: str) -> tuple[int, ...]:
    """The highest ``>=X.Y`` lower bound of a Requires-Python spec."""
    floors = [tuple(map(int, m)) for m in
              re.findall(r">=\s*(\d+)\.(\d+)", spec)]
    assert floors, f"no >= bound in {spec!r}"
    return max(floors)


@pytest.mark.parametrize("dependency", ["numpy", "scipy"])
def test_python_floor_covers_dependencies(dependency):
    with open(PYPROJECT, "rb") as fh:
        ours = _floor(tomllib.load(fh)["project"]["requires-python"])
    theirs = metadata(dependency)["Requires-Python"]
    assert ours >= _floor(theirs), (
        f"requires-python floor {ours} is below {dependency}'s {theirs}")
