"""Packaging metadata agrees with the dependencies it declares, and every
public name of the package resolves."""

import json
import os
import re
import subprocess
import sys
import textwrap
import tomllib
from importlib.metadata import metadata, requires
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


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


def test_public_names_resolve():
    # a new interpreter, so that each name is first looked up through the
    # package's lazy __getattr__
    code = textwrap.dedent("""
        import importlib, json
        import dsomarket
        bound = [n for n in dsomarket.__all__ if n in vars(dsomarket)]
        wrong = [n for n in dsomarket.__all__ if getattr(dsomarket, n)
                 is not getattr(importlib.import_module(
                     "dsomarket." + dsomarket._EXPORTS[n]), n)]
        print(json.dumps([len(dsomarket.__all__), bound, wrong]))
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    count, bound, wrong = json.loads(proc.stdout)
    assert count > 0 and bound == [] and wrong == []
