"""scipy's private HiGHS bindings (``scipy.optimize._highspy._core``),
found and loaded without importing scipy.

Importing scipy or ``scipy.optimize`` would pull in numpy, linprog,
scipy.linalg, scipy.special and more that this package never uses, so the
extension is looked up as a file inside scipy's package folders
(:func:`highs_core_file`, which importing ``dsomarket`` calls) and loaded
from there (:func:`highs_bindings`, which importing ``dsomarket.solver``
calls).  Either raises ImportError naming the scipy version needed: the
first when the file is missing, the second when the extension lacks a
method the solver calls.  This module imports nothing outside the
standard library.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

HIGHS_MODULE = "scipy.optimize._highspy._core"
SCIPY_NEEDED = "scipy>=1.17"

# Every method of the private ``_Highs`` class that solver.HighsLp calls.
HIGHS_METHODS = ("setOptionValue", "passModel", "changeColsBounds",
                 "changeColsCost", "run", "getModelStatus",
                 "modelStatusToString", "getInfo", "getSolution",
                 "getBasicVariables", "getReducedRow", "getBasisInverseRow",
                 "addRows", "getBasis", "setBasis")


def highs_core_file() -> str:
    """The file of scipy's HiGHS extension (``HIGHS_MODULE``), found in
    scipy's package folders without importing scipy; ImportError naming
    the scipy version needed if there is none."""
    spec = importlib.util.find_spec("scipy")
    roots = (spec.submodule_search_locations or []) if spec else []
    folders = [os.path.join(root, "optimize", "_highspy") for root in roots]
    files = [os.path.join(folder, "_core" + suffix) for folder in folders
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next(filter(os.path.isfile, files), None)
    if path is None:
        raise ImportError(
            f"dsomarket needs {SCIPY_NEEDED}: the HiGHS bindings "
            f"{HIGHS_MODULE} have no _core extension file in "
            f"{', '.join(folders) or 'an installed scipy'}")
    return path


def highs_bindings():
    """scipy's private HiGHS bindings, checked to have every method in
    ``HIGHS_METHODS``; ImportError naming the scipy version needed otherwise.

    A module already in ``sys.modules`` is used as is.  Otherwise the
    extension is loaded from :func:`highs_core_file`, without running
    ``scipy/optimize/__init__.py``, and registered under its dotted name,
    so a later ``import scipy.optimize`` reuses it instead of initialising
    it again."""
    if HIGHS_MODULE in sys.modules:
        core = sys.modules[HIGHS_MODULE]
        if core is None:
            raise ImportError(
                f"dsomarket needs {SCIPY_NEEDED}: cannot import the HiGHS "
                f"bindings {HIGHS_MODULE} (None in sys.modules)")
    else:
        path = highs_core_file()
        loader = importlib.machinery.ExtensionFileLoader(HIGHS_MODULE, path)
        core = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(HIGHS_MODULE, path,
                                                   loader=loader))
        loader.exec_module(core)
        sys.modules[HIGHS_MODULE] = core
    missing = [name for name in HIGHS_METHODS
               if not hasattr(getattr(core, "_Highs", None), name)]
    if missing:
        raise ImportError(
            f"dsomarket needs {SCIPY_NEEDED}: the HiGHS bindings "
            f"{HIGHS_MODULE} lack _Highs.{', _Highs.'.join(missing)}")
    return core
