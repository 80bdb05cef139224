"""DSO coordination of DER aggregator market offers.

Build a scenario (or load the bundled case study), compile it into a
mixed-integer linear program, solve it, and decompose the resulting
schedule into per-aggregator revenues.

The public names below are imported from their modules on first use
(PEP 562), so loading or validating a scenario imports ``model`` and
``scenario_io`` only, without numpy, scipy or HiGHS.  Importing the
package still checks that scipy's HiGHS extension file is there
(:func:`dsomarket.highs.highs_core_file`), without importing scipy.
"""

import importlib
import sys

from .highs import HIGHS_MODULE, highs_core_file

# public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(("EntityRevenue", "RevenueReport", "StaleSchedule",
                     "SweepCase", "SweepResult", "compute_revenue",
                     "run_sweep"), "analysis"),
    "bundled_case_study": "casestudy",
    **dict.fromkeys(("MilpProblem", "Schedule", "VariableRegistry", "build",
                     "decode"), "formulation"),
    **dict.fromkeys(("Scenario", "ValidationReport", "per_unit_view",
                     "validate_scenario"), "model"),
    **dict.fromkeys(("ResultBundle", "export_results", "load_scenario",
                     "save_scenario", "scenario_hash"), "scenario_io"),
    **dict.fromkeys(("LpResult", "MilpSolution", "SolveOptions", "solve_lp",
                     "solve_milp"), "solver"),
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"

if HIGHS_MODULE not in sys.modules:
    highs_core_file()


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
