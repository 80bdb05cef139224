"""The benchmark's tracer finds every package name it wraps."""

import importlib.util
from pathlib import Path

from conftest import make_scenario
from dsomarket import analysis, formulation


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "tracing", Path(__file__).parents[1] / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_installs_and_uninstalls():
    # install looks every traced name up where it is used; a name that a
    # refactor dropped or moved fails here
    originals = (formulation.build, analysis.decode, analysis.compute_revenue,
                 formulation.MilpProblem.__dict__["relaxation_arrays"])
    tracer = _tracing().Tracer()
    try:
        tracer.install()
        analysis.run_sweep(make_scenario(T=1), "ddgag-x", cases=2, threads=1)
    finally:
        tracer.uninstall()
    assert (formulation.build, analysis.decode, analysis.compute_revenue,
            formulation.MilpProblem.__dict__["relaxation_arrays"]) == originals
    names = {span[0] for span in tracer.spans}
    assert {"analysis.run_sweep", "analysis.solve_case", "formulation.build",
            "formulation.relaxation_arrays", "solver.solve_milp",
            "formulation.decode", "analysis.compute_revenue",
            "scenario_io.scenario_hash"} <= names
    # the counters the tracer reads from solve_milp's trace tuples
    count = tracer.counters
    assert count["solver.nodes"] > 0 and count["solver.lp_iterations"] > 0
    assert count["solver.nodes_to_first_incumbent"] <= count["solver.nodes"]
