"""The benchmark's tracer finds every package name it wraps."""

import importlib.util
from pathlib import Path

from conftest import make_scenario
from dsomarket import analysis, cli, formulation
from dsomarket.scenario_io import save_scenario


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "tracing", Path(__file__).parents[1] / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_installs_and_uninstalls(tmp_path):
    # install looks every traced name up where it is used; a name that a
    # refactor dropped or moved fails here
    originals = (formulation.build, analysis.decode, analysis.compute_revenue,
                 formulation.MilpProblem.__dict__["relaxation_arrays"])
    scenario = make_scenario(T=1)
    path = str(tmp_path / "scenario.json")
    save_scenario(scenario, path)
    tracer = _tracing().Tracer()
    try:
        tracer.install()
        analysis.run_sweep(scenario, "ddgag-x", cases=2, threads=1)
        # a solve decodes its schedule and settles it from there, which a
        # sweep does not
        assert cli.main(["solve", path, "--out", str(tmp_path / "out")]) == 0
        # as bench/passes.py does after each pass; the sweep itself does
        # not read relaxation_arrays, the counters below do
        tracer.size_problems()
    finally:
        tracer.uninstall()
    assert (formulation.build, analysis.decode, analysis.compute_revenue,
            formulation.MilpProblem.__dict__["relaxation_arrays"]) == originals
    names = {span[0] for span in tracer.spans}
    assert {"analysis.run_sweep", "analysis.solve_case", "formulation.build",
            "formulation.relaxation_arrays", "solver.solve_milp",
            "formulation.decode", "analysis.compute_revenue",
            "scenario_io.scenario_hash", "cli.main"} <= names
    # the counters the tracer reads from solve_milp's trace tuples
    count = tracer.counters
    assert count["solver.nodes"] > 0 and count["solver.lp_iterations"] > 0
    assert count["solver.nodes_to_first_incumbent"] <= count["solver.nodes"]
    assert count["formulation.rows"] > 0 and count["formulation.nnz"] > 0
