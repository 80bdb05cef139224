"""LP backend and branch-and-bound: statuses, options, search behavior."""

import inspect
import math
import os
import pickle
import re
import subprocess
import sys
import textwrap
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ladder_rung, reported_solution
from oracles import (
    enumerate_binaries_milp,
    key_of,
    make_lp,
    make_problem,
    package_csr,
    random_milp,
    reference_registry,
    scipy_milp,
    vertex_enumeration_lp,
)
from dsomarket import analysis, solver
from dsomarket.analysis import run_sweep, scale_energy_offers
from dsomarket.casestudy import bundled_case_study
from dsomarket.formulation import LE, build, price_objective
from dsomarket.highs import HIGHS_METHODS, HIGHS_MODULE, highs_bindings
from dsomarket.mps import write_mps
from dsomarket.scenario_io import save_scenario
from dsomarket.solver import (
    INFEASIBLE,
    NODE_LIMIT,
    OPTIMAL,
    UNBOUNDED,
    HighsLp,
    SolveOptions,
    SolverError,
    solve_lp,
    solve_milp,
)


def test_options_reject_bad_values():
    with pytest.raises(ValueError):
        SolveOptions(relative_gap=0.0)
    for name in ("feasibility_tol", "integrality_tol", "relative_gap"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                SolveOptions(**{name: value})


def test_lp_known_optimum():
    # min -x - y  s.t.  x + y <= 1,  0 <= x, y <= 1
    problem = make_lp(c=[-1.0, -1.0], A=[[1.0, 1.0]], b=[1.0],
                      lower=np.zeros(2), upper=np.ones(2))
    res = solve_lp(problem)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(-1.0)
    assert res.values[0] + res.values[1] == pytest.approx(1.0)


# redundant, coincident constraints at the optimum
DEGENERATE_LP = make_lp(
    c=[-1.0, 0.0], A=[[1.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1.0]],
    b=[1.0, 1.0, 2.0, 1.0], lower=np.zeros(2), upper=np.full(2, 10.0))
INFEASIBLE_LP = make_lp(c=[1.0], A=[[-1.0]], b=[-2.0],   # x >= 2
                        lower=np.zeros(1), upper=np.ones(1))
UNBOUNDED_LP = make_lp(c=[-1.0], A=np.empty((0, 1)), b=[],
                       lower=np.zeros(1), upper=[np.inf])


def test_lp_degenerate_still_optimal():
    res = solve_lp(DEGENERATE_LP)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(-1.0)


def test_lp_infeasible_status():
    assert solve_lp(INFEASIBLE_LP).status == INFEASIBLE


def test_lp_unbounded_status():
    assert solve_lp(UNBOUNDED_LP).status == UNBOUNDED


def test_milp_known_knapsack():
    # max 5a + 4b + 3c  s.t.  2a + 3b + c <= 3  ->  a = c = 1
    problem = make_problem(
        c=[-5.0, -4.0, -3.0],
        A=[[2.0, 3.0, 1.0]], senses=[LE], b=[3.0],
        lower=[0, 0, 0], upper=[1, 1, 1], integrality=[True] * 3)
    sol = solve_milp(problem)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-8.0)
    assert sol.values[0] == pytest.approx(1.0)
    assert sol.values[1] == pytest.approx(0.0)
    assert sol.gap <= 1e-6


def test_milp_pure_lp_shortcut():
    problem = make_problem(
        c=[-1.0, -1.0], A=[[1.0, 1.0]], senses=[LE], b=[1.5],
        lower=[0, 0], upper=[1, 1], integrality=[False, False])
    sol = solve_milp(problem)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-1.5)
    assert sol.nodes_explored == 1


def test_milp_infeasible():
    problem = make_problem(
        c=[1.0], A=[[-1.0]], senses=[LE], b=[-2.0],   # x >= 2, x binary
        lower=[0], upper=[1], integrality=[True])
    assert solve_milp(problem).status == INFEASIBLE


def test_milp_unbounded():
    problem = make_problem(
        c=[-1.0, 0.0], A=[[0.0, 1.0]], senses=[LE], b=[1.0],
        lower=[0, 0], upper=[np.inf, 1], integrality=[False, True])
    assert solve_milp(problem).status == UNBOUNDED


def test_milp_rejects_non_binary_integrality():
    problem = make_problem(
        c=[1.0], A=[[1.0]], senses=[LE], b=[5.0],
        lower=[0], upper=[3], integrality=[True])
    with pytest.raises(ValueError):
        solve_milp(problem)


def test_milp_names_the_first_integral_column_out_of_range():
    # column 0 is continuous and unbounded, column 2 integral in [0, 1];
    # of the integral columns 1, 3 (a nan bound) and 4, the first is named
    lower = [-np.inf, -1.0, 0.0, np.nan, 0.0]
    upper = [np.inf, 1.0, 1.0, 1.0, 2.0]
    for j, text in ((1, "[-1.0, 1.0]"), (3, "[nan, 1.0]"), (4, "[0.0, 2.0]")):
        problem = make_problem(
            c=[1.0] * 5, A=[[1.0] * 5], senses=[LE], b=[5.0], lower=lower,
            upper=upper, integrality=[False, True, True, True, True])
        with pytest.raises(ValueError) as err:
            solve_milp(problem)
        assert str(err.value) == (
            f"integral column {j} must be bounded within [0, 1], got {text}")
        lower[j] = 0.0


def _needs_branching():
    # the root cuts leave binaries of ladder rung 2 fractional, so its
    # integer optimum needs a search
    return build(ladder_rung(2))


def test_milp_node_limit_status():
    sol = solve_milp(_needs_branching(), SolveOptions(max_nodes=1))
    assert sol.status in (NODE_LIMIT, OPTIMAL)
    full = solve_milp(_needs_branching())
    assert full.status == OPTIMAL
    oracle, _ = scipy_milp(_needs_branching())
    assert full.objective == pytest.approx(oracle, rel=1e-6)
    assert full.nodes_explored > 1


def test_trace_child_bounds_inherit_parent_objective():
    trace = []
    solve_milp(_needs_branching(), trace=trace)
    assert trace, "trace should record explored nodes"
    assert len(trace) > 1, "no child node was explored"
    for depth, parent_bound, lp_obj, _ in trace:
        if np.isfinite(parent_bound) and np.isfinite(lp_obj):
            # a child relaxation can never beat its parent's bound
            assert lp_obj >= parent_bound - 1e-7


def _problems(source):
    if source == "random":
        rng = np.random.default_rng(7)
        for _ in range(15):
            c, A, b, lower, upper, integrality = random_milp(
                rng, max_binaries=6, max_continuous=8)
            yield make_problem(c, A, [LE] * len(b), b, lower, upper,
                               integrality)
    else:
        yield build(ladder_rung(8, seed=2) if source == "ladder rung 8"
                    else ladder_rung(2))


@pytest.mark.parametrize("source", ["ladder rung 8", "ladder rung 2",
                                    "random"])
def test_nodes_explored_best_first(source):
    # the search pops the open node of least parent bound, so the parent
    # bounds of the explored nodes never fall, up to the rounding of the
    # warm-started node LPs
    branched = 0
    for problem in _problems(source):
        trace = []
        solve_milp(problem, trace=trace)
        bounds = [parent_bound for _, parent_bound, _, _ in trace]
        for earlier, later in zip(bounds, bounds[1:]):
            assert later >= earlier - 1e-9 * max(1.0, abs(earlier))
        branched += len(bounds) > 1
    assert branched, "no problem branched, so no order was checked"


@pytest.mark.parametrize("seed", [7, 8, 9, 10])
def test_search_options_agree_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    for _ in range(15):
        c, A, b, lower, upper, integrality = random_milp(
            rng, max_binaries=6, max_continuous=8)
        problem = make_problem(c, A, [LE] * len(b), b, lower, upper,
                               integrality)
        sol = solve_milp(problem)
        assert sol.status == OPTIMAL
        oracle = enumerate_binaries_milp(
            c, A, b, lower, upper, np.flatnonzero(integrality))
        assert oracle is not None
        assert sol.objective == pytest.approx(oracle, abs=1e-6, rel=1e-6)


def test_lp_matches_vertex_oracle_small_sample():
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = 3
        A = rng.normal(size=(4, n))
        upper = rng.uniform(0.5, 2.0, n)
        x0 = rng.uniform(0, 1, n) * upper
        b = A @ x0 + rng.uniform(0, 1, 4)
        c = rng.normal(size=n)
        res = solve_lp(make_lp(c, A, b, np.zeros(n), upper))
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(
            vertex_enumeration_lp(c, A, b, np.zeros(n), upper), abs=1e-8)


def test_milp_solution_is_feasible_and_integral():
    rng = np.random.default_rng(23)
    for _ in range(10):
        c, A, b, lower, upper, integrality = random_milp(
            rng, max_binaries=5, max_continuous=6)
        problem = make_problem(c, A, [LE] * len(b), b, lower, upper,
                               integrality)
        sol = solve_milp(problem)
        assert sol.status == OPTIMAL
        assert problem.max_residual(sol.values) <= 1e-6
        frac = sol.values[np.flatnonzero(integrality)]
        assert np.all(np.abs(frac - np.round(frac)) <= 1e-6)


# --- the HiGHS backend: status mapping, warm starts, private-API guard ---

# min -x  s.t.  x - w <= 5,  y + z <= 1,  y >= 2: the rows in y and z are
# infeasible, and x = w is a ray along which the objective falls
INFEASIBLE_WITH_RAY_LP = make_lp(
    c=[-1.0, 0.0, 0.0, 0.0],
    A=[[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0], [0.0, 0.0, -1.0, 0.0]],
    b=[5.0, 1.0, -2.0], lower=np.zeros(4), upper=np.full(4, np.inf))


LP_CASES = {"infeasible_with_ray": (INFEASIBLE_WITH_RAY_LP, INFEASIBLE),
            "infeasible": (INFEASIBLE_LP, INFEASIBLE),
            "unbounded": (UNBOUNDED_LP, UNBOUNDED),
            "degenerate": (DEGENERATE_LP, OPTIMAL)}


def _linprog_status(problem):
    A_ub, b_ub, A_eq, b_eq = problem.relaxation_arrays
    res = linprog(problem.objective, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq,
                  b_eq=b_eq,
                  bounds=np.column_stack([problem.lower, problem.upper]),
                  method="highs-ds")
    return {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}[res.status]


@pytest.mark.parametrize("case", list(LP_CASES))
def test_lp_status_matches_linprog(case):
    problem, expected = LP_CASES[case]
    assert _linprog_status(problem) == expected
    res = solve_lp(problem)
    assert res.status == expected
    assert (res.values is not None) == (expected == OPTIMAL)


def _report_status(monkeypatch, name, presolve_too=False):
    """Make HiGHS report model status ``name`` after each run (only with
    presolve off unless ``presolve_too``)."""
    run = HighsLp._run

    def reported(self):
        status, iterations = run(self)
        if presolve_too or not self._presolve:
            status = getattr(HighsLp._core.HighsModelStatus, name)
        return status, iterations
    monkeypatch.setattr(HighsLp, "_run", reported)


@pytest.mark.parametrize("case", ["infeasible_with_ray", "infeasible",
                                  "unbounded"])
def test_unbounded_or_infeasible_settled_by_presolve(monkeypatch, case):
    problem, expected = LP_CASES[case]
    _report_status(monkeypatch, "kUnboundedOrInfeasible")
    assert solve_lp(problem).status == expected == _linprog_status(problem)


@pytest.mark.parametrize("name,presolve_too", [
    ("kUnboundedOrInfeasible", True),
    ("kSolveError", False),
    ("kTimeLimit", False),
])
def test_other_model_statuses_raise(monkeypatch, name, presolve_too):
    _report_status(monkeypatch, name, presolve_too)
    with pytest.raises(SolverError, match=name):
        solve_lp(INFEASIBLE_LP)


def _with_nan(values):
    values = np.array(values, dtype=float)
    values.flat[0] = np.nan
    return values


# HiGHS reads its input buffers by the counts it is given, so every length
# must be checked against the objective and the matrix shapes before the
# model is loaded.  DEGENERATE_LP's rows are all <= rows, so the ids name
# A and rhs by the relaxation block they form, A_ub and b_ub.
@pytest.mark.parametrize("changes", [
    {"objective": _with_nan(DEGENERATE_LP.objective)},
    {"A": replace(DEGENERATE_LP.A, data=_with_nan(DEGENERATE_LP.A.data))},
    {"rhs": _with_nan(DEGENERATE_LP.rhs)},
    {"objective": DEGENERATE_LP.objective[None, :]},
    {"lower": np.zeros(1)},
    {"upper": np.full(3, 10.0)},
    {"A": package_csr([[1.0], [1.0], [2.0], [1.0]])},
    {"rhs": DEGENERATE_LP.rhs[:3]},
    {"sense": DEGENERATE_LP.sense[:3]},
    {"sense": np.array([LE, LE, ">", LE])},
], ids=["c nan", "A_ub nan", "b_ub nan", "c 2-D", "lower short",
        "upper long", "A_ub narrow", "b_ub short", "sense short",
        "sense unknown"])
def test_lp_rejects_malformed_input(changes):
    with pytest.raises(ValueError):
        solve_lp(replace(DEGENERATE_LP, **changes))
    # a loaded model checks the costs and bounds of each later solve as well
    model = HighsLp(SolveOptions())
    solve_lp(DEGENERATE_LP, model=model)
    if {"objective", "lower", "upper"} >= set(changes):
        with pytest.raises(ValueError):
            solve_lp(replace(DEGENERATE_LP, **changes), model=model)


@pytest.mark.parametrize("sense", [">", "=>", "="])
def test_unknown_sense_is_refused(sense, tmp_path):
    # x (sense) 2 with 0 <= x <= 5: an unknown sense used to be read as <=
    # by the solver and the residuals, and was a KeyError in the MPS writer
    problem = make_problem([1.0], [[1.0]], [sense], [2.0], [0], [5], [False])
    path = tmp_path / "problem.mps"
    x = np.zeros(1)
    for use, args in ((solve_lp, [problem]), (solve_milp, [problem]),
                      (problem.row_bounds, []),
                      (problem.row_residuals, [x]),
                      (problem.max_residual, [x]),
                      (write_mps, [problem, str(path)])):
        with pytest.raises(ValueError, match=f"row 0 \\(row0\\) has sense "
                                             f"'{sense}'"):
            use(*args)
    assert not path.exists()


def test_model_refuses_another_lp():
    model = HighsLp(SolveOptions())
    solve_lp(DEGENERATE_LP, model=model)
    # equal rows rebuilt into new arrays are another constraint system
    A = DEGENERATE_LP.A
    for rebuilt in ({"A": replace(A, data=A.data.copy())},
                    {"sense": DEGENERATE_LP.sense.copy()},
                    {"rhs": DEGENERATE_LP.rhs.copy()}):
        with pytest.raises(ValueError):
            solve_lp(replace(DEGENERATE_LP, **rebuilt), model=model)
    # another objective over the held rows is re-solved
    other = replace(DEGENERATE_LP, objective=np.array([1.0, 0.0]))
    assert solve_lp(other, model=model).objective == 0.0


def _node_fix_sets(s, problem, rng):
    """A seeded sequence of node-fix sets ({column: value}) of the
    scenario's problem that mixes random binary fixes with the cases a
    warm start must get right."""
    int_cols = np.flatnonzero(problem.integrality)
    reg = reference_registry(s)

    def random_fixes():
        cols = rng.choice(int_cols, size=len(int_cols) // 2, replace=False)
        return {int(j): float(rng.integers(0, 2)) for j in cols}

    base = random_fixes()
    free = int(next(j for j in int_cols if j not in base))
    # a discharging storage that must charge at full rate: no LP point
    _, t, esag = key_of(reg, int(int_cols[0]))     # ("b_es", t, name)
    mode, charge = reg[("b_es", t, esag)], reg[("P_ch", t, esag)]
    conflict = {mode: 1.0, charge: float(problem.upper[charge])}
    root = solve_lp(_node(problem, {}))
    dive = {int(j): float(np.floor(root.values[j] + 0.5)) for j in int_cols}
    return [
        ("root", {}),
        ("random", base),
        ("fix", {**base, free: 1.0}),
        ("unfix", base),
        ("infeasible", {**base, **conflict}),
        ("after infeasible", {**base, mode: 1.0}),
        ("rounding dive", dive),
        ("next node", {free: 0.0}),
        ("random", random_fixes()),
        ("random", random_fixes()),
    ]


def _node(problem, fixes):
    lower, upper = problem.lower.copy(), problem.upper.copy()
    for j, v in fixes.items():
        lower[j] = upper[j] = v
    return replace(problem, lower=lower, upper=upper)


@pytest.mark.parametrize("scenario", ["bundled", "ladder rung 2"])
def test_persistent_model_matches_fresh_model(scenario):
    s = bundled_case_study() if scenario == "bundled" else ladder_rung(2)
    problem = build(s)
    rng = np.random.default_rng(20240611)
    opts = SolveOptions()
    model = HighsLp(opts)
    warm_iterations = cold_iterations = 0
    statuses = {}
    for label, fixes in _node_fix_sets(s, problem, rng):
        node = _node(problem, fixes)
        warm = solve_lp(node, opts, model)
        cold = solve_lp(node, opts)
        statuses[label] = warm.status
        assert warm.status == cold.status, label
        if cold.status == OPTIMAL:
            assert abs(warm.objective - cold.objective) <= \
                1e-9 * max(1.0, abs(cold.objective)), label
            assert problem.max_residual(warm.values) <= 1e-6, label
        warm_iterations += warm.iterations
        cold_iterations += cold.iterations
    assert statuses["infeasible"] == INFEASIBLE
    assert statuses["after infeasible"] == OPTIMAL
    assert warm_iterations < cold_iterations


def _sweep_costs(s, problem, rng):
    """An endless seeded draw of sweep-case objectives: a random
    aggregator's energy offers scaled by a random multiplier."""
    names = [cfg.name for _, cfg in s.aggregators()]
    while True:
        name = names[rng.integers(len(names))]
        multiplier = float(rng.choice([0.1, 0.5, 1.0, 2.0, 4.0]))
        yield price_objective(scale_energy_offers(s, name, multiplier),
                              problem.registry)[0]


@pytest.mark.parametrize("scenario", ["bundled", "ladder rung 2"])
def test_cost_changes_match_fresh_model(scenario):
    s = bundled_case_study() if scenario == "bundled" else ladder_rung(2)
    problem = build(s)
    rng = np.random.default_rng(20240612)
    costs = _sweep_costs(s, problem, rng)
    opts = SolveOptions()
    model = HighsLp(opts)
    c = problem.objective
    warm_iterations = cold_iterations = 0
    for label, fixes in _node_fix_sets(s, problem, rng):
        # new bounds under the held costs, then new costs under those bounds
        for step in ("bounds", "costs"):
            if step == "costs":
                c = next(costs)
            node = replace(_node(problem, fixes), objective=c)
            warm = solve_lp(node, opts, model)
            cold = solve_lp(node, opts)
            assert warm.status == cold.status, (label, step)
            if cold.status == OPTIMAL:
                assert abs(warm.objective - cold.objective) <= \
                    1e-9 * max(1.0, abs(cold.objective)), (label, step)
                assert problem.max_residual(warm.values) <= 1e-6
            warm_iterations += warm.iterations
            cold_iterations += cold.iterations
    assert warm_iterations < cold_iterations


def test_change_costs_rejects_bad_vectors():
    model = HighsLp(SolveOptions())
    solve_lp(DEGENERATE_LP, model=model)
    c = DEGENERATE_LP.objective
    for bad in (_with_nan(c), np.zeros(3), c[None, :], np.full(2, np.inf)):
        with pytest.raises(ValueError):
            solve_lp(replace(DEGENERATE_LP, objective=bad), model=model)
        # a rejected objective leaves the held LP as it was: re-solving
        # under the held costs sends HiGHS no cost
        assert solve_lp(DEGENERATE_LP, model=model).objective == -1.0
    other = replace(DEGENERATE_LP, objective=np.array([1.0, 0.0]))
    assert solve_lp(other, model=model).objective == 0.0
    assert solve_lp(DEGENERATE_LP, model=model).objective == -1.0


def test_milp_start_seeds_the_incumbent(bundled, bundled_problem,
                                        bundled_solution):
    problem, best = bundled_problem, bundled_solution
    gap = SolveOptions().relative_gap * max(1.0, abs(best.objective))
    int_cols = np.flatnonzero(problem.integrality)
    # every storage charging and every EV station off: feasible, not optimal
    worse = solve_lp(_node(problem, {int(j): 0.0 for j in int_cols}))
    assert worse.status == OPTIMAL and worse.objective > best.objective + 1.0
    for start in (best.values, worse.values):
        seeded = solve_milp(problem, start=start)
        assert seeded.status == OPTIMAL
        assert abs(seeded.objective - best.objective) <= gap
        assert seeded.objective <= problem.objective @ start + gap

    reg = reference_registry(bundled)
    balance = reg[("P_sub", 1)]                 # in the hour-1 balance row
    voltage = reg[("V", 1, 1)]
    shifts = {"fractional": (int(int_cols[0]), 0.5),
              "above a bound": (voltage, problem.upper[voltage] + 1e-3),
              "off a row": (balance, best.values[balance] + 1e-3)}
    for label, (j, value) in shifts.items():
        bad = best.values.copy()
        bad[j] = value
        with pytest.raises(ValueError, match="start"):
            solve_milp(problem, start=bad)
    with pytest.raises(ValueError, match="start"):
        solve_milp(problem, start=best.values[:-1])


def test_highs_row_i_is_build_row_i(bundled_problem):
    # HiGHS holds the rows in build order, so its row activities, and any
    # duals or row indices read off the model, are indexed by row_names
    model = HighsLp(SolveOptions())
    lp = solve_lp(bundled_problem, model=model)
    assert lp.status == OPTIMAL
    activity = np.asarray(model._highs.getSolution().row_value)
    assert activity.shape == (len(bundled_problem.row_names),)
    assert np.max(np.abs(activity - bundled_problem.A @ lp.values)) <= 1e-9


def test_restored_model_resolves_without_iterations(bundled_problem):
    # a state carries the held costs, bounds, root cuts and basis over to a
    # fresh instance, through pickle as a sweep's worker processes get it
    model = HighsLp(SolveOptions())
    assert solve_milp(bundled_problem, model=model).status == OPTIMAL
    assert model.cuts
    held = solve_lp(bundled_problem, model=model)
    state = pickle.loads(pickle.dumps(model.state()))
    restored = HighsLp(SolveOptions())
    restored.restore(bundled_problem, state)
    assert len(restored.cuts) == len(model.cuts)
    assert all(np.array_equal(a, b) for cuts in zip(restored.cuts, model.cuts)
               for a, b in zip(*cuts))
    again = solve_lp(bundled_problem, model=restored)
    assert again.status == OPTIMAL and again.iterations == 0
    # the restored model holds the pickled state exactly; its solution is
    # the held vertex, up to the rounding of a refactorised basis
    after = restored.state()
    for name in ("c", "lower", "upper", "col_status", "row_status"):
        mine, theirs = getattr(after, name), getattr(state, name)
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
    assert len(after.cuts) == len(state.cuts)
    assert all(np.array_equal(a, b) for cuts in zip(after.cuts, state.cuts)
               for a, b in zip(*cuts))
    assert again.objective == pytest.approx(held.objective, rel=1e-12)
    # a state fits only a problem of its own size, and needs a held LP
    with pytest.raises(ValueError, match="does not fit"):
        HighsLp(SolveOptions()).restore(DEGENERATE_LP, state)
    with pytest.raises(ValueError, match="holds no LP"):
        HighsLp(SolveOptions()).state()


def test_restores_of_one_state_solve_alike(bundled, bundled_problem,
                                           bundled_solution):
    # two chunks that restore one snapshot solve their next case alike
    model = HighsLp(SolveOptions())
    solve_milp(bundled_problem, model=model)
    state = model.state()
    case = scale_energy_offers(bundled, "esag-1", 0.2)
    problem = replace(bundled_problem, objective=price_objective(
        case, bundled_problem.registry)[0])
    solutions = []
    for _ in range(2):
        restored = HighsLp(SolveOptions())
        restored.restore(bundled_problem, state)
        solutions.append(solve_milp(problem, model=restored,
                                    start=bundled_solution.values))
    a, b = solutions
    assert a.status == b.status == OPTIMAL
    assert a.values.tobytes() == b.values.tobytes()
    assert (a.objective, a.nodes_explored, a.lp_iterations) == \
        (b.objective, b.nodes_explored, b.lp_iterations)


def test_highs_bindings_guard(monkeypatch):
    core = highs_bindings()
    assert all(callable(getattr(core._Highs, name))
               for name in HIGHS_METHODS)
    # the list covers every call solver.py makes on a HiGHS instance
    called = set(re.findall(r"self\._highs\.(\w+)\(",
                            inspect.getsource(solver)))
    assert called == set(HIGHS_METHODS)

    # the node LPs' bound changes, the tableau reads and row additions of
    # the root cuts, and the basis a state carries to a restored model
    assert {"getBasicVariables", "getReducedRow", "getBasisInverseRow",
            "addRows", "getBasis", "setBasis"} < called
    for missing in ("changeColsBounds", "getReducedRow", "addRows",
                    "setBasis"):
        stub = types.ModuleType("stub_highs")
        stub._Highs = type("_Highs", (), {name: None for name in HIGHS_METHODS
                                          if name != missing})
        monkeypatch.setitem(sys.modules, HIGHS_MODULE, stub)
        with pytest.raises(ImportError,
                           match=rf"scipy>=1\.17.*_Highs\.{missing}$"):
            highs_bindings()
    monkeypatch.setitem(sys.modules, HIGHS_MODULE, None)
    with pytest.raises(ImportError, match=r"scipy>=1\.17"):
        highs_bindings()


# --- root cuts: validity, and the cut-free fallback ---

def _record_cuts(monkeypatch) -> list:
    """Every cut row any HighsLp adds from now on, as ``HighsLp.cuts``
    gives them, including cuts a later fallback drops."""
    added = []
    separate = HighsLp.separate_cuts

    def recorded(self, *args):
        count = separate(self, *args)
        added.extend(self.cuts[len(self.cuts) - count:])
        return count
    monkeypatch.setattr(HighsLp, "separate_cuts", recorded)
    return added


def _worst_cut_slack(cuts, points) -> float:
    """The least ``coefficients @ x[columns] - lower`` over cuts and points;
    negative where a point violates a cut."""
    return min(coefs @ x[cols] - lower
               for cols, coefs, lower in cuts for x in points)


@pytest.mark.parametrize("scenario", ["bundled", "ladder rung 4"])
def test_cuts_hold_at_scipy_milp_optimum(monkeypatch, scenario):
    cuts = _record_cuts(monkeypatch)
    problem = build(bundled_case_study() if scenario == "bundled"
                    else ladder_rung(4))
    sol = solve_milp(problem)
    oracle, x = scipy_milp(problem)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(oracle, rel=1e-6)
    assert cuts, "no cut was separated, so none was checked"
    # cut rows have largest coefficient 1
    assert _worst_cut_slack(cuts, [x]) >= -1e-7


@pytest.mark.parametrize("target", ["drag-1", "esag-1", "evcs-1",
                                    "ddgag-1"])
def test_cuts_hold_at_every_sweep_optimum(monkeypatch, bundled, target):
    # the cases share their rows, so every case's optimum must satisfy
    # every cut any chunk separated
    cuts = _record_cuts(monkeypatch)
    optima = []
    real = analysis.solve_milp

    def recorded(*args, **kwargs):
        sol = real(*args, **kwargs)
        optima.append(sol.values)
        return sol
    monkeypatch.setattr(analysis, "solve_milp", recorded)
    result = run_sweep(bundled, target, threads=1)
    assert {case.status for case in result.cases} == {OPTIMAL}
    # a case its bracket certifies reports one of the solved optima
    assert all(reported_solution(bundled, target, case, optima) is not None
               for case in result.cases)
    assert cuts, "no cut was separated, so none was checked"
    assert _worst_cut_slack(cuts, optima) >= -1e-7


@st.composite
def _small_milps(draw):
    """A small MILP with whole-number coefficients on its binaries, which
    makes fractional roots and GMI cuts common, and a known feasible point:
    (c, A, b, lower, upper, integrality) for ``A x <= b``."""
    nb = draw(st.integers(2, 6))
    nc = draw(st.integers(0, 3))
    m = draw(st.integers(1, 4))
    coef = st.integers(-6, 9).map(float)
    A = np.array([[draw(coef) for _ in range(nb)]
                  + [draw(st.floats(-3, 3)) for _ in range(nc)]
                  for _ in range(m)]).reshape(m, nb + nc)
    upper = np.array([1.0] * nb + [draw(st.floats(0.5, 4)) for _ in range(nc)])
    x0 = np.array([float(draw(st.integers(0, 1))) for _ in range(nb)]
                  + [draw(st.floats(0, 1)) * u for u in upper[nb:]])
    b = A @ x0 + np.array([draw(st.floats(0, 3)) for _ in range(m)])
    c = np.array([float(draw(st.integers(-9, 6))) for _ in range(nb)]
                 + [draw(st.floats(-3, 3)) for _ in range(nc)])
    return c, A, b, np.zeros(nb + nc), upper, np.arange(nb + nc) < nb


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_small_milps())
def test_cut_search_matches_enumeration(case):
    c, A, b, lower, upper, integrality = case
    problem = make_problem(c, A, [LE] * len(b), b, lower, upper, integrality)
    model = HighsLp(SolveOptions())
    sol = solve_milp(problem, model=model)
    oracle = enumerate_binaries_milp(c, A, b, lower, upper,
                                     np.flatnonzero(integrality))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(oracle, abs=1e-6, rel=1e-6)
    assert problem.max_residual(sol.values) <= 1e-6
    if model.cuts:
        assert _worst_cut_slack(model.cuts, [sol.values]) >= -1e-7


@pytest.mark.parametrize("failure", ["node LP status Unknown",
                                     "cut round Infeasible"])
def test_failed_lp_on_cut_model_goes_on_cut_free(monkeypatch, failure):
    problem = _needs_branching()
    expected = solve_milp(problem)
    cuts = _record_cuts(monkeypatch)
    run = HighsLp._run
    forced = []

    def failing(self):
        status, iterations = run(self)
        node = (self._lower != problem.lower).any() or \
            (self._upper != problem.upper).any()
        if self.cuts and not forced and (
                node if failure.startswith("node") else not node):
            forced.append(status.name)
            status = HighsLp._core.HighsModelStatus.kUnknown \
                if failure.startswith("node") \
                else HighsLp._core.HighsModelStatus.kInfeasible
        return status, iterations
    monkeypatch.setattr(HighsLp, "_run", failing)
    model = HighsLp(SolveOptions())
    # the start makes the incumbent known at the root, so an Infeasible
    # cut round shows that a cut is wrong
    start = expected.values if failure.startswith("cut") else None
    sol = solve_milp(problem, model=model, start=start)
    assert forced and cuts
    assert model.cuts == (), "the search did not go on cut-free"
    assert sol.status == OPTIMAL
    assert abs(sol.objective - expected.objective) <= \
        SolveOptions().relative_gap * abs(expected.objective)


def _fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this dsomarket."""
    src = str(Path(solver.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True,
                          timeout=120)


def test_import_skips_scipy_optimize():
    proc = _fresh("""
        import sys
        import dsomarket
        print(sorted(m for m in ("scipy.optimize", "scipy.special",
                                 "scipy.linalg") if m in sys.modules))
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def test_load_and_validate_skip_numpy_scipy_and_hashing(tmp_path):
    # the lazy package promises that reading a scenario loads no numeric
    # stack; hashlib too stays out until a scenario is hashed
    path = str(tmp_path / "bundled.json")
    save_scenario(bundled_case_study(), path)
    proc = _fresh(f"""
        import sys
        import dsomarket
        scenario = dsomarket.load_scenario({path!r})
        assert dsomarket.validate_scenario(scenario).ok
        print(sorted(m for m in ("numpy", "scipy", {HIGHS_MODULE!r},
                                 "hashlib") if m in sys.modules))
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def test_commands_skip_scipy_sparse(tmp_path):
    # the matrix, the HiGHS load and the MPS export use numpy arrays only
    scenario, out = str(tmp_path / "bundled.json"), str(tmp_path / "out")
    proc = _fresh(f"""
        import sys
        import dsomarket
        from dsomarket import analysis, cli
        loaded = ["scipy.sparse" in sys.modules]
        assert cli.main(["bundled", "--out", {scenario!r}]) == 0
        assert cli.main(["solve", {scenario!r}, "--out", {out!r}]) == 0
        loaded.append("scipy.sparse" in sys.modules)
        result = analysis.run_sweep(
            dsomarket.load_scenario({scenario!r}), "ddgag-1",
            cases=2 * analysis.CHUNK_CASES, threads=1)
        assert {{case.status for case in result.cases}} == {{"Optimal"}}
        loaded.append("scipy.sparse" in sys.modules)
        print(*loaded)
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "False"]


def test_scipy_optimize_after_dsomarket_shares_bindings():
    proc = _fresh("""
        import importlib
        import numpy as np
        from dsomarket import highs, solver
        from scipy.optimize import linprog, milp
        lp = linprog([1, 1], A_ub=[[-1, -1]], b_ub=[-1])
        ip = milp([1, 1], integrality=[1, 1],
                  constraints=([[1, 1]], 1.5, np.inf))
        core = importlib.import_module(highs.HIGHS_MODULE)
        print(lp.status, lp.fun, ip.status, ip.fun,
              core is solver.highs_bindings())
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1.0", "0", "2.0", "True"]


def test_dsomarket_after_scipy_optimize_reuses_bindings():
    proc = _fresh("""
        import scipy.optimize._highspy._core as core
        from dsomarket import solver
        print(core is solver.highs_bindings())
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]


def test_missing_bindings_file_names_scipy_version():
    proc = _fresh("""
        import importlib.machinery
        importlib.machinery.EXTENSION_SUFFIXES = [".missing"]
        import dsomarket
    """)
    assert proc.returncode == 1
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError: dsomarket needs scipy>=1.17")
    assert os.path.join("scipy", "optimize", "_highspy") in last


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts this process's threads in /proc")
def test_highs_solve_starts_no_thread():
    # a heavy sweep forks its workers after case 1 has run in its process;
    # with the threads option at 0, the first HiGHS run would start a task
    # scheduler thread per two hardware threads of the host
    proc = _fresh("""
        import os
        from dsomarket import analysis, bundled_case_study
        from dsomarket.solver import SolveOptions
        def threads():
            return len(os.listdir("/proc/self/task"))
        before = threads()
        chunk = analysis._Chunk(bundled_case_study(), "ddgag-1",
                                SolveOptions())
        case = analysis._solve_case(chunk, 1)
        print(case.status, threads() - before,
              chunk.model._highs.getOptionValue("threads")[1])
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [OPTIMAL, "0", "1"]
