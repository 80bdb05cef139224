"""Acceptance suite: one printed PASS/FAIL line per criterion.

Criteria:
  1. branch-and-bound matches binary-assignment enumeration on >=200
     random MILPs (1e-6 relative, < 60 s of solver time)
  2. LP backend matches a vertex-enumeration oracle on >=20 random LPs
     (1e-8) and returns correct degenerate/infeasible/unbounded statuses
  3. the bundled case solves to Optimal (gap <= 1e-6) in < 60 s with all
     constraint residuals <= 1e-6 p.u. and the substation aggregation
     identities exact to 1e-9
  4. exactly 24 storage-mode binaries + 1 EV enable binary; EV columns are
     pinned to zero outside hours 16-24
  5. mode binaries exclude the opposite (dis)charge products; the EV fleet
     terminal charge lands in [0.9, 1.0] x its capacity when enabled
  6. the substation exports energy in at least 5 of the 6 high-price hours
  7. storage sweep offer-weighted energy (energy revenue / multiplier)
     is non-increasing over cases 2-11 up to the solver-gap allowance;
     under pay-as-bid settlement its total revenue has no such guarantee
     and is only printed; generation sweep capacity revenue is constant
     over cases 16-40; both 40-case sweeps finish in < 30 min
  8. two identical CLI solve runs and two identical sweep runs produce
     byte-identical output files
  9. solving in natural units and through the per-unit view gives equal
     objectives (1e-9 relative)
"""

import time

import numpy as np
import pytest

from conftest import first_energy_rise
from oracles import (
    enumerate_binaries_milp,
    make_lp,
    make_problem,
    random_lp,
    random_milp,
    reference_registry,
    vertex_enumeration_lp,
)
from dsomarket import cli
from dsomarket.analysis import run_sweep
from dsomarket.formulation import LE, build
from dsomarket.model import per_unit_view
from dsomarket.scenario_io import save_scenario
from dsomarket.solver import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    SolveOptions,
    solve_lp,
    solve_milp,
)

HIGH_PRICE_HOURS = (8, 9, 18, 19, 20, 21)


@pytest.fixture()
def report(capsys):
    def _report(num: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    return _report


def test_criterion_1_milp_matches_enumeration(report):
    rng = np.random.default_rng(20240824)
    solver_time = 0.0
    worst = 0.0
    cases = 0
    for trial in range(200):
        # keep a handful of large binary counts; enumeration is O(2^nb)
        nb_cap = 12 if trial % 20 == 0 else 8
        c, A, b, lower, upper, integrality = random_milp(
            rng, max_binaries=nb_cap, max_continuous=30)
        problem = make_problem(c, A, [LE] * len(b), b, lower, upper,
                               integrality)
        start = time.monotonic()
        sol = solve_milp(problem)
        solver_time += time.monotonic() - start
        assert sol.status == OPTIMAL
        oracle = enumerate_binaries_milp(
            c, A, b, lower, upper, np.flatnonzero(integrality))
        assert oracle is not None
        rel = abs(sol.objective - oracle) / max(1.0, abs(oracle))
        worst = max(worst, rel)
        cases += 1
    ok = cases >= 200 and worst <= 1e-6 and solver_time < 60.0
    report(1, ok, f"{cases} random MILPs, worst relative error "
                  f"{worst:.2e}, solver time {solver_time:.1f}s")
    assert cases >= 200
    assert worst <= 1e-6
    assert solver_time < 60.0


def test_criterion_2_lp_matches_vertex_oracle(report):
    rng = np.random.default_rng(31415)
    worst = 0.0
    for _ in range(20):
        c, A, b, lower, upper = random_lp(rng)
        res = solve_lp(make_lp(c, A, b, lower, upper))
        assert res.status == OPTIMAL
        oracle = vertex_enumeration_lp(c, A, b, lower, upper)
        assert oracle is not None
        worst = max(worst, abs(res.objective - oracle))
    # textbook statuses
    degenerate = solve_lp(make_lp(
        c=[-1.0, 0.0], A=[[1.0, 0.0], [1.0, 0.0], [1.0, 1.0]],
        b=[1.0, 1.0, 1.0], lower=np.zeros(2), upper=np.full(2, 10.0)))
    infeasible = solve_lp(make_lp(
        c=[1.0], A=[[-1.0]], b=[-2.0], lower=np.zeros(1), upper=np.ones(1)))
    unbounded = solve_lp(make_lp(
        c=[-1.0], A=np.empty((0, 1)), b=[], lower=np.zeros(1),
        upper=[np.inf]))
    statuses_ok = (degenerate.status == OPTIMAL
                   and degenerate.objective == pytest.approx(-1.0)
                   and infeasible.status == INFEASIBLE
                   and unbounded.status == UNBOUNDED)
    ok = worst <= 1e-8 and statuses_ok
    report(2, ok, f"20 random LPs, worst error {worst:.2e}; "
                  f"degenerate/infeasible/unbounded statuses "
                  f"{'correct' if statuses_ok else 'WRONG'}")
    assert worst <= 1e-8
    assert statuses_ok


def test_criterion_3_bundled_solve(report, bundled, bundled_problem,
                                   bundled_schedule):
    start = time.monotonic()
    solution = solve_milp(bundled_problem)
    elapsed = time.monotonic() - start
    residual = bundled_problem.max_residual(solution.values)
    residual_pu = residual / bundled.network.s_base
    agg_residual = max(
        r for name, r in zip(bundled_problem.row_names,
                             bundled_problem.row_residuals(solution.values))
        if name.startswith("agg_"))
    ok = (solution.status == OPTIMAL and solution.gap <= 1e-6
          and elapsed < 60.0 and residual_pu <= 1e-6
          and agg_residual <= 1e-9)
    report(3, ok, f"status {solution.status}, gap {solution.gap:.1e}, "
                  f"{elapsed:.2f}s, max residual {residual_pu:.1e} p.u., "
                  f"aggregation residual {agg_residual:.1e}")
    assert solution.status == OPTIMAL
    assert solution.gap <= 1e-6
    assert elapsed < 60.0
    assert residual_pu <= 1e-6
    assert agg_residual <= 1e-9


def test_criterion_4_binary_structure(report, bundled, bundled_problem):
    reg = bundled_problem.registry
    n_es = len(reg.hourly(("b_es", cfg.name) for cfg in bundled.esags))
    n_ev = len(reg.hourly(("b_ev", cfg.name) for cfg in bundled.evcss))
    ref = reference_registry(bundled)
    window = set(bundled.evcss[0].availability)
    pinned = all(
        bundled_problem.lower[ref[(fam, t, "evcs-1")]] == 0.0
        and bundled_problem.upper[ref[(fam, t, "evcs-1")]] == 0.0
        for t in bundled.horizon.steps if t not in window
        for fam in ("P", "r_up", "r_dn"))
    ok = (n_es == 24 and n_ev == 1
          and int(bundled_problem.integrality.sum()) == 25
          and window == set(range(16, 25)) and pinned)
    report(4, ok, f"{n_es} storage binaries + {n_ev} EV binary; EV columns "
                  f"outside hours 16-24 {'pinned' if pinned else 'FREE'}")
    assert n_es == 24 and n_ev == 1
    assert int(bundled_problem.integrality.sum()) == 25
    assert pinned


def test_criterion_5_binary_semantics(report, bundled, bundled_problem,
                                      bundled_solution, bundled_schedule):
    reg = reference_registry(bundled)
    x = bundled_solution.values
    tol = 1e-6
    mode_ok = True
    for t in bundled.horizon.steps:
        b = x[reg[("b_es", t, "esag-1")]]
        p_ch = x[reg[("P_ch", t, "esag-1")]]
        p_di = x[reg[("P_di", t, "esag-1")]]
        if b > 0.5:
            mode_ok &= p_ch <= tol
        else:
            mode_ok &= p_di <= tol
    cfg = bundled.evcss[0]
    sig = bundled.regulation
    dt = bundled.horizon.step_hours
    idx = {t: i for i, t in enumerate(bundled.horizon.steps)}
    terminal = cfg.e_init + cfg.gamma_ch * dt * sum(
        bundled_schedule.energy[cfg.name][t]
        + sig.mu_up[idx[t]] * bundled_schedule.cap_up[cfg.name][t]
        - sig.mu_dn[idx[t]] * bundled_schedule.cap_dn[cfg.name][t]
        for t in cfg.availability)
    enabled = bundled_schedule.evcs_enabled[cfg.name] == 1
    window_ok = (not enabled) or (
        0.9 * cfg.cl_max - tol <= terminal <= cfg.cl_max + tol)
    ok = mode_ok and window_ok
    report(5, ok, f"storage mode exclusion {'holds' if mode_ok else 'FAILS'}"
                  f"; EV enabled={int(enabled)}, terminal charge "
                  f"{terminal:.3f} MWh in [{0.9 * cfg.cl_max}, {cfg.cl_max}]")
    assert mode_ok
    assert window_ok


def test_criterion_6_net_seller_high_price_hours(report, bundled,
                                                 bundled_schedule):
    matches = []
    details = []
    for t in HIGH_PRICE_HOURS:
        p = bundled_schedule.p_sub[t]
        sells = p > 1e-6
        matches.append(sells)
        if not sells:
            # residual price comparison for the deviating hour
            ti = t - bundled.horizon.steps[0]
            offers = {name: o.energy[ti]
                      for name, o in bundled.offers.items()}
            details.append(
                f"hour {t}: P_sub={p:.3f} MW, wholesale "
                f"{bundled.wholesale.energy[ti]}, offers {offers}")
    n = sum(matches)
    ok = n >= 5
    exports = {t: round(bundled_schedule.p_sub[t], 3)
               for t in HIGH_PRICE_HOURS}
    report(6, ok, f"net seller in {n}/6 high-price hours; exports {exports}"
                  + ("; " + "; ".join(details) if details else ""))
    assert n >= 5, details


@pytest.fixture(scope="module")
def sweeps(bundled):
    start = time.monotonic()
    esag = run_sweep(bundled, "esag-1")
    ddgag = run_sweep(bundled, "ddgag-1")
    return esag, ddgag, time.monotonic() - start


def test_criterion_7_storage_sweep_revenue_non_increasing(report, sweeps):
    esag, _, elapsed = sweeps
    assert all(c.status == OPTIMAL for c in esag.cases)
    cases = esag.cases[1:11]
    energies = [round(c.revenue.entities["esag-1"].energy / c.multiplier, 1)
                for c in cases]
    totals = [round(c.revenue.entities["esag-1"].total, 1) for c in cases]
    rise = first_energy_rise(cases, "esag-1", SolveOptions().relative_gap)
    ok = rise is None and elapsed < 1800.0
    verdict = "non-increasing" if rise is None else "NOT non-increasing"
    report(7, ok, f"storage offer-weighted energy cases 2-11 {energies} "
                  f"{verdict}; pay-as-bid total revenue {totals} $; "
                  f"sweeps took {elapsed:.0f}s")
    assert elapsed < 1800.0
    if rise is not None:
        prev, case, e_prev, e, allowance = rise
        pytest.fail(
            f"storage offer-weighted energy rises from case {prev.index} "
            f"to case {case.index}: {e_prev:.6f} -> {e:.6f} $, more than "
            f"the solver-gap allowance {allowance:.2e} $")


def test_criterion_7_generation_sweep_capacity_constant(report, sweeps):
    _, ddgag, elapsed = sweeps
    assert all(c.status == OPTIMAL for c in ddgag.cases)
    caps = [ddgag.cases[i - 1].revenue.entities["ddgag-1"].capacity
            for i in range(16, 41)]
    spread = max(caps) - min(caps)
    ok = spread <= 1e-6 and elapsed < 1800.0
    report(7, ok, f"generation capacity revenue cases 16-40 constant at "
                  f"{caps[0]:.2f} $ (spread {spread:.1e}); "
                  f"sweeps took {elapsed:.0f}s")
    assert spread <= 1e-6
    assert elapsed < 1800.0


def test_criterion_8_byte_identical_reruns(report, bundled, tmp_path):
    scenario_path = tmp_path / "case.json"
    save_scenario(bundled, str(scenario_path))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["solve", str(scenario_path), "--out", str(out_a),
                     "--mps", str(tmp_path / "a.mps")]) == 0
    assert cli.main(["solve", str(scenario_path), "--out", str(out_b),
                     "--mps", str(tmp_path / "b.mps")]) == 0
    solve_files = ("schedule.csv", "network.csv", "revenue.csv", "solve.json")
    solve_same = all((out_a / f).read_bytes() == (out_b / f).read_bytes()
                     for f in solve_files)
    mps_same = ((tmp_path / "a.mps").read_bytes()
                == (tmp_path / "b.mps").read_bytes())
    sw_a, sw_b = tmp_path / "sa", tmp_path / "sb"
    assert cli.main(["sweep", str(scenario_path), "--target", "ddgag-1",
                     "--out", str(sw_a)]) == 0
    assert cli.main(["sweep", str(scenario_path), "--target", "ddgag-1",
                     "--out", str(sw_b)]) == 0
    sweep_same = ((sw_a / "sweep.csv").read_bytes()
                  == (sw_b / "sweep.csv").read_bytes())
    ok = solve_same and mps_same and sweep_same
    report(8, ok, f"solve outputs identical: {solve_same}, MPS identical: "
                  f"{mps_same}, sweep outputs identical: {sweep_same}")
    assert solve_same and mps_same and sweep_same


def test_criterion_9_per_unit_invariance(report, bundled, bundled_solution):
    pu = per_unit_view(bundled)
    pu_solution = solve_milp(build(pu))
    assert pu_solution.status == OPTIMAL
    a, b = bundled_solution.objective, pu_solution.objective
    rel = abs(a - b) / max(1.0, abs(a))
    ok = rel <= 1e-9
    report(9, ok, f"objective {a:.6f} (natural) vs {b:.6f} (per-unit), "
                  f"relative difference {rel:.1e}")
    assert rel <= 1e-9
