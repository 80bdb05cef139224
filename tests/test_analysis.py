"""Revenue decomposition, the regrouping identity, and the price sweep."""

import os
from dataclasses import replace

import numpy as np
import pytest

from conftest import first_energy_rise, make_scenario, rows_by_name
from dsomarket import analysis, formulation
from dsomarket.analysis import (
    CHUNK_CASES,
    StaleSchedule,
    compute_revenue,
    export_sweep,
    regrouping_residual,
    run_sweep,
    scale_energy_offers,
    settle,
)
from dsomarket.formulation import build, build_objective, decode
from dsomarket.model import DemandBlock
from dsomarket.solver import (
    NODE_LIMIT,
    OPTIMAL,
    HighsLp,
    MilpSolution,
    SolveOptions,
    SolverError,
    solve_milp,
)


@pytest.fixture(scope="module")
def generator_case():
    """One hour, one 1 MW generator offering below the wholesale price."""
    scenario = make_scenario(T=1, kinds=("ddgag",))
    problem = build(scenario)
    solution = solve_milp(problem)
    assert solution.status == OPTIMAL
    schedule = decode(scenario, problem, solution.values, solution.status)
    return scenario, schedule, solution


def test_generator_revenue_hand_computed(generator_case):
    # offer 20 vs wholesale 30: sell the full 1 MW; capacity-down 0.5 MW is
    # the only regulation product with headroom left (P - r_dn >= 0 allows
    # it, P + r_up <= p_max does not)
    scenario, schedule, solution = generator_case
    name = scenario.ddgags[0].name
    assert schedule.energy[name][1] == pytest.approx(1.0)
    assert schedule.cap_up[name][1] == pytest.approx(0.0)
    assert schedule.cap_dn[name][1] == pytest.approx(0.5)
    rev = compute_revenue(schedule, scenario)
    e = rev.entities[name]
    assert e.energy == pytest.approx(20.0)
    assert e.capacity == pytest.approx(0.5 * 4.0)
    assert e.mileage == pytest.approx(0.5 * 1.0 * 0.5 * 0.2)
    assert rev.dso_energy == pytest.approx(30.0)
    assert rev.dso_capacity == pytest.approx(0.5 * 5.0)
    assert rev.dso_mileage == pytest.approx(0.5 * 1.0 * 0.5 * 0.25)
    assert rev.dso_position[1] == pytest.approx(rev.dso_total)
    assert solution.objective == pytest.approx(-10.5125)


def test_regrouping_identity(generator_case):
    scenario, schedule, solution = generator_case
    rev = compute_revenue(schedule, scenario)
    assert regrouping_residual(rev, solution.objective) <= 1e-9


def test_stale_schedule_rejected(generator_case):
    scenario, schedule, _ = generator_case
    other = replace(scenario, wholesale=replace(
        scenario.wholesale, energy=(31.0,)))
    with pytest.raises(StaleSchedule):
        compute_revenue(schedule, other)


def test_demand_blocks_priced_stepwise():
    # 3 MW served: 2 MW from the 30 $/MWh block, 1 MW from the 10 $/MWh one
    s = make_scenario(T=1, kinds=("drag",))
    cfg = s.drags[0]
    blocks = (DemandBlock(2.0, (30.0,)), DemandBlock(2.0, (10.0,)))
    s = replace(s, drags=(replace(cfg, blocks=blocks),))
    problem = build(s)
    x = np.zeros(problem.num_cols)
    reg = problem.registry
    x[reg[("P_block", 0, 1, cfg.name)]] = 2.0
    x[reg[("P_block", 1, 1, cfg.name)]] = 1.0
    schedule = decode(s, problem, x)
    rev = compute_revenue(schedule, s)
    assert rev.entities[cfg.name].energy == pytest.approx(-(2 * 30 + 1 * 10))


def test_demand_block_settled_at_its_own_price():
    # only the second block is served: it pays its own 10 $/MWh, not the
    # first block's 30 $/MWh, and the payments regroup to the objective
    s = make_scenario(T=1, kinds=("drag",))
    cfg = s.drags[0]
    blocks = (DemandBlock(2.0, (30.0,)), DemandBlock(2.0, (10.0,)))
    s = replace(s, drags=(replace(cfg, blocks=blocks),))
    problem = build(s)
    x = np.zeros(problem.num_cols)
    x[problem.registry[("P_block", 1, 1, cfg.name)]] = 1.5
    schedule = decode(s, problem, x)
    rev = compute_revenue(schedule, s)
    assert rev.entities[cfg.name].energy == pytest.approx(-1.5 * 10)
    assert regrouping_residual(rev, schedule.objective) <= 1e-9


def test_scale_energy_offers_touches_only_target(bundled):
    scaled = scale_energy_offers(bundled, "esag-1", 2.0)
    assert scaled.offers["esag-1"].energy[0] == pytest.approx(
        2.0 * bundled.offers["esag-1"].energy[0])
    assert scaled.offers["esag-1"].cap_up == bundled.offers["esag-1"].cap_up
    assert scaled.offers["ddgag-1"] == bundled.offers["ddgag-1"]
    assert scaled.drags == bundled.drags


def test_scale_energy_offers_scales_demand_blocks(bundled):
    scaled = scale_energy_offers(bundled, "drag-1", 0.5)
    base_block = bundled.drags[0].blocks[0]
    block = scaled.drags[0].blocks[0]
    assert block.p_max == base_block.p_max
    assert block.prices[0] == pytest.approx(0.5 * base_block.prices[0])
    assert scaled.offers["drag-1"].energy[0] == pytest.approx(
        0.5 * bundled.offers["drag-1"].energy[0])


def test_sweep_unknown_target_raises(bundled):
    with pytest.raises(KeyError):
        run_sweep(bundled, "nobody", cases=1, threads=1)


def test_sweep_cases_ordered_and_optimal():
    scenario = make_scenario(T=1, kinds=("ddgag",))
    result = run_sweep(scenario, "ddgag-x", cases=5, threads=1)
    assert [c.index for c in result.cases] == [1, 2, 3, 4, 5]
    assert [c.multiplier for c in result.cases] == [0.1, 0.2, 0.3, 0.4, 0.5]
    assert all(c.status == OPTIMAL for c in result.cases)
    # cheaper energy offers can only improve the coordination objective
    objectives = [c.objective for c in result.cases]
    assert objectives == sorted(objectives)


def test_sweep_parallel_matches_serial():
    scenario = make_scenario(T=1, kinds=("ddgag",))
    serial = run_sweep(scenario, "ddgag-x", cases=4, threads=1)
    parallel = run_sweep(scenario, "ddgag-x", cases=4, threads=2)
    for a, b in zip(serial.cases, parallel.cases):
        assert a.index == b.index
        assert a.objective == pytest.approx(b.objective, abs=1e-12)
        assert a.revenue.entities == b.revenue.entities


@pytest.mark.parametrize("multiplier", [0.1, 1.0, 4.0])
@pytest.mark.parametrize("target", ["drag-1", "esag-1", "evcs-1", "ddgag-1"])
def test_scaled_case_changes_only_the_objective(bundled, bundled_problem,
                                                target, multiplier):
    # the build-once sweep reuses the base problem for every scaled case
    case = scale_energy_offers(bundled, target, multiplier)
    base = bundled_problem
    problem = build(case)
    assert problem.registry.keys() == base.registry.keys()
    assert list(rows_by_name(problem).items()) == \
        list(rows_by_name(base).items())
    assert np.array_equal(problem.lower, base.lower)
    assert np.array_equal(problem.upper, base.upper)
    assert np.array_equal(problem.integrality, base.integrality)
    objective = build_objective(case, base.registry)
    assert problem.objective.tobytes() == objective.tobytes()
    if multiplier != 1.0:
        assert not np.array_equal(objective, base.objective)


@pytest.mark.parametrize("target", ["esag-1", "ddgag-1", "drag-1", "evcs-1"])
def test_sweep_offer_weighted_energy_non_increasing(bundled, target):
    # criterion 7's property for every bundled target: only the target's
    # energy prices move with the multiplier, so the energy it is settled
    # for at its base offers cannot rise beyond the solver-gap allowance
    result = run_sweep(bundled, target)
    assert all(c.status == OPTIMAL for c in result.cases)
    rise = first_energy_rise(result.cases, target,
                             SolveOptions().relative_gap)
    assert rise is None, rise


def _cold_objectives(scenario, target, cases):
    out = []
    for i in cases:
        solution = solve_milp(build(scale_energy_offers(
            scenario, target, i / 10.0)))
        assert solution.status == OPTIMAL
        out.append(solution.objective)
    return out


def _assert_within_gap(objective, reference):
    gap = SolveOptions().relative_gap
    assert abs(objective - reference) <= gap * max(1.0, abs(reference))


def test_sweep_chunks_independent_of_threads(bundled):
    cases = 2 * CHUNK_CASES + 3     # three chunks, the last one short
    runs = {threads: run_sweep(bundled, "ddgag-1", cases=cases,
                               threads=threads)
            for threads in (1, 2, 3)}
    assert runs[2].cases == runs[1].cases
    assert runs[3].cases == runs[1].cases
    serial = runs[1].cases
    assert [c.index for c in serial] == list(range(1, cases + 1))
    assert all(c.status == OPTIMAL for c in serial)
    cold = _cold_objectives(bundled, "ddgag-1", range(1, cases + 1))
    for case, reference in zip(serial, cold):
        _assert_within_gap(case.objective, reference)


def test_sweep_loads_highs_once_per_chunk(bundled, monkeypatch):
    # case 1 loads its rows cold; each chunk loads them once more, into a
    # model of its own restored from case 1's state, and its cases re-solve
    # them under new costs without loading them again
    loads, restores = [], []
    load, restore = HighsLp._load, HighsLp.restore

    def counted_load(self, *args):
        loads.append(self)
        load(self, *args)

    def counted_restore(self, *args):
        restores.append(self)
        restore(self, *args)
    monkeypatch.setattr(HighsLp, "_load", counted_load)
    monkeypatch.setattr(HighsLp, "restore", counted_restore)
    result = run_sweep(bundled, "ddgag-1", cases=2 * CHUNK_CASES, threads=1)
    assert all(c.status == OPTIMAL for c in result.cases)
    assert len(loads) == 3 and len(set(map(id, loads))) == 3
    assert restores == loads[1:]


@pytest.mark.parametrize("failure", ["raises", "node limit"])
def test_sweep_case_failure_restarts_cold(bundled, monkeypatch, failure):
    calls = []

    def flaky(problem, opts, **warm):
        # (model, whether it held an LP, whether a start came with it)
        calls.append((warm["model"], warm["model"].loaded,
                      warm["start"] is not None))
        if len(calls) != 3:
            return solve_milp(problem, opts, **warm)
        if failure == "raises":
            raise SolverError("injected failure")
        return MilpSolution(NODE_LIMIT, None, np.inf, 1, np.inf, 0)

    monkeypatch.setattr(analysis, "solve_milp", flaky)
    cases = CHUNK_CASES
    result = run_sweep(bundled, "esag-1", cases=cases, threads=1)
    failed = result.cases[2]
    if failure == "raises":
        assert (failed.status, failed.error) == ("Error", "injected failure")
    else:
        assert failed.status == NODE_LIMIT
    assert failed.revenue is None
    # case 1 is cold; case 2 starts from case 1's optimum on the chunk's
    # restored model; the case after the failure starts without the last
    # optimum and on a fresh model; the one after that is warm again
    assert calls[0][1:] == (False, False)
    assert calls[1][1:] == (True, True)
    assert calls[1][0] is not calls[0][0]
    assert calls[2][0] is calls[1][0]
    assert calls[3][1:] == (False, False)
    assert calls[3][0] is not calls[1][0]
    assert calls[4] == (calls[3][0], True, True)
    later = result.cases[3:]
    assert all(c.status == OPTIMAL for c in later)
    cold = _cold_objectives(bundled, "esag-1", range(4, cases + 1))
    for case, reference in zip(later, cold):
        _assert_within_gap(case.objective, reference)


def test_sweep_without_first_case_starts_every_chunk_cold(bundled,
                                                          monkeypatch):
    # case 1 fails, so there is no snapshot: each chunk builds and solves
    # its first case cold, and cases 2-40 are solved as in a full sweep
    calls, builds = [], []

    def failing_first(problem, opts, **warm):
        calls.append((warm["model"].loaded, warm["start"] is not None))
        if len(calls) == 1:
            raise SolverError("injected failure")
        return solve_milp(problem, opts, **warm)

    def counted_build(scenario):
        builds.append(scenario)
        return build(scenario)
    full = run_sweep(bundled, "ddgag-1", threads=1)
    monkeypatch.setattr(analysis, "solve_milp", failing_first)
    monkeypatch.setattr(analysis, "build", counted_build)
    result = run_sweep(bundled, "ddgag-1", threads=1)
    assert (result.cases[0].status, result.cases[0].error) == \
        ("Error", "injected failure")
    assert all(c.status == OPTIMAL for c in result.cases[1:])
    assert len(builds) == 5
    starts = [1, CHUNK_CASES, 2 * CHUNK_CASES, 3 * CHUNK_CASES]
    assert [calls[k] for k in starts] == [(False, False)] * 4
    assert all(warm == (True, True) for k, warm in enumerate(calls)
               if k and k not in starts)
    for case, reference in zip(result.cases[1:], full.cases[1:]):
        _assert_within_gap(case.objective, reference.objective)


def test_sweep_case_with_bad_start_solves_without_it(bundled, monkeypatch):
    calls = []

    def spoiled(problem, opts, model, start=None):
        # case 2's start is made fractional on a binary column
        calls.append((model, start is not None))
        if len(calls) == 2:
            start = start.copy()
            start[np.flatnonzero(problem.integrality)[0]] = 0.5
        return solve_milp(problem, opts, model=model, start=start)

    monkeypatch.setattr(analysis, "solve_milp", spoiled)
    result = run_sweep(bundled, "esag-1", cases=CHUNK_CASES, threads=1)
    assert all(c.status == OPTIMAL for c in result.cases)
    # case 2 is solved again on the chunk's restored model without its
    # start, and case 3 is warm again
    assert [warm for _, warm in calls[:4]] == [False, True, False, True]
    chunk_model = calls[1][0]
    assert calls[0][0] is not chunk_model
    assert all(model is chunk_model for model, _ in calls[1:])
    cold = _cold_objectives(bundled, "esag-1", range(1, CHUNK_CASES + 1))
    for case, reference in zip(result.cases, cold):
        _assert_within_gap(case.objective, reference)


@pytest.mark.parametrize("target", ["ddgag-1", "esag-1", "drag-1", "evcs-1"])
def test_sweep_csv_independent_of_threads(bundled, tmp_path, target):
    # every chunk restores case 1's snapshot, whichever process runs it
    texts = []
    for threads in (1, 2, 3):
        path = tmp_path / f"sweep-{threads}.csv"
        export_sweep(run_sweep(bundled, target, threads=threads), str(path))
        texts.append(path.read_bytes())
    assert texts[1] == texts[0] and texts[2] == texts[0]


def test_export_sweep_layout(tmp_path):
    scenario = make_scenario(T=1, kinds=("ddgag", "esag"))
    result = run_sweep(scenario, "ddgag-x", cases=3, threads=1)
    path = tmp_path / "sweep.csv"
    export_sweep(result, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == ("i,multiplier,entity,energy_$,capacity_$,mileage_$,"
                       "total_$,status")
    # one row per entity plus the wholesale position, per case
    assert len(lines) == 1 + 3 * (2 + 1)
    assert lines[1].startswith("1,0.1,")
    assert any(line.split(",")[2] == "dso_wholesale" for line in lines[1:])


def test_sweep_builds_once_and_prices_each_case_once(monkeypatch):
    # one build (case 1's), one price table per case (for the objective,
    # reused for revenue), and no schedule decoded or scenario hashed
    counts = {"build": 0, "decode": 0, "scenario_hash": 0,
              "settlement_prices": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for name in counts:
        wrapper = counted(name, getattr(formulation, name))
        for module in (formulation, analysis):
            monkeypatch.setattr(module, name, wrapper)
    scenario = make_scenario(T=2, kinds=("ddgag", "esag"))
    result = run_sweep(scenario, "ddgag-x", cases=40, threads=1)
    assert all(c.status == OPTIMAL for c in result.cases)
    assert counts == {"build": 1, "decode": 0, "scenario_hash": 0,
                      "settlement_prices": 40}
    # each case settles as compute_revenue settles its decoded schedule
    for case in (result.cases[0], result.cases[-1]):
        scaled = scale_energy_offers(scenario, "ddgag-x", case.multiplier)
        problem = build(scaled)
        solution = solve_milp(problem)
        schedule = decode(scaled, problem, solution.values, solution.status)
        assert compute_revenue(schedule, scaled) == settle(
            scaled, problem.registry, problem.prices, solution.values)
        assert regrouping_residual(case.revenue, case.objective) <= 1e-9

    # compute_revenue still hashes any scenario but the one decoded from
    problem = build(scenario)
    solution = solve_milp(problem)
    schedule = decode(scenario, problem, solution.values, solution.status)
    copy = replace(scenario, offers=dict(scenario.offers))
    assert compute_revenue(schedule, copy) == \
        compute_revenue(schedule, scenario)
    other = scale_energy_offers(scenario, "ddgag-x", 0.5)
    with pytest.raises(StaleSchedule):
        compute_revenue(schedule, other)


def test_default_threads_are_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.delenv("DSO_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                        raising=False)
    assert analysis._env_threads() == 3
    # where the platform has no affinity call, the CPU count stands
    monkeypatch.delattr(os, "sched_getaffinity")
    assert analysis._env_threads() == 64
    monkeypatch.setenv("DSO_THREADS", "2")
    assert analysis._env_threads() == 2
