"""Revenue decomposition, the regrouping identity, and the price sweep."""

import concurrent.futures
import os
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    first_energy_rise,
    ladder_rung,
    make_scenario,
    reported_solution,
    rows_by_name,
)
from oracles import package_columns, reference_registry, regrouping_residual
from dsomarket import analysis, formulation
from dsomarket.analysis import (
    CHUNK_CASES,
    StaleSchedule,
    compute_revenue,
    export_sweep,
    run_sweep,
    scale_energy_offers,
    settle,
)
from dsomarket.formulation import build, decode, price_objective
from dsomarket.model import (
    DemandBlock,
    ScenarioValidationError,
    validate_scenario,
)
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
    assert rev.dso_position[1] == pytest.approx(
        rev.dso_energy + rev.dso_capacity + rev.dso_mileage)
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
    reg = reference_registry(s)
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
    x[reference_registry(s)[("P_block", 1, 1, cfg.name)]] = 1.5
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


def _pooled(monkeypatch) -> list:
    """Send every sweep with more than one worker to a worker pool,
    however cheap its case 1; returns the worker counts of the pools
    started."""
    pools = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)
    monkeypatch.setattr(analysis, "POOL_MIN_CASE_S", 0.0)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    return pools


def test_sweep_parallel_matches_serial(monkeypatch):
    pools = _pooled(monkeypatch)
    scenario = make_scenario(T=1, kinds=("ddgag",))
    cases = CHUNK_CASES + 2     # two chunks: a single one runs here
    serial = run_sweep(scenario, "ddgag-x", cases=cases, threads=1)
    assert pools == []
    parallel = run_sweep(scenario, "ddgag-x", cases=cases, threads=2)
    assert pools == [2]
    for a, b in zip(serial.cases, parallel.cases):
        assert a.index == b.index
        assert a.objective == pytest.approx(b.objective, abs=1e-12)
        assert a.revenue.entities == b.revenue.entities


def test_sweep_with_cheap_first_case_starts_no_worker(bundled, monkeypatch):
    # bundled case 1 takes a few hundredths of a CPU second; the clock is
    # stopped so that a slow interpreter cannot push it past
    # POOL_MIN_CASE_S, and the chunks run in this process
    def no_pool(*args, **kwargs):
        raise AssertionError("the sweep started a worker pool")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(analysis, "process_time", lambda: 0.0)
    result = run_sweep(bundled, "ddgag-1", threads=2)
    assert {c.status for c in result.cases} == {OPTIMAL}


@pytest.mark.parametrize("multiplier", [0.1, 1.0, 4.0])
@pytest.mark.parametrize("target", ["drag-1", "esag-1", "evcs-1", "ddgag-1"])
def test_scaled_case_changes_only_the_objective(bundled, bundled_problem,
                                                target, multiplier):
    # the build-once sweep reuses the base problem for every scaled case
    case = scale_energy_offers(bundled, target, multiplier)
    base = bundled_problem
    problem = build(case)
    ref, first = reference_registry(bundled), bundled.horizon.steps[0]
    assert package_columns(problem.registry, ref, first) == \
        package_columns(base.registry, ref, first)
    assert list(rows_by_name(problem).items()) == \
        list(rows_by_name(base).items())
    assert np.array_equal(problem.lower, base.lower)
    assert np.array_equal(problem.upper, base.upper)
    assert np.array_equal(problem.integrality, base.integrality)
    objective, _ = price_objective(case, base.registry)
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


def test_sweep_chunks_independent_of_threads(bundled, monkeypatch):
    pools = _pooled(monkeypatch)
    cases = 2 * CHUNK_CASES + 3     # three chunks, the last one short
    runs = {threads: run_sweep(bundled, "ddgag-1", cases=cases,
                               threads=threads)
            for threads in (1, 2, 3)}
    assert pools == [2, 3]
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
    # the solve order is case 1, the chunk's right end (case 10), then the
    # bracket's midpoint (case 5), the third solve, which fails
    failed = result.cases[4]
    if failure == "raises":
        assert (failed.status, failed.error) == ("Error", "injected failure")
    else:
        assert failed.status == NODE_LIMIT
    assert failed.revenue is None
    # case 1 is cold; case 10 starts from case 1's optimum on the chunk's
    # restored model; with case 5 failed, cases 2-4 and 6-9 are solved on
    # their own: the one after the failure (case 2) starts without the last
    # optimum and on a fresh model; the one after that is warm again
    assert calls[0][1:] == (False, False)
    assert calls[1][1:] == (True, True)
    assert calls[1][0] is not calls[0][0]
    assert calls[2][0] is calls[1][0]
    assert calls[3][1:] == (False, False)
    assert calls[3][0] is not calls[1][0]
    assert calls[4] == (calls[3][0], True, True)
    later = result.cases[:4] + result.cases[5:]
    assert all(c.status == OPTIMAL for c in later)
    cold = _cold_objectives(bundled, "esag-1", [c.index for c in later])
    for case, reference in zip(later, cold):
        _assert_within_gap(case.objective, reference)


def test_sweep_without_first_case_starts_every_chunk_cold(bundled,
                                                          monkeypatch):
    # case 1 fails, so there is no snapshot: each chunk builds and solves
    # its first case (its left end) cold, and cases 2-40 are solved as in
    # a full sweep
    calls, builds, order = [], [], []

    def failing_first(problem, opts, **warm):
        calls.append((warm["model"].loaded, warm["start"] is not None))
        if len(calls) == 1:
            raise SolverError("injected failure")
        return solve_milp(problem, opts, **warm)

    def counted_build(scenario):
        builds.append(scenario)
        return build(scenario)

    def ordered(chunk, i, *starts):
        order.append(i)
        return solve_case(chunk, i, *starts)
    full = run_sweep(bundled, "ddgag-1", threads=1)
    solve_case = analysis._solve_case
    monkeypatch.setattr(analysis, "solve_milp", failing_first)
    monkeypatch.setattr(analysis, "build", counted_build)
    monkeypatch.setattr(analysis, "_solve_case", ordered)
    result = run_sweep(bundled, "ddgag-1", threads=1)
    assert (result.cases[0].status, result.cases[0].error) == \
        ("Error", "injected failure")
    assert all(c.status == OPTIMAL for c in result.cases[1:])
    assert len(builds) == 5
    # the solve positions of the chunks' left ends, each its chunk's first
    lefts = [2, CHUNK_CASES + 1, 2 * CHUNK_CASES + 1, 3 * CHUNK_CASES + 1]
    starts = [order.index(i) for i in lefts]
    assert starts == [next(k for k, i in enumerate(order) if i >= left)
                      for left in lefts]
    assert [calls[k] for k in starts] == [(False, False)] * 4
    assert all(warm == (True, True) for k, warm in enumerate(calls)
               if k and k not in starts)
    for case, reference in zip(result.cases[1:], full.cases[1:]):
        _assert_within_gap(case.objective, reference.objective)


def test_sweep_case_with_bad_start_solves_without_it(bundled, monkeypatch):
    calls = []

    def spoiled(problem, opts, model, start=None):
        # the second solve's start (case 10's, the chunk's right end) is
        # made fractional on a binary column
        calls.append((model, start is not None))
        if len(calls) == 2:
            start = start.copy()
            start[np.flatnonzero(problem.integrality)[0]] = 0.5
        return solve_milp(problem, opts, model=model, start=start)

    monkeypatch.setattr(analysis, "solve_milp", spoiled)
    result = run_sweep(bundled, "esag-1", cases=CHUNK_CASES, threads=1)
    assert all(c.status == OPTIMAL for c in result.cases)
    # case 10 is solved again on the chunk's restored model without its
    # start, and the next solve (case 5, the bracket's midpoint) is warm
    # again
    assert [warm for _, warm in calls[:4]] == [False, True, False, True]
    chunk_model = calls[1][0]
    assert calls[0][0] is not chunk_model
    assert all(model is chunk_model for model, _ in calls[1:])
    cold = _cold_objectives(bundled, "esag-1", range(1, CHUNK_CASES + 1))
    for case, reference in zip(result.cases, cold):
        _assert_within_gap(case.objective, reference)


@pytest.mark.parametrize("target", ["ddgag-1", "esag-1", "drag-1", "evcs-1"])
def test_sweep_csv_independent_of_threads(bundled, tmp_path, monkeypatch,
                                         target):
    # every chunk restores case 1's snapshot, whichever process runs it:
    # in this process (one worker) or in a pool of two or three
    pools = _pooled(monkeypatch)
    texts = []
    for threads in (1, 2, 3):
        path = tmp_path / f"sweep-{threads}.csv"
        export_sweep(run_sweep(bundled, target, threads=threads), str(path))
        texts.append(path.read_bytes())
    assert pools == [2, 3]
    assert texts[1] == texts[0] and texts[2] == texts[0]


@pytest.mark.parametrize("target", ["ddgag-1", "esag-1", "drag-1", "evcs-1"])
def test_sweep_cases_lie_on_the_price_curve(bundled, monkeypatch, target):
    # every case, solved or certified by its bracket, is as good as its own
    # cold solve, and a certified case reports one of the solved optima at
    # its own prices
    solved, optima = [], []
    solve_case, solve = analysis._solve_case, analysis.solve_milp

    def recorded_case(chunk, i, *starts):
        solved.append(i)
        return solve_case(chunk, i, *starts)

    def recorded_solve(*args, **kwargs):
        solution = solve(*args, **kwargs)
        optima.append(solution.values)
        return solution
    monkeypatch.setattr(analysis, "_solve_case", recorded_case)
    monkeypatch.setattr(analysis, "solve_milp", recorded_solve)
    result = run_sweep(bundled, target, threads=1)
    cold = _cold_objectives(bundled, target, range(1, 41))
    for case, reference in zip(result.cases, cold):
        assert case.status == OPTIMAL
        _assert_within_gap(case.objective, reference)
    certified = [c for c in result.cases if c.index not in solved]
    assert len(solved) == len(set(solved)) and certified
    for case in certified:
        x = reported_solution(bundled, target, case, optima)
        assert x is not None, f"case {case.index} reports no solved optimum"
        problem = build(scale_energy_offers(bundled, target,
                                            case.multiplier))
        assert case.objective == float(problem.objective @ x)


def test_bracket_certifies_on_the_lower_line_over_the_bounds_chord(
        bundled, monkeypatch):
    # esag-1 cases 1 and 3 have different optima, whose lines at case 2's
    # prices lie far more than the tolerance apart
    opts, gap = SolveOptions(), 1e-3

    def loose(*args, **kwargs):    # a search that stops with a gap left
        return replace(solve_milp(*args, **kwargs), gap=gap)
    monkeypatch.setattr(analysis, "solve_milp", loose)
    chunk = analysis._Chunk(bundled, "esag-1", opts)
    for i in (1, 3):
        case = analysis._solve_case(chunk, i)
        # the proven lower bound, not the incumbent
        assert chunk.points[i].bound == case.objective - gap * max(
            1.0, abs(case.objective))
    problem = chunk.price(2)
    lines = [float(problem.objective @ chunk.points[i].values)
             for i in (1, 3)]
    low = min(lines)
    tol = opts.relative_gap * max(1.0, abs(low))
    assert max(lines) - low > tol
    assert analysis._certified(chunk, 1, 3) is None
    # a chord of lower bounds that meets the lower line at case 2
    # certifies it there, on that line's solution
    points = dict(chunk.points)
    for i in (1, 3):
        chunk.points[i] = replace(points[i], bound=low)
    certified = analysis._certified(chunk, 1, 3)
    x = points[(1, 3)[lines.index(low)]].values
    assert list(certified) == [2]
    assert (certified[2].status, certified[2].objective) == (OPTIMAL, low)
    assert certified[2].revenue == settle(bundled, problem.registry,
                                          problem.prices, x)
    # one more than the tolerance below it does not
    for i in (1, 3):
        chunk.points[i] = replace(points[i], bound=low - 2 * tol)
    assert analysis._certified(chunk, 1, 3) is None


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
    # one build (case 1's), the only one to validate the scenario and to
    # build a whole price table; every other case reprices the target's
    # energy entries of that table (for its objective, reused for
    # revenue), and no schedule is decoded or scenario hashed
    counts = {"build": 0, "decode": 0, "scenario_hash": 0,
              "settlement_prices": 0, "validate_scenario": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for name in counts:
        wrapper = counted(name, getattr(formulation, name))
        # analysis reaches settlement_prices through formulation's
        # build, and validate_scenario through build and directly
        for module in (formulation, analysis):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    scenario = make_scenario(T=2, kinds=("ddgag", "esag"))
    result = run_sweep(scenario, "ddgag-x", cases=40, threads=1)
    assert all(c.status == OPTIMAL for c in result.cases)
    assert counts == {"build": 1, "decode": 0, "scenario_hash": 0,
                      "settlement_prices": 1, "validate_scenario": 1}
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


def _two_block_drag(bids=(30.0, 10.0)):
    """One hour, one DRAG with two 2 MW blocks at ``bids``."""
    s = make_scenario(T=1, kinds=("drag",))
    blocks = tuple(DemandBlock(2.0, (bid,)) for bid in bids)
    return replace(s, drags=(replace(s.drags[0], blocks=blocks),))


@pytest.mark.parametrize("scenario, target", [
    *[("bundled", t) for t in ("ddgag-1", "esag-1", "drag-1", "evcs-1")],
    ("two blocks", "drag-x"),
    ("rung 2", "drag-2"),
    ("20-minute steps", "esag-1"),
])
def test_sweep_case_prices_match_a_scaled_build(bundled, scenario, target):
    # each case's price table and objective, from the base problem of case
    # 1 (a chunk restored from the snapshot) or of case 11 (a chunk's left
    # end, with no snapshot), are those of its own scaled scenario, byte
    # for byte; with steps of 1/3 h, (p * m) * dt rounds unlike p * (m * dt)
    s = {"bundled": lambda: bundled, "two blocks": _two_block_drag,
         "rung 2": lambda: ladder_rung(2),
         "20-minute steps": lambda: replace(bundled, horizon=replace(
             bundled.horizon, step_hours=1 / 3))}[scenario]()
    for first in (1, 11):
        chunk = analysis._Chunk(s, target, SolveOptions())
        chunk.price(first)
        for i in range(1, 41):
            problem = chunk.price(i)
            objective, prices = price_objective(
                scale_energy_offers(s, target, i / 10.0), problem.registry)
            assert problem.prices.tobytes() == prices.tobytes(), i
            assert problem.objective.tobytes() == objective.tobytes(), i


def _first_energy_price(s, target, price):
    """The scenario with the target's first energy offer price (its first
    block's bid, if it is the scenario's one DRAG) set to ``price``."""
    if (cfg := s.drags[0]).name == target:
        block = replace(cfg.blocks[0],
                        prices=(price,) + cfg.blocks[0].prices[1:])
        return replace(s, drags=(replace(
            cfg, blocks=(block,) + cfg.blocks[1:]),) + s.drags[1:])
    offer = s.offers[target]
    return replace(s, offers={**s.offers, target: replace(
        offer, energy=(price,) + offer.energy[1:])})


# rounding ties these two increasing block bids at multipliers 0.1 and
# 0.2, and not at 0.3: case 3's blocks are not monotone
TIED_BIDS = (22.443340315930726, 22.44334031593073)


@pytest.mark.parametrize("target, last_valid", [
    ("ddgag-1", 17), ("drag-1", 17), ("tied bids", 2)])
def test_sweep_case_that_scales_invalid_reports_its_scaled_scenario(
        bundled, target, last_valid):
    # 1e308 * 1.8 overflows; every case below the first invalid one still
    # prices, and that one raises the report of validating its scaled
    # scenario
    if target == "tied bids":
        s, target = _two_block_drag(TIED_BIDS), "drag-x"
    else:
        s = _first_energy_price(bundled, target, 1e308)
    chunk = analysis._Chunk(s, target, SolveOptions())
    for i in range(1, last_valid + 1):
        chunk.price(i)
    bad = last_valid + 1
    with pytest.raises(ScenarioValidationError) as err:
        chunk.price(bad)
    report = validate_scenario(scale_energy_offers(s, target, bad / 10.0))
    assert not report.ok and err.value.report == report


def test_sweep_case_priced_beyond_floats_after_finite_offers(bundled):
    # with two-hour steps, 1e308 * 1.0 is a valid offer whose price 2e308
    # is not finite: the case prices, as its own build prices it
    s = _first_energy_price(bundled, "ddgag-1", 1e308)
    s = replace(s, horizon=replace(s.horizon, step_hours=2.0))
    chunk = analysis._Chunk(s, "ddgag-1", SolveOptions())
    chunk.price(1)
    with np.errstate(over="ignore"):
        problem = chunk.price(10)
        objective, _ = price_objective(
            scale_energy_offers(s, "ddgag-1", 1.0), problem.registry)
    assert not np.isfinite(objective).all()
    assert problem.objective.tobytes() == objective.tobytes()


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
