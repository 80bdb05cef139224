"""Post-solve economics: revenue decomposition and the price sweep.

Revenue follows the objective's payment terms regrouped per entity:
generation-side aggregators earn their energy offer price on scheduled
injections, load-side aggregators' energy purchases are reported as
negative income, and every aggregator earns capacity and mileage payments
on its regulation awards.  The DSO wholesale position is reported with
income positive.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .formulation import MilpProblem, Schedule, build, build_objective, decode
from .model import (
    KIND_DRAG,
    KIND_EVCS,
    Scenario,
    ScenarioValidationError,
    validate_scenario,
)
from .scenario_io import scenario_hash
from .solver import OPTIMAL, HighsLp, SolveOptions, solve_milp


class StaleSchedule(ValueError):
    """The schedule was produced from a different scenario."""


@dataclass(frozen=True)
class EntityRevenue:
    energy: float
    capacity: float
    mileage: float

    @property
    def total(self) -> float:
        return self.energy + self.capacity + self.mileage


@dataclass(frozen=True)
class RevenueReport:
    entities: dict[str, EntityRevenue]
    dso_energy: float
    dso_capacity: float
    dso_mileage: float
    dso_position: dict[int, float]    # per hour, income positive

    @property
    def dso_total(self) -> float:
        return self.dso_energy + self.dso_capacity + self.dso_mileage


def compute_revenue(schedule: Schedule, scenario: Scenario) -> RevenueReport:
    """Decompose the schedule's payments per entity.

    The schedule records the hash of the scenario it was decoded from;
    pairing it with any other scenario raises :class:`StaleSchedule`.
    """
    if schedule.scenario_hash != scenario_hash(scenario):
        raise StaleSchedule("schedule does not belong to this scenario")
    sig = scenario.regulation
    w = scenario.wholesale
    dt = scenario.horizon.step_hours
    steps = scenario.horizon.steps

    entities: dict[str, EntityRevenue] = {}
    for kind, cfg in scenario.aggregators():
        name = cfg.name
        o = scenario.offers[name]
        energy = capacity = mileage = 0.0
        for ti, t in enumerate(steps):
            p = schedule.energy[name][t]
            if kind == KIND_DRAG:
                # stepwise demand: expenditure priced per block
                spent = 0.0
                remaining = p
                for block in cfg.blocks:
                    take = min(max(remaining, 0.0), block.p_max)
                    spent += take * block.prices[ti] * dt
                    remaining -= take
                energy -= spent
            elif kind == KIND_EVCS:
                energy -= p * o.energy[ti] * dt
            else:
                energy += p * o.energy[ti] * dt
            up = schedule.cap_up[name][t]
            dn = schedule.cap_dn[name][t]
            capacity += up * o.cap_up[ti] + dn * o.cap_dn[ti]
            mileage += (up * sig.s_up[ti] * sig.mu_up[ti] * o.mil_up[ti]
                        + dn * sig.s_dn[ti] * sig.mu_dn[ti] * o.mil_dn[ti])
        entities[name] = EntityRevenue(energy, capacity, mileage)

    dso_energy = dso_capacity = dso_mileage = 0.0
    position: dict[int, float] = {}
    for ti, t in enumerate(steps):
        e = schedule.p_sub[t] * w.energy[ti] * dt
        cap = (schedule.r_sub_up[t] * w.cap_up[ti]
               + schedule.r_sub_dn[t] * w.cap_dn[ti])
        mil = (schedule.r_sub_up[t] * sig.s_up[ti] * sig.mu_up[ti] * w.mil_up[ti]
               + schedule.r_sub_dn[t] * sig.s_dn[ti] * sig.mu_dn[ti]
               * w.mil_dn[ti])
        dso_energy += e
        dso_capacity += cap
        dso_mileage += mil
        position[t] = e + cap + mil
    return RevenueReport(entities=entities, dso_energy=dso_energy,
                         dso_capacity=dso_capacity, dso_mileage=dso_mileage,
                         dso_position=position)


def regrouping_residual(report: RevenueReport, objective: float) -> float:
    """|sum of entity totals - DSO position - objective|.

    The objective pays entities and collects wholesale income, so entity
    totals minus the DSO position must reproduce it exactly.
    """
    total = sum(e.total for e in report.entities.values())
    return abs(total - report.dso_total - objective)


@dataclass(frozen=True)
class SweepCase:
    index: int
    multiplier: float
    status: str
    objective: float
    revenue: RevenueReport | None
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    target: str
    cases: tuple[SweepCase, ...]


def scale_energy_offers(scenario: Scenario, target: str,
                        multiplier: float) -> Scenario:
    """Clone the scenario with the target's energy offer prices scaled."""
    kind, _ = scenario.find_aggregator(target)
    offers = dict(scenario.offers)
    o = offers[target]
    offers[target] = replace(
        o, energy=tuple(p * multiplier for p in o.energy))
    out = replace(scenario, offers=offers)
    if kind == KIND_DRAG:
        drags = tuple(
            replace(cfg, blocks=tuple(b.scaled(1.0, multiplier)
                                      for b in cfg.blocks))
            if cfg.name == target else cfg
            for cfg in scenario.drags)
        out = replace(out, drags=drags)
    return out


# Sweep cases per chunk.  A constant, not an option: the chunks fix which
# case warm-starts which, so they must not depend on the worker count.
CHUNK_CASES = 10


@dataclass
class _WarmStart:
    """What a chunk's consecutive cases share: the first case's problem,
    one HiGHS model holding its constraints, and the last case's optimum."""

    base: MilpProblem | None = None
    model: HighsLp | None = None
    start: np.ndarray | None = None

    def reset(self) -> None:
        self.base = self.model = self.start = None


def _case_problem(case: Scenario, base: MilpProblem | None) -> MilpProblem:
    """Build the case, or, given the base problem of another case of the
    same sweep, reuse its constraints with this case's objective."""
    if base is None:
        return build(case)
    report = validate_scenario(case)
    if not report.ok:
        raise ScenarioValidationError(report)
    problem = replace(base, objective=build_objective(case, base.registry))
    # share the assembled matrix too: the HiGHS model holds these arrays
    vars(problem)["relaxation_arrays"] = base.relaxation_arrays
    return problem


def _solve_case(scenario: Scenario, target: str, i: int, opts: SolveOptions,
                warm: _WarmStart) -> SweepCase:
    multiplier = i / 10.0
    case = scale_energy_offers(scenario, target, multiplier)
    try:
        problem = _case_problem(case, warm.base)
        if warm.model is None:
            warm.base, warm.model = problem, HighsLp(opts)
        solution = solve_milp(problem, opts, model=warm.model,
                              start=warm.start)
        if solution.status != OPTIMAL:
            warm.reset()
            return SweepCase(i, multiplier, solution.status,
                            solution.objective, None)
        warm.start = solution.values
        schedule = decode(case, problem, solution.values, solution.status)
        revenue = compute_revenue(schedule, case)
        return SweepCase(i, multiplier, solution.status,
                        solution.objective, revenue)
    except Exception as exc:   # per-case failures are recorded, not raised
        warm.reset()           # the next case starts cold
        return SweepCase(i, multiplier, "Error", float("nan"), None, str(exc))


def _solve_chunk(args) -> list[SweepCase]:
    scenario, target, indices, opts = args
    warm = _WarmStart()
    return [_solve_case(scenario, target, i, opts, warm) for i in indices]


def run_sweep(scenario: Scenario, target: str, cases: int = 40,
              opts: SolveOptions | None = None,
              threads: int | None = None) -> SweepResult:
    """Solve the scenario with the target's energy offers scaled by i/10
    for i = 1..cases; output is ordered by i.

    Only the target's objective coefficients change between cases, so the
    feasible set is the same in every case.  The cases are solved in
    chunks of ``CHUNK_CASES`` consecutive indices.  A chunk builds its
    first case once; each later case reuses those constraints with its own
    objective, re-solves on the same HiGHS model from the basis the last
    case left, and seeds its incumbent with the last case's optimum, which
    is feasible by construction.  A case that fails or ends non-optimal
    makes the next one start cold.  Chunks run in parallel on ``threads``
    workers (default ``DSO_THREADS``, else the CPU count), but their
    boundaries depend only on ``cases``, so every case starts from the
    same state and the results do not depend on the worker count.

    Since the feasible set is shared, the target's energy weighted by its
    base offers (energy revenue / multiplier) is non-increasing in the
    multiplier, up to the solver's relative gap.  Its revenue is not
    monotone: entities settle at their own offer prices, so revenue rises
    with the multiplier wherever the schedule stays put, and capacity and
    mileage revenue follow the schedule.
    """
    scenario.find_aggregator(target)   # KeyError early if absent
    opts = opts or SolveOptions()
    if threads is None:
        threads = int(os.environ.get("DSO_THREADS", os.cpu_count() or 1))
    indices = range(1, cases + 1)
    jobs = [(scenario, target, tuple(indices[k:k + CHUNK_CASES]), opts)
            for k in range(0, cases, CHUNK_CASES)]
    if threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            chunks = list(pool.map(_solve_chunk, jobs))
    else:
        chunks = [_solve_chunk(job) for job in jobs]
    return SweepResult(target=target,
                       cases=tuple(case for chunk in chunks for case in chunk))


def export_sweep(result: SweepResult, path: str) -> None:
    """Write sweep.csv: one row per (case, entity) plus the DSO position."""
    def fmt(x: float) -> str:
        return f"{float(x):.10g}"

    with open(path, "w", newline="\n") as fh:
        fh.write("i,multiplier,entity,energy_$,capacity_$,mileage_$,"
                 "total_$,status\n")
        for case in result.cases:
            if case.revenue is None:
                fh.write(f"{case.index},{fmt(case.multiplier)},,,,,,"
                         f"{case.status}\n")
                continue
            rev = case.revenue
            for name in sorted(rev.entities):
                e = rev.entities[name]
                fh.write(f"{case.index},{fmt(case.multiplier)},{name},"
                         f"{fmt(e.energy)},{fmt(e.capacity)},"
                         f"{fmt(e.mileage)},{fmt(e.total)},{case.status}\n")
            fh.write(f"{case.index},{fmt(case.multiplier)},dso_wholesale,"
                     f"{fmt(rev.dso_energy)},{fmt(rev.dso_capacity)},"
                     f"{fmt(rev.dso_mileage)},{fmt(rev.dso_total)},"
                     f"{case.status}\n")
