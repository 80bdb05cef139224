"""Post-solve economics: revenue decomposition and the price sweep.

Revenue is read off the objective's own price table,
:func:`~dsomarket.formulation.settlement_prices`, which the schedule
carries: each column's energy, capacity and mileage prices times its value,
summed over the columns an entity owns.  Generation-side aggregators earn
their energy offer price on scheduled injections, load-side aggregators'
energy purchases (each DRAG block at its own bid price) are reported as
negative income, and every aggregator earns capacity and mileage payments
on its regulation awards; the DSO wholesale position is the negated
payments of its substation columns, reported with income positive.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .formulation import (
    MilpProblem,
    Schedule,
    build,
    decode,
    settlement_prices,
)
from .model import (
    KIND_DRAG,
    Scenario,
    ScenarioValidationError,
    validate_scenario,
)
from .scenario_io import fmt, scenario_hash
from .solver import OPTIMAL, BadStart, HighsLp, SolveOptions, solve_milp


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

    def rows(self) -> list[str]:
        """``entity,energy,capacity,mileage,total`` for each entity by name,
        then for the DSO as ``dso_wholesale``: the rows of revenue.csv and
        of each sweep.csv case."""
        parts = [(name, self.entities[name]) for name in sorted(self.entities)]
        parts.append(("dso_wholesale", EntityRevenue(
            self.dso_energy, self.dso_capacity, self.dso_mileage)))
        return [f"{name},{fmt(e.energy)},{fmt(e.capacity)},"
                f"{fmt(e.mileage)},{fmt(e.total)}" for name, e in parts]


def compute_revenue(schedule: Schedule, scenario: Scenario) -> RevenueReport:
    """Decompose the schedule's payments per entity.

    The schedule records the scenario it was decoded from and its hash;
    pairing it with any other scenario raises :class:`StaleSchedule`.
    """
    if (scenario is not schedule.scenario
            and schedule.scenario_hash != scenario_hash(scenario)):
        raise StaleSchedule("schedule does not belong to this scenario")
    paid = schedule.prices * schedule.values
    # (energy, capacity, mileage) paid to each aggregator and, per hour, by
    # the DSO's columns; the DSO's position is what it is paid, so negated
    totals = schedule.registry.sum_by_owner(paid)
    steps = scenario.horizon.steps
    hours = [totals[t] for t in steps]
    energy, capacity, mileage = (0.0 - sum(part) for part in zip(*hours))
    return RevenueReport(
        entities={cfg.name: EntityRevenue(*totals[cfg.name])
                  for _, cfg in scenario.aggregators()},
        dso_energy=energy, dso_capacity=capacity, dso_mileage=mileage,
        dso_position={t: 0.0 - sum(h) for t, h in zip(steps, hours)})


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
            replace(cfg, blocks=tuple(
                replace(b, prices=tuple(p * multiplier for p in b.prices))
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
    same sweep, reuse its constraints with this case's prices."""
    if base is None:
        return build(case)
    report = validate_scenario(case)
    if not report.ok:
        raise ScenarioValidationError(report)
    energy, capacity, mileage = prices = settlement_prices(case, base.registry)
    return replace(base, objective=energy + capacity + mileage, prices=prices)


def _solve_case(scenario: Scenario, target: str, i: int, opts: SolveOptions,
                warm: _WarmStart) -> SweepCase:
    multiplier = i / 10.0
    case = scale_energy_offers(scenario, target, multiplier)
    try:
        problem = _case_problem(case, warm.base)
        if warm.model is None:
            warm.base, warm.model = problem, HighsLp(opts)
        try:
            solution = solve_milp(problem, opts, model=warm.model,
                                  start=warm.start)
        except BadStart:
            # the last optimum is only a hint; on badly scaled rows it can
            # miss this case's rows by more than the feasibility tolerance
            solution = solve_milp(problem, opts, model=warm.model)
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


class BadThreadCount(ValueError):
    """``DSO_THREADS`` is set to something other than a positive integer."""


def _env_threads() -> int:
    """The sweep worker count: ``DSO_THREADS`` if set, else the CPU count."""
    raw = os.environ.get("DSO_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise BadThreadCount(
            f"DSO_THREADS must be a positive integer, got {raw!r}")
    return threads


def run_sweep(scenario: Scenario, target: str, cases: int = 40,
              opts: SolveOptions | None = None,
              threads: int | None = None) -> SweepResult:
    """Solve the scenario with the target's energy offers scaled by i/10
    for i = 1..cases; output is ordered by i.

    Only the target's objective coefficients change between cases, so the
    feasible set is the same in every case.  The cases are solved in
    chunks of ``CHUNK_CASES`` consecutive indices.  A chunk builds its
    first case once; each later case reuses those constraints with its own
    price table, re-solves on the same HiGHS model from the basis the last
    case left, and seeds its incumbent with the last case's optimum, which
    is feasible by construction.  A case's price table gives both its
    objective and its revenue.  A case that fails or ends non-optimal
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
        threads = _env_threads()
    indices = range(1, cases + 1)
    jobs = [(scenario, target, tuple(indices[k:k + CHUNK_CASES]), opts)
            for k in range(0, cases, CHUNK_CASES)]
    if threads > 1 and len(jobs) > 1:
        # imported here, as only a parallel sweep starts worker processes:
        # the import costs every other command about 1 MB and 25 modules
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            chunks = list(pool.map(_solve_chunk, jobs))
    else:
        chunks = [_solve_chunk(job) for job in jobs]
    return SweepResult(target=target,
                       cases=tuple(case for chunk in chunks for case in chunk))


def export_sweep(result: SweepResult, path: str) -> None:
    """Write sweep.csv: one row per (case, entity) plus the DSO position."""
    with open(path, "w", newline="\n") as fh:
        fh.write("i,multiplier,entity,energy_$,capacity_$,mileage_$,"
                 "total_$,status\n")
        for case in result.cases:
            head = f"{case.index},{fmt(case.multiplier)}"
            if case.revenue is None:
                fh.write(f"{head},,,,,,{case.status}\n")
                continue
            for row in case.revenue.rows():
                fh.write(f"{head},{row},{case.status}\n")
