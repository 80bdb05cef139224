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
from dataclasses import dataclass, field, replace
from time import process_time

import numpy as np

# decode is not called here: bench/tracing.py wraps it under this name
from .formulation import (
    MilpProblem,
    Schedule,
    VariableRegistry,
    build,
    decode,
    price_energy,
)
from .model import (
    KIND_DRAG,
    Scenario,
    ScenarioValidationError,
    validate_scenario,
)
from .scenario_io import fmt, scenario_hash
from .solver import (
    OPTIMAL,
    BadStart,
    HighsLp,
    HighsState,
    SolveOptions,
    solve_milp,
)


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
    return settle(scenario, schedule.registry, schedule.prices,
                  schedule.values)


def settle(scenario: Scenario, registry: VariableRegistry,
           prices: np.ndarray, values: np.ndarray) -> RevenueReport:
    """The payments per entity of the columns ``values`` under the price
    table ``prices`` over ``registry``.  Of the scenario it reads only the
    hours and the aggregators' names, which no sweep case changes."""
    # (energy, capacity, mileage) paid to each aggregator and, per hour, by
    # the DSO's columns; the DSO's position is what it is paid, so negated
    totals = registry.sum_by_owner(prices * values)
    steps = scenario.horizon.steps
    hours = [totals[t] for t in steps]
    energy, capacity, mileage = (0.0 - sum(part) for part in zip(*hours))
    return RevenueReport(
        entities={cfg.name: EntityRevenue(*totals[cfg.name])
                  for _, cfg in scenario.aggregators()},
        dso_energy=energy, dso_capacity=capacity, dso_mileage=mileage,
        dso_position={t: 0.0 - sum(h) for t, h in zip(steps, hours)})


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


def _scales_validly(scenario: Scenario, target: str,
                    multiplier: float) -> bool:
    """Whether the target's energy offers scaled by ``multiplier`` pass
    the checks :func:`validate_scenario` makes of them: every scaled
    price finite and, for a DRAG, its block bids non-increasing in each
    hour.  Scaling a valid scenario changes nothing else it checks.

    Order is checked, not only finiteness: rounding can tie two block
    bids that increase, at one multiplier and not at another."""
    bids = [b.prices for cfg in scenario.drags if cfg.name == target
            for b in cfg.blocks]
    # an overflow is a non-finite price, which the caller reports
    with np.errstate(over="ignore"):
        energy = np.multiply(scenario.offers[target].energy, multiplier)
        bids = np.multiply(bids, multiplier)   # (blocks, hours), or empty
    return bool(np.isfinite(energy).all() and np.isfinite(bids).all()
                and (bids[:-1] >= bids[1:]).all())


# Sweep cases per chunk.  A constant, not an option: the chunks fix which
# cases bracket which, so they must not depend on the worker count.
CHUNK_CASES = 10

# The chunks go to worker processes only when case 1's cold solve took
# more CPU seconds than this.  Measured on 2 CPUs, ddgag-1 sweeps of the
# bundled case with its network base scaled, median wall time in one
# process -> on two workers: case 1 at 0.035 s, 0.078 -> 0.113 s; at
# 0.08 s, 0.96 -> 0.95 s; at 0.13 s, 13.7 -> 11.1 s; at 0.4 to 4 s, 35 to
# 40% less.  A constant, not an option, like CHUNK_CASES.
POOL_MIN_CASE_S = 0.1


@dataclass(frozen=True)
class _Point:
    """A case solved to optimality: its solution, and the proven lower
    bound on its optimal objective that the search ended with."""

    values: np.ndarray
    bound: float


@dataclass
class _Chunk:
    """What the cases of one chunk share: the sweep's inputs, the problem
    whose constraints and price table they reuse, one HiGHS model holding
    those constraints and the solution the next solve starts from; and,
    by case index, each case's problem (priced once), its result, and, if
    it was solved to optimality, its point.  Every case settles with the
    sweep's own scenario (:func:`settle`)."""

    scenario: Scenario
    target: str
    opts: SolveOptions
    base: MilpProblem | None = None
    model: HighsLp | None = None
    start: np.ndarray | None = None
    priced: dict[int, MilpProblem] = field(default_factory=dict)
    results: dict[int, SweepCase] = field(default_factory=dict)
    points: dict[int, _Point] = field(default_factory=dict)

    def price(self, i: int) -> MilpProblem:
        """Case ``i``'s problem, the target's energy offers scaled by i/10:
        built if the chunk has no base problem yet, else the base's
        constraints with the base's price table, the target's energy
        entries repriced (:func:`~dsomarket.formulation.price_energy`).

        Those entries are all a case changes of the already validated
        base, so a case is valid when they are (:func:`_scales_validly`);
        one that is not raises the report of validating its scaled
        scenario."""
        if i not in self.priced:
            multiplier = i / 10.0
            if self.base is None:
                problem = self.base = build(scale_energy_offers(
                    self.scenario, self.target, multiplier))
            else:
                if not _scales_validly(self.scenario, self.target,
                                       multiplier):
                    report = validate_scenario(scale_energy_offers(
                        self.scenario, self.target, multiplier))
                    if not report.ok:
                        raise ScenarioValidationError(report)
                energy, capacity, mileage = prices = self.base.prices.copy()
                price_energy(self.scenario, self.base.registry, energy,
                             [self.target], multiplier)
                problem = replace(self.base, prices=prices,
                                  objective=energy + capacity + mileage)
            self.priced[i] = problem
        return self.priced[i]

    def reset(self) -> None:
        """Forget the model and the start: the next solve starts cold."""
        self.model = self.start = None


@dataclass(frozen=True)
class _Snapshot:
    """Where case 1 of a sweep ended, for every chunk to start from: its
    problem, the state of its HiGHS model and its point."""

    base: MilpProblem
    state: HighsState
    first: _Point


def _solve_case(chunk: _Chunk, i: int, starts=()) -> SweepCase:
    """Solve case ``i`` on the chunk's model and record its result.  The
    search starts from the cheapest of ``starts`` at this case's prices,
    or, without ``starts``, from the chunk's last optimum."""
    multiplier = i / 10.0
    try:
        problem = chunk.price(i)
        if starts:
            chunk.start = min(starts, key=lambda x: problem.objective @ x)
        if chunk.model is None:
            chunk.model = HighsLp(chunk.opts)
        try:
            solution = solve_milp(problem, chunk.opts, model=chunk.model,
                                  start=chunk.start)
        except BadStart:
            # the start is only a hint; on badly scaled rows another case's
            # optimum can miss this case's rows by more than the
            # feasibility tolerance
            solution = solve_milp(problem, chunk.opts, model=chunk.model)
        revenue = None
        if solution.status == OPTIMAL:
            objective, x = solution.objective, solution.values
            chunk.start = x
            chunk.points[i] = _Point(
                x, objective - solution.gap * max(1.0, abs(objective)))
            revenue = settle(chunk.scenario, problem.registry,
                             problem.prices, x)
        else:
            chunk.reset()
        result = SweepCase(i, multiplier, solution.status, solution.objective,
                           revenue)
    except Exception as exc:   # per-case failures are recorded, not raised
        chunk.reset()
        result = SweepCase(i, multiplier, "Error", float("nan"), None,
                           str(exc))
    chunk.results[i] = result
    return result


def _certified(chunk: _Chunk, a: int, b: int) -> dict[int, SweepCase] | None:
    """Every case strictly between the optimal cases ``a`` and ``b``,
    settled on the lower of their two solutions' lines at its prices; None
    unless each of those lines is within ``relative_gap`` of the chord
    through ``a``'s and ``b``'s proven lower bounds."""
    ends = chunk.points[a], chunk.points[b]
    picks = {}
    for k in range(a + 1, b):
        try:
            problem = chunk.price(k)
        except Exception:   # left to a solve, which records the error
            return None
        lines = [float(problem.objective @ end.values) for end in ends]
        lower = int(lines[1] < lines[0])
        w = (b - k) / (b - a)
        chord = w * ends[0].bound + (1.0 - w) * ends[1].bound
        objective = lines[lower]
        if objective - chord > chunk.opts.relative_gap * max(1.0,
                                                             abs(objective)):
            return None
        picks[k] = problem, ends[lower].values, objective
    return {k: SweepCase(k, k / 10.0, OPTIMAL, objective,
                         settle(chunk.scenario, problem.registry,
                                problem.prices, x))
            for k, (problem, x, objective) in picks.items()}


def _bisect(chunk: _Chunk, a: int, b: int) -> None:
    """Settle the cases strictly between the solved cases ``a`` and
    ``b``: all of them from the bracket if it certifies them all, else
    solve the midpoint from the better of the two ends and settle each
    half.  Where ``a`` or ``b`` is not optimal, each case between them is
    solved on its own, in order."""
    if b - a < 2:
        return
    if a not in chunk.points or b not in chunk.points:
        for i in range(a + 1, b):
            _solve_case(chunk, i)
        return
    certified = _certified(chunk, a, b)
    if certified is not None:
        chunk.results.update(certified)
        return
    mid = (a + b) // 2
    _solve_case(chunk, mid, (chunk.points[a].values, chunk.points[b].values))
    _bisect(chunk, a, mid)
    _bisect(chunk, mid, b)


def _solve_first(scenario: Scenario, target: str,
                 opts: SolveOptions) -> tuple[SweepCase, _Snapshot | None]:
    """Case 1, cold, and the snapshot of where it ended; None for the
    snapshot unless it is optimal."""
    chunk = _Chunk(scenario, target, opts)
    case = _solve_case(chunk, 1)
    if 1 not in chunk.points:
        return case, None
    return case, _Snapshot(chunk.base, chunk.model.state(), chunk.points[1])


def _solve_chunk(args) -> list[SweepCase]:
    scenario, target, span, opts, snapshot = args
    chunk = _Chunk(scenario, target, opts)
    left, right = span[0], span[-1]
    if snapshot is not None:
        chunk.base, chunk.start = snapshot.base, snapshot.first.values
        chunk.model = HighsLp(opts)
        chunk.model.restore(snapshot.base, snapshot.state)
        if left == 2:      # case 1 brackets chunk 1 from the left
            left = 1
            chunk.points[1] = snapshot.first
    for i in sorted({left, right} - chunk.points.keys()):
        _solve_case(chunk, i)
    _bisect(chunk, left, right)
    return [chunk.results[i] for i in span]


class BadThreadCount(ValueError):
    """``DSO_THREADS`` is set to something other than a positive integer."""


def _env_threads() -> int:
    """The sweep worker count: ``DSO_THREADS`` if set, else the number of
    CPUs this process may run on."""
    raw = os.environ.get("DSO_THREADS")
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
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
    feasible set is the same in every case, and the optimal objective z(m)
    is concave (and piecewise linear) in the multiplier m: the minimum,
    over that set, of each solution's line.

    Case 1 is built and solved cold, once, in this process; where it ends
    (its problem, the HiGHS model's costs, bounds, root cuts and basis,
    and its optimum) is the snapshot that every other case starts from.
    The other cases fall in chunks of ``CHUNK_CASES`` consecutive indices
    (the first chunk is cases 2 to ``CHUNK_CASES``).  Each chunk restores
    the snapshot into a HiGHS model of its own and solves its two ends,
    left then right; case 1 is chunk 1's left end.  It then bisects:
    given two optimal cases a < b, every case k between them is
    **certified** when the lower of a's and b's solutions' lines at k's
    own price table lies within ``relative_gap * max(1, |line|)`` (the
    rule that stops ``solve_milp``) of the chord through a's and b's
    proven lower bounds (objective - gap * max(1, |objective|)).  By
    concavity the chord is below z(k), so a certified case is as good as
    solved: it reports that solution, its objective at k's prices and its
    settlement.  Unless all of them are certified, the midpoint (a + b) //
    2 is solved, starting from whichever of a's and b's solutions is
    cheaper at its prices, and each half is bisected, left first.  Where
    a or b failed or is not optimal, each case between them is solved on
    its own, in order, from the chunk's last optimum.

    A solved case reuses case 1's constraints and cuts, and re-solves on
    the chunk's model from the basis the last solve left.  Its price
    table, for its objective and its revenue, is case 1's with only the
    target's energy entries repriced, and all it validates is that the
    target's scaled offer prices pass the checks
    :func:`validate_scenario` makes of them (:meth:`_Chunk.price`): the
    sweep validates the scenario and builds a whole price table once, in
    case 1's build.  Its revenue comes from that table (:func:`settle`,
    as in :func:`compute_revenue`), with no schedule decoded.  A case
    that fails or ends non-optimal makes the next solve start cold, and
    without a snapshot (case 1 failed) every chunk starts cold and builds
    and solves its own left end, whose problem the chunk's other cases
    reuse as they would case 1's.

    The chunks run on ``threads`` worker processes (default
    ``DSO_THREADS``, else the CPUs this process may use) only if case 1
    took more than ``POOL_MIN_CASE_S`` CPU seconds; otherwise, and with
    one worker, they run here in order.  The chunk boundaries depend
    only on ``cases``, and every chunk starts from the same snapshot, so
    the results depend neither on the worker count nor on where the
    chunks run.

    Since the feasible set is shared, the target's energy weighted by its
    base offers (energy revenue / multiplier), the slope of z, is
    non-increasing in the multiplier, up to the solver's relative gap.
    Its revenue is not monotone: entities settle at their own offer
    prices, so revenue rises with the multiplier wherever the schedule
    stays put, and capacity and mileage revenue follow the schedule.
    """
    scenario.find_aggregator(target)   # KeyError early if absent
    opts = opts or SolveOptions()
    if threads is None:
        threads = _env_threads()
    if cases < 1:
        return SweepResult(target=target, cases=())
    clock = process_time()
    first, snapshot = _solve_first(scenario, target, opts)
    heavy = process_time() - clock > POOL_MIN_CASE_S
    # CHUNK_CASES consecutive indices each, without case 1
    spans = (range(max(k, 2), min(k + CHUNK_CASES, cases + 1))
             for k in range(1, cases + 1, CHUNK_CASES))
    jobs = [(scenario, target, tuple(span), opts, snapshot)
            for span in spans if span]
    if threads > 1 and len(jobs) > 1 and heavy:
        # imported here, as only a heavy sweep starts worker processes:
        # the import costs every other command about 1 MB and 25 modules
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            chunks = list(pool.map(_solve_chunk, jobs))
    else:
        chunks = [_solve_chunk(job) for job in jobs]
    return SweepResult(target=target, cases=(first,) + tuple(
        c for chunk in chunks for c in chunk))


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
