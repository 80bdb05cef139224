"""LP relaxation engine and best-first branch-and-bound for 0/1 MILPs.

The LP relaxations are solved by the HiGHS dual simplex bundled with
scipy, through its private bindings (``scipy.optimize._highspy._core``).
That extension is loaded straight from its file inside scipy by
:mod:`dsomarket.highs`, without importing scipy or ``scipy.optimize``;
importing this module raises ImportError naming the scipy version needed
when it lacks a method the solver calls.  That extension is all this
module takes from scipy.

The solver reads a compiled ``MilpProblem`` directly.  HiGHS is handed
its matrix ``A`` by columns, in build order, with the two-sided row
bounds of ``MilpProblem.row_bounds``, so HiGHS row i is
``row_names[i]``.  Each ``solve_milp`` call loads them once into one
persistent HiGHS model with presolve off; every node is the problem with
its fixed binaries' bounds changed, only those bounds are sent, and the
dual simplex restarts from the basis the previous node left, so a node
costs a few pivots instead of a full solve.  ``solve_lp`` solves one
problem's relaxation on a fresh model, or on a held one.  Problems that
share one constraint system and differ in their objective, such as the
cases of a price sweep, can share one model (only the changed costs are
sent) and seed each search with the previous optimum.  ``HighsLp.state``
takes what a model holds beyond its problem's rows (costs, column
bounds, cut rows and basis) as arrays that pickle, and
``HighsLp.restore`` loads it into a fresh instance, in this process or
another, which then re-solves the held LP without a simplex iteration.

The branch-and-bound search on top is our own and has one form,
``SEARCH``: best-first node order with insertion-order tie-breaking,
branching on the most fractional binary with lowest-index tie-breaking.
Before it branches, the root adds rounds of Gomory mixed-integer cuts
read off the HiGHS tableau.  The cut rows live only in the HiGHS model,
never in the problem's matrix, so a model shared by the cases of a sweep,
or restored from another's state, keeps them for every case: they depend
only on the constraints, which the cases share.  A cut that a known
feasible point shows wrong, and an LP status HiGHS cannot explain, make
the model start again without cuts.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace

import numpy as np

from .highs import highs_bindings

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
ITERATION_LIMIT = "IterationLimit"
NODE_LIMIT = "NodeLimit"

# Gomory cut separation at the root: at most CUT_ROUNDS rounds per solve,
# each from the tableau rows of at most CUT_SOURCES binaries that are basic
# at least CUT_AWAY from an integer.  A cut is kept if its coefficients span
# at most CUT_DYNAMISM and it cuts the LP point off by CUT_EFFICACY (in units
# of the cut's norm).  Constants, not options, like analysis.CHUNK_CASES.
CUT_ROUNDS = 8
CUT_SOURCES = 50
CUT_AWAY = 1e-3
CUT_DYNAMISM = 1e6
CUT_EFFICACY = 1e-6

# the search solve_milp runs, as solve.json records it
SEARCH = {"node_order": "best-first", "branch_rule": "most-fractional",
          "cut_rule": "gomory-mixed-integer at the root",
          "cut_rounds": CUT_ROUNDS}


class SolverError(RuntimeError):
    """The LP backend reported numerical trouble."""


class BadStart(ValueError):
    """A ``start`` given to ``solve_milp`` is not a point of the problem."""


@dataclass(frozen=True)
class SolveOptions:
    feasibility_tol: float = 1e-7
    integrality_tol: float = 1e-6
    relative_gap: float = 1e-6
    max_nodes: int = 100_000

    def __post_init__(self):
        tols = (self.feasibility_tol, self.integrality_tol, self.relative_gap)
        if not all(0 < tol < math.inf for tol in tols):
            raise ValueError("tolerances must be finite and > 0")


@dataclass(frozen=True)
class LpResult:
    status: str
    values: np.ndarray | None
    objective: float
    iterations: int


@dataclass(frozen=True)
class MilpSolution:
    status: str
    values: np.ndarray | None
    objective: float
    nodes_explored: int
    gap: float
    lp_iterations: int


def _columns(problem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(objective, lower, upper)`` of ``problem`` as new float arrays;
    ValueError unless the objective is finite with one entry per column of
    ``A``, and the column bounds are as long, without nan.  HiGHS reads
    its buffers by the counts it is given."""
    c = np.array(problem.objective, dtype=float)
    lower = np.array(problem.lower, dtype=float)
    upper = np.array(problem.upper, dtype=float)
    if c.shape != (problem.A.shape[1],):
        raise ValueError(f"the objective must be 1-D and as long as A is "
                         f"wide ({problem.A.shape[1]}), got shape {c.shape}")
    if lower.shape != c.shape or upper.shape != c.shape:
        raise ValueError(
            f"column bounds must be as long as the objective ({len(c)}); "
            f"got lower {lower.shape}, upper {upper.shape}")
    if not np.isfinite(c).all():
        raise ValueError("the objective must not contain inf or nan")
    if np.isnan(lower).any() or np.isnan(upper).any():
        raise ValueError("column bounds must not contain nan")
    return c, lower, upper


@dataclass(frozen=True)
class HighsState:
    """What a HighsLp holds beyond its problem's rows, as arrays that
    pickle: the costs and column bounds of its last solve, its cut rows
    (as ``HighsLp.cuts``), and the basis that solve ended on, one
    ``HighsBasisStatus`` value per column and per row, cut rows last."""

    c: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    cuts: tuple
    col_status: np.ndarray      # int8
    row_status: np.ndarray      # int8


class HighsLp:
    """The LP relaxation of one constraint system, held by a HiGHS
    instance and re-solved under other costs and column bounds.

    The first ``solve`` loads its problem's rows in build order, bounded
    by :meth:`~dsomarket.formulation.MilpProblem.row_bounds`.  Later
    calls must pass problems that share that problem's ``A``, ``sense``
    and ``rhs`` objects, as the nodes of a search and the cases of a sweep
    do; only the costs and column bounds that differ from the held ones are
    sent to HiGHS, and the dual simplex restarts from the basis the last
    solve left.  Rows beyond the problem's own come only from
    ``separate_cuts``, here or in the HighsLp a restored state came from.
    A solve that ends in a status other than the four verdicts is run once
    more on a fresh, cut-free instance.  ``state`` and ``restore`` carry a
    held LP, its cuts and its basis over to another instance, in this
    process or another.  This class is the package's only user of the private HiGHS bindings.
    """

    _core = highs_bindings()
    _VERDICTS = {"kOptimal": OPTIMAL, "kInfeasible": INFEASIBLE,
                 "kUnbounded": UNBOUNDED, "kIterationLimit": ITERATION_LIMIT}
    # HighsBasisStatus members by value
    _STATUSES = sorted(_core.HighsBasisStatus.__members__.values(), key=int)

    def __init__(self, opts: SolveOptions, presolve: bool = False) -> None:
        self._opts = opts
        self._presolve = presolve
        self.drop_cuts()

    def drop_cuts(self) -> None:
        """Forget the held LP, its cuts and its basis: the next ``solve``
        loads its problem into a fresh HiGHS instance."""
        self._problem = None
        self._rows: tuple = ()      # the rows passModel was given
        self._entry_cols = None     # the column of each entry of _rows
        self._c = self._lower = self._upper = None
        self._optimal_basis = False   # whether the last solve ended optimal
        self._cuts: tuple = ()
        self._highs = self._core._Highs()
        tol = max(min(self._opts.feasibility_tol, 1e-9), 1e-10)
        for name, value in (("output_flag", False),
                            ("presolve", "on" if self._presolve else "off"),
                            ("solver", "simplex"),
                            ("simplex_strategy", 1),    # dual simplex
                            # the dual simplex runs on one thread anyway;
                            # at 0, HiGHS's task scheduler starts a thread
                            # per two hardware threads, and a sweep forks
                            # its workers after case 1 has run here
                            ("threads", 1),
                            ("primal_feasibility_tolerance", tol),
                            ("dual_feasibility_tolerance", tol)):
            self._check(self._highs.setOptionValue(name, value),
                        f"setting {name}")

    @staticmethod
    def _check(status, what: str) -> None:
        if status.name == "kError":
            raise SolverError(f"HiGHS failed {what}")

    def _load(self, problem, c, lower, upper) -> None:
        row_lower, row_upper = problem.row_bounds()
        start, index, value = problem.A.csc()
        n = len(c)
        self._check(self._highs.passModel(
            n, len(row_lower), len(value),
            1, 1, 0.0,      # column-wise matrix, minimise, no offset
            c, lower, upper, row_lower, row_upper,
            start.astype(np.int32), index.astype(np.int32),
            value.astype(float),
            np.zeros(n, dtype=np.int32)),    # every column continuous
            "loading the model")
        self._problem = problem
        self._rows = row_lower, row_upper, start, index, value

    @property
    def loaded(self) -> bool:
        return self._problem is not None

    @property
    def cuts(self) -> tuple:
        """The cut rows the model holds beyond the LP's own, in the order
        ``separate_cuts`` added them: ``(columns, coefficients, lower)``
        each, for the row ``coefficients @ x[columns] >= lower``."""
        return self._cuts

    def state(self) -> HighsState:
        """The held costs, column bounds, cuts and basis, for ``restore``;
        ValueError if no LP is held."""
        if self._problem is None:
            raise ValueError("a HighsLp holds no LP before its first solve")
        basis = self._highs.getBasis()
        if not basis.valid:
            raise SolverError("HiGHS holds no valid basis")
        return HighsState(
            self._c, self._lower, self._upper, self._cuts,
            np.array([int(v) for v in basis.col_status], dtype=np.int8),
            np.array([int(v) for v in basis.row_status], dtype=np.int8))

    def restore(self, problem, state: HighsState) -> None:
        """Load ``problem``'s rows into a fresh HiGHS instance under the
        costs, column bounds, cuts and basis of ``state``, taken from a
        HighsLp that held the same constraint system.  The next ``solve``
        of ``problem`` then needs no simplex iterations; ValueError if the
        state does not fit the problem."""
        n, m = problem.num_cols, len(problem.rhs) + len(state.cuts)
        if not (state.c.shape == state.lower.shape == state.upper.shape
                == state.col_status.shape == (n,)
                and state.row_status.shape == (m,)):
            raise ValueError(f"the state does not fit a problem of {n} "
                             f"columns and {m} rows with its cuts")
        self.drop_cuts()
        self._load(problem, state.c, state.lower, state.upper)
        self._c, self._lower, self._upper = state.c, state.lower, state.upper
        self._add_cuts(state.cuts)
        basis = self._core.HighsBasis()
        basis.col_status, basis.row_status = (
            [self._STATUSES[v] for v in status.tolist()]
            for status in (state.col_status, state.row_status))
        basis.valid, basis.alien = True, False
        self._check(self._highs.setBasis(basis), "setting the basis")

    def _add_cuts(self, cuts) -> None:
        """Add ``cuts`` (as ``cuts`` gives them) to HiGHS in one
        ``addRows`` and to the held ones."""
        if not cuts:
            return
        cols, coefs, lower = zip(*cuts)
        starts = np.cumsum([0] + [len(c) for c in cols[:-1]])
        self._check(self._highs.addRows(
            len(cuts), np.array(lower), np.full(len(cuts), np.inf),
            int(starts[-1] + len(cols[-1])), starts.astype(np.int32),
            np.concatenate(cols).astype(np.int32), np.concatenate(coefs)),
            "adding cuts")
        self._cuts += tuple(cuts)

    def _update(self, c, lower, upper) -> None:
        """Send HiGHS the costs and the column bounds that differ from the
        held ones."""
        changed = np.flatnonzero(c != self._c)
        if changed.size:
            self._check(self._highs.changeColsCost(
                changed.size, changed.astype(np.int32), c[changed]),
                "changing costs")
        changed = np.flatnonzero((lower != self._lower)
                                 | (upper != self._upper))
        if changed.size:
            self._check(self._highs.changeColsBounds(
                changed.size, changed.astype(np.int32),
                lower[changed], upper[changed]), "changing bounds")

    def _run(self):
        """Run the simplex; return the model status and its iterations."""
        self._check(self._highs.run(), "running the simplex")
        return (self._highs.getModelStatus(),
                int(self._highs.getInfo().simplex_iteration_count))

    def solve(self, problem) -> LpResult:
        """Solve the LP relaxation of ``problem`` under its own column
        bounds: load it into an empty model, or re-solve the held one if
        ``problem`` shares its ``A``, ``sense`` and ``rhs`` objects;
        ValueError otherwise, and for malformed input."""
        c, lower, upper = _columns(problem)
        held = self._problem
        self._optimal_basis = False
        if held is None:
            self._load(problem, c, lower, upper)
        elif (problem.A is held.A and problem.sense is held.sense
              and problem.rhs is held.rhs):
            self._update(c, lower, upper)
        else:
            raise ValueError("a HighsLp re-solves one constraint system; "
                             "only its costs and column bounds may change")
        self._c, self._lower, self._upper = c, lower, upper
        model_status, iterations = self._run()
        ambiguous = model_status.name == "kUnboundedOrInfeasible"
        if model_status.name not in self._VERDICTS and not (
                ambiguous and not self._presolve):
            # a warm model, or its cuts, can lose its way (status Unknown on
            # badly scaled rows): solve once more on a fresh, cut-free one
            self.drop_cuts()
            self._load(problem, c, lower, upper)
            self._c, self._lower, self._upper = c, lower, upper
            model_status, more = self._run()
            iterations += more
            ambiguous = model_status.name == "kUnboundedOrInfeasible"
        if ambiguous and not self._presolve:
            # the dual simplex alone cannot tell which; presolve can
            cold = HighsLp(self._opts, presolve=True).solve(problem)
            return LpResult(cold.status, cold.values, cold.objective,
                            iterations + cold.iterations)
        status = self._VERDICTS.get(model_status.name)
        if status is None:
            raise SolverError(
                "LP backend failed: HiGHS model status "
                f"{self._highs.modelStatusToString(model_status)} "
                f"({model_status.name})")
        if status != OPTIMAL:
            objective = -np.inf if status == UNBOUNDED else np.inf
            return LpResult(status, None, objective, iterations)
        self._optimal_basis = True
        return LpResult(
            status, np.asarray(self._highs.getSolution().col_value),
            float(self._highs.getInfo().objective_function_value),
            iterations)

    def _clean_cut(self, g: np.ndarray, beta: float, x: np.ndarray,
                   known) -> tuple[np.ndarray, np.ndarray, float] | None:
        """The cut ``g @ x >= beta`` as (columns, coefficients, lower bound),
        scaled to a largest coefficient of 1, with each coefficient below
        ``1 / CUT_DYNAMISM`` dropped and the lower bound relaxed by the most
        its term can reach within the column bounds; None if that is
        unbounded, or if the cut cuts ``x`` off by less than
        ``CUT_EFFICACY`` or cuts off a point of ``known``."""
        cols = np.flatnonzero(g)
        coefs = g[cols]
        scale = np.max(np.abs(coefs), initial=0.0)
        if not (0.0 < scale < np.inf and np.isfinite(beta)):
            return None
        coefs /= scale
        beta /= scale
        tiny = np.abs(coefs) < 1.0 / CUT_DYNAMISM
        small, at = coefs[tiny], cols[tiny]
        reach = np.where(small > 0, small * self._upper[at],
                         small * self._lower[at])
        if not np.isfinite(reach).all():
            return None
        beta -= reach.sum()
        cols, coefs = cols[~tiny], coefs[~tiny]
        if beta - coefs @ x[cols] < CUT_EFFICACY * np.linalg.norm(coefs):
            return None
        tol = self._opts.feasibility_tol
        if any(coefs @ point[cols] < beta - tol for point in known):
            return None
        return cols, coefs, beta

    def separate_cuts(self, int_cols: np.ndarray, x: np.ndarray,
                      known=()) -> int:
        """Add Gomory mixed-integer (GMI) cuts read off the optimal basis of
        the last solve, and return how many were added.  That solve must
        have run under the LP's own column bounds, as at the root of a
        search, and ``x`` must be its solution; ``int_cols`` are the binary
        columns.

        Each binary basic at a fractional value ``x_b`` gives one tableau
        row ``x_b + sum_j a_j y_j = x_b*`` over the distances ``y_j >= 0``
        of the nonbasic columns and row activities from the bounds they sit
        at, and from it the cut ``sum_j pi_j y_j >= 1`` (Balas, Ceria,
        Cornuejols & Natraj 1996), written back over the columns.  A cut is
        kept only if its coefficients span at most ``CUT_DYNAMISM``, it cuts
        ``x`` off by at least ``CUT_EFFICACY``, and every point of ``known``
        (feasible points of the MILP) satisfies it.  The kept cuts reach
        HiGHS in one ``addRows`` and stay until ``drop_cuts``."""
        if not self._optimal_basis:
            return 0
        status, basic = self._highs.getBasicVariables()
        self._check(status, "reading the basis")
        n = len(x)
        row_lower, row_upper, start, index, value = self._rows
        held = len(row_lower)
        if self._entry_cols is None:
            self._entry_cols = np.repeat(np.arange(n), np.diff(start))
        row_lower = np.concatenate([row_lower, [cut[2] for cut in self._cuts]])
        row_upper = np.concatenate([row_upper,
                                    np.full(len(self._cuts), np.inf)])
        col_basic = np.zeros(n, dtype=bool)
        col_basic[basic[basic >= 0]] = True
        row_basic = np.zeros(len(row_lower), dtype=bool)
        row_basic[-1 - basic[basic < 0]] = True
        # each nonbasic column and row activity is bound + d * y, with
        # d = 1 at its lower bound, -1 at its upper and 0 where it cannot move
        col_d, col_bound, col_free = _nonbasic_steps(
            x, self._lower, self._upper, col_basic)
        row_d, row_bound, row_free = _nonbasic_steps(
            np.asarray(self._highs.getSolution().row_value),
            row_lower, row_upper, row_basic)
        integral = np.zeros(n, dtype=bool)
        integral[int_cols] = True
        # the binaries whose distance from their bound is a whole number
        steps_whole = integral & (col_bound == np.round(col_bound))
        frac = x - np.floor(x)
        position = np.flatnonzero(basic >= 0)
        source = basic[position]
        away = np.minimum(frac[source], 1.0 - frac[source])
        pick = integral[source] & (away > CUT_AWAY)
        position, source, away = position[pick], source[pick], away[pick]
        order = np.argsort(-away, kind="stable")[:CUT_SOURCES]
        cuts = []
        for i, b in zip(position[order].tolist(), source[order].tolist()):
            status, reduced = self._highs.getReducedRow(i)
            self._check(status, "reading a tableau row")
            status, inverse = self._highs.getBasisInverseRow(i)
            self._check(status, "reading a tableau row")
            if reduced[col_free].any() or inverse[row_free].any():
                continue    # a free nonbasic variable has no bound to cut at
            # the row's nonbasic terms: a_j = reduced_j d_j for columns and
            # -inverse_j d_j for row activities
            jc = np.flatnonzero(reduced * col_d)
            jr = np.flatnonzero(inverse * row_d)
            pi_col = _gmi(reduced[jc] * col_d[jc], frac[b], steps_whole[jc])
            pi_row = _gmi(-inverse[jr] * row_d[jr], frac[b], False)
            # pi_j y_j = w_j (v_j - bound_j) with w_j = pi_j d_j, and a row's
            # activity v_j is its row of the matrix times the columns
            w_col = np.zeros(n)
            w_col[jc] = pi_col * col_d[jc]
            w_row = np.zeros(len(row_d))
            w_row[jr] = pi_row * row_d[jr]
            beta = 1.0 + w_col @ col_bound + w_row @ row_bound
            g = w_col + np.bincount(self._entry_cols,
                                    weights=value * w_row[index], minlength=n)
            for (cols, coefs, _), w in zip(self._cuts, w_row[held:]):
                if w:
                    g[cols] += w * coefs
            cut = self._clean_cut(g, beta, x, known)
            if cut is not None:
                cuts.append(cut)
        self._add_cuts(cuts)
        if cuts:
            self._optimal_basis = False
        return len(cuts)


def _gmi(a: np.ndarray, f0: float, integer) -> np.ndarray:
    """The coefficients ``pi`` of the GMI cut ``sum_j pi_j y_j >= 1`` from
    the row ``x_b + sum_j a_j y_j = x_b*`` with ``x_b*`` ``f0`` above its
    floor, over ``y_j >= 0`` that are whole numbers where ``integer``."""
    f = a - np.floor(a)
    return np.where(integer,
                    np.where(f <= f0, f / f0, (1.0 - f) / (1.0 - f0)),
                    np.where(a >= 0, a / f0, -a / (1.0 - f0)))


def _nonbasic_steps(value, lower, upper, basic):
    """For variables at ``value`` within ``[lower, upper]``: the direction
    ``d`` each nonbasic one moves away from the bound it sits at (1 from its
    lower bound, -1 from its upper, 0 for basic and fixed ones), that bound
    (0 where ``d`` is 0), and which nonbasic ones are free, with no bound."""
    at_upper = upper - value < value - lower
    d = np.where(at_upper, -1.0, 1.0)
    bound = np.where(at_upper, upper, lower)
    d[basic | (lower == upper)] = 0.0
    free = (d != 0) & ~np.isfinite(bound)
    d[free] = 0.0
    return d, np.where(d != 0, bound, 0.0), free


def solve_lp(problem, opts: SolveOptions | None = None,
             model: HighsLp | None = None) -> LpResult:
    """Solve the LP relaxation of a MilpProblem, under its own column
    bounds, to a vertex with HiGHS dual simplex.

    ``model`` warm-starts the solve from a HighsLp that already holds the
    problem's constraint system under other costs or column bounds
    (``solve_milp`` passes one per search); without it a fresh model is
    built from ``opts``.
    """
    if model is None:
        model = HighsLp(opts or SolveOptions())
    return model.solve(problem)


def _check_binary_mask(problem) -> np.ndarray:
    """The integral columns; ValueError naming the first one whose bounds
    are not within [0, 1] (a nan bound is not)."""
    int_cols = np.flatnonzero(problem.integrality)
    lo, hi = problem.lower[int_cols], problem.upper[int_cols]
    inside = (0.0 <= lo) & (hi <= 1.0)
    if not inside.all():
        k = int(np.argmin(inside))
        raise ValueError(
            f"integral column {int_cols[k]} must be bounded within [0, 1], "
            f"got [{lo[k]}, {hi[k]}]")
    return int_cols


def _check_start(problem, start, int_cols, opts: SolveOptions) -> np.ndarray:
    """``start`` as a float vector; BadStart unless it is a point of the
    problem: integral on the binary columns and within ``feasibility_tol``
    of every bound and row."""
    x = np.array(start, dtype=float)
    if x.shape != (problem.num_cols,):
        raise BadStart(f"start has shape {x.shape}, problem has "
                       f"{problem.num_cols} columns")
    if not np.isfinite(x).all():
        raise BadStart("start must not contain inf or nan")
    binary = x[int_cols]
    if np.any(np.abs(binary - np.round(binary)) > opts.integrality_tol):
        raise BadStart("start is fractional on a binary column")
    worst = problem.max_residual(x)
    if worst > opts.feasibility_tol:
        raise BadStart(f"start violates a bound or row by {worst:.3g}")
    return x


def _fractional(x: np.ndarray, int_cols: np.ndarray,
                opts: SolveOptions) -> np.ndarray:
    """Which binary columns ``x`` leaves fractional."""
    frac = x[int_cols] - np.floor(x[int_cols] + 0.5)
    return np.abs(frac) > opts.integrality_tol


def _cuts_failed(result: LpResult, fixes, incumbent, inc_obj: float,
                 opts: SolveOptions) -> bool:
    """Whether an LP solved on a model with cuts shows that a cut may be
    wrong, so the search must go on without them: the root LP ends other
    than optimal (the cut-free root then settles its status), or an LP
    whose fixes the incumbent meets ends other than optimal or above the
    incumbent's objective."""
    if result.status == OPTIMAL and result.objective <= (
            inc_obj + opts.relative_gap * max(1.0, abs(inc_obj))):
        return False
    if not fixes:
        return True
    return incumbent is not None and all(
        abs(incumbent[j] - value) <= opts.integrality_tol
        for j, value in fixes)


def _root_cut_rounds(model: HighsLp, solve_root, root: LpResult,
                     int_cols: np.ndarray, incumbent, cutoff: float,
                     opts: SolveOptions) -> tuple[LpResult, int]:
    """Add up to ``CUT_ROUNDS`` rounds of GMI cuts to the optimal root LP
    ``root`` held by ``model``, re-solving it with ``solve_root()`` after
    each; return the last root LP and the simplex iterations spent.

    The rounds stop when the LP is integral or reaches ``cutoff``, when no
    cut is added, when the re-solve dropped the cuts, or on a stall: a
    round that neither raises the bound nor leaves fewer fractional
    binaries."""
    known = () if incumbent is None else (incumbent,)
    spent = 0
    count = int(np.count_nonzero(_fractional(root.values, int_cols, opts)))
    for _ in range(CUT_ROUNDS):
        if (not count or root.objective >= cutoff
                or not model.separate_cuts(int_cols, root.values, known)):
            break
        result = solve_root()
        spent += result.iterations
        if result.status != OPTIMAL or not model.cuts:
            return result, spent
        fewer = int(np.count_nonzero(
            _fractional(result.values, int_cols, opts)))
        stalled = (result.objective <= root.objective + 1e-9 * max(
            1.0, abs(root.objective)) and fewer >= count)
        root, count = result, fewer
        if stalled:
            break
    return root, spent


def solve_milp(problem, opts: SolveOptions | None = None,
               trace: list | None = None, model: HighsLp | None = None,
               start=None) -> MilpSolution:
    """Branch-and-bound over the problem's binary columns.

    ``trace``, when given, collects one ``(depth, parent_bound, lp_objective,
    incumbent_objective)`` tuple per explored node, for diagnostics and
    monotonicity checks.

    Each node's LP is ``replace(problem, lower=..., upper=...)`` with its
    binaries fixed, so every node shares the problem's ``A``, ``sense`` and
    ``rhs``.  ``model`` runs the node LPs on a HighsLp that is empty or
    already holds those three objects (under any objective and bounds), so
    the root restarts from the basis the last solve left.  ``start``, a
    feasible point of the problem, seeds the incumbent, so the search has
    a cutoff from the first node; an infeasible one raises BadStart.
    """
    opts = opts or SolveOptions()
    int_cols = _check_binary_mask(problem)

    incumbent: np.ndarray | None = None
    inc_obj = np.inf
    if start is not None:
        incumbent = _check_start(problem, start, int_cols, opts)
        inc_obj = float(problem.objective @ incumbent)
    if model is None:
        model = HighsLp(opts)

    def lp(fixes) -> LpResult:
        node = problem
        if fixes:
            lower, upper = problem.lower.copy(), problem.upper.copy()
            for j, value in fixes:
                lower[j] = upper[j] = value
            node = replace(problem, lower=lower, upper=upper)
        result = solve_lp(node, opts, model)
        if model.cuts and _cuts_failed(result, fixes, incumbent, inc_obj,
                                       opts):
            # a cut may be wrong: solve this LP and the rest without cuts
            model.drop_cuts()
            retry = solve_lp(node, opts, model)
            result = replace(retry, iterations=result.iterations
                             + retry.iterations)
        return result

    nodes = 0
    lp_iterations = 0
    counter = 0
    # (parent bound, insertion order, depth, binaries fixed as (column, value))
    heap: list = [(-np.inf, counter, 0, ())]
    pruned_bound = np.inf    # tightest bound among nodes pruned at the cutoff

    def cutoff() -> float:
        return inc_obj - opts.relative_gap * max(1.0, abs(inc_obj))

    while heap and nodes < opts.max_nodes:
        bound, _, depth, fixes = heapq.heappop(heap)
        if bound >= cutoff():
            pruned_bound = min(pruned_bound, bound)
            # heap is ordered; every remaining node is at least as bad
            heap.clear()
            break
        result = lp(fixes)
        nodes += 1
        lp_iterations += result.iterations
        if depth == 0 and result.status == OPTIMAL:
            result, spent = _root_cut_rounds(model, lambda: lp(()), result,
                                             int_cols, incumbent, cutoff(),
                                             opts)
            lp_iterations += spent
        if result.status == INFEASIBLE:
            if trace is not None:
                trace.append((depth, bound, np.inf, inc_obj))
            continue
        if result.status == UNBOUNDED:
            return MilpSolution(UNBOUNDED, None, -np.inf, nodes, np.inf,
                                lp_iterations)
        if result.status != OPTIMAL:
            raise SolverError(f"relaxation returned {result.status}")
        obj = result.objective
        if trace is not None:
            trace.append((depth, bound, obj, inc_obj))
        if obj >= cutoff():
            pruned_bound = min(pruned_bound, obj)
            continue
        x = result.values
        fractional = _fractional(x, int_cols, opts)
        if not np.any(fractional):
            if obj < inc_obj:
                inc_obj = obj
                incumbent = x
            continue
        if depth == 0 or (incumbent is None and nodes % 50 == 0):
            # rounding dive: fix every binary at its rounded value and
            # re-solve; on problems whose relaxation optimum survives
            # rounding it closes the gap at the root instead of crawling a
            # plateau of tied bounds
            rounded = np.floor(x[int_cols] + 0.5)
            dive = lp(fixes + tuple(zip(int_cols.tolist(), rounded.tolist())))
            lp_iterations += dive.iterations
            if dive.status == OPTIMAL and dive.objective < inc_obj:
                inc_obj = dive.objective
                incumbent = dive.values
                if obj >= cutoff():
                    pruned_bound = min(pruned_bound, obj)
                    continue
        # most fractional binary: farthest from integrality, lowest index
        # wins ties
        frac_cols = int_cols[fractional]
        fractions = x[frac_cols] - np.floor(x[frac_cols])
        dist = np.minimum(fractions, 1.0 - fractions)
        j = int(frac_cols[int(np.argmax(dist))])
        for value in (0.0, 1.0):
            counter += 1
            heapq.heappush(heap, (obj, counter, depth + 1,
                                  fixes + ((j, value),)))

    if incumbent is None:
        status = NODE_LIMIT if heap and nodes >= opts.max_nodes else INFEASIBLE
        return MilpSolution(status, None, np.inf, nodes, np.inf,
                            lp_iterations)

    candidates = [item[0] for item in heap] + [pruned_bound, inc_obj]
    best_bound = min(candidates)
    gap = max(0.0, (inc_obj - best_bound) / max(1.0, abs(inc_obj)))
    if heap and nodes >= opts.max_nodes and gap > opts.relative_gap:
        return MilpSolution(NODE_LIMIT, incumbent, inc_obj, nodes, gap,
                            lp_iterations)
    return MilpSolution(OPTIMAL, incumbent, inc_obj, nodes, gap,
                        lp_iterations)
