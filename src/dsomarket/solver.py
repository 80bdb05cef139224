"""LP relaxation engine and best-first branch-and-bound for 0/1 MILPs.

The LP relaxations are solved by the HiGHS dual simplex bundled with
scipy, through its private bindings (``scipy.optimize._highspy._core``).
That extension is loaded straight from its file inside scipy, without
importing ``scipy.optimize``, whose ``__init__`` would pull in linprog,
scipy.linalg, scipy.special and more that this package never uses.  When
the file is not there, or lacks a method the solver calls, importing this
module raises ImportError naming the scipy version needed.
Each ``solve_milp`` call loads its relaxation once into one persistent
HiGHS model with presolve off; every node then only changes the bounds of
the binary columns it fixes, and the dual simplex restarts from the basis
the previous node left, so a node costs a few pivots instead of a full
solve.  A one-shot ``solve_lp`` runs the same code on a fresh model.
Problems that differ only in their objective, such as the cases of a price
sweep, can share one model (only the changed costs are sent) and seed each
search with the previous optimum.

The branch-and-bound search on top is our own and has one form,
``SEARCH``: best-first node order with insertion-order tie-breaking,
branching on the most fractional binary with lowest-index tie-breaking.
"""

from __future__ import annotations

import heapq
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np
import scipy
from scipy import sparse

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
ITERATION_LIMIT = "IterationLimit"
NODE_LIMIT = "NodeLimit"

# the search solve_milp runs, as solve.json records it
SEARCH = {"node_order": "best-first", "branch_rule": "most-fractional"}


class SolverError(RuntimeError):
    """The LP backend reported numerical trouble."""


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
class LpStandardForm:
    """Canonical LP: min c @ x, A_ub x <= b_ub, A_eq x == b_eq, lb <= x <= ub."""

    c: np.ndarray
    A_ub: object = None
    b_ub: np.ndarray | None = None
    A_eq: object = None
    b_eq: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None


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


def _finite(name: str, values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError(f"LP input {name} must not contain inf or nan")
    return values


def _row_block(kind: str, A, b, n: int):
    """The rows ``A_kind x (<= or ==) b_kind`` as (CSR matrix, rhs), checked
    to be m x n and m long: HiGHS reads its buffers by the counts given.
    A missing matrix or right-hand side stands for zero rows."""
    A = sparse.csr_array((0, n)) if A is None else sparse.csr_array(A)
    b = _finite(f"b_{kind}", np.empty(0) if b is None else b)
    if A.ndim != 2 or A.shape[1] != n or b.shape != (A.shape[0],):
        raise ValueError(
            f"A_{kind} has shape {A.shape} and b_{kind} {b.shape}; "
            f"expected (m, {n}) and (m,)")
    _finite(f"A_{kind}", A.data)
    return A, b


# Every method of the private ``_Highs`` class that HighsLp calls.  They are
# checked when this module is imported, so a scipy without them fails there.
HIGHS_METHODS = ("setOptionValue", "passModel", "changeColsBounds",
                 "changeColsCost", "run", "getModelStatus",
                 "modelStatusToString", "getInfo", "getSolution")
HIGHS_MODULE = "scipy.optimize._highspy._core"
SCIPY_NEEDED = "scipy>=1.17"


def highs_bindings():
    """scipy's private HiGHS bindings, checked to have every method in
    ``HIGHS_METHODS``; ImportError naming the scipy version needed otherwise.

    A module already in ``sys.modules`` is used as is.  Otherwise the
    extension is loaded from its file inside scipy, without running
    ``scipy/optimize/__init__.py`` (linprog, scipy.linalg, scipy.special,
    ...), and registered under its dotted name, so a later
    ``import scipy.optimize`` reuses it instead of initialising it again."""
    if HIGHS_MODULE in sys.modules:
        core = sys.modules[HIGHS_MODULE]
        if core is None:
            raise ImportError(
                f"dsomarket needs {SCIPY_NEEDED}: cannot import the HiGHS "
                f"bindings {HIGHS_MODULE} (None in sys.modules)")
    else:
        folders = [os.path.join(root, "optimize", "_highspy")
                   for root in scipy.__path__]
        files = [os.path.join(folder, "_core" + suffix) for folder in folders
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next(filter(os.path.isfile, files), None)
        if path is None:
            raise ImportError(
                f"dsomarket needs {SCIPY_NEEDED}: the HiGHS bindings "
                f"{HIGHS_MODULE} have no _core extension file in "
                f"{', '.join(folders)}")
        loader = importlib.machinery.ExtensionFileLoader(HIGHS_MODULE, path)
        core = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(HIGHS_MODULE, path,
                                                   loader=loader))
        loader.exec_module(core)
        sys.modules[HIGHS_MODULE] = core
    missing = [name for name in HIGHS_METHODS
               if not hasattr(getattr(core, "_Highs", None), name)]
    if missing:
        raise ImportError(
            f"dsomarket needs {SCIPY_NEEDED}: the HiGHS bindings "
            f"{HIGHS_MODULE} lack _Highs.{', _Highs.'.join(missing)}")
    return core


class HighsLp:
    """One LP held by a HiGHS instance, re-solved after bound changes.

    The first ``solve`` loads the form; later calls must pass forms with
    the same objective and constraint arrays and change only the column
    bounds.  Only the columns whose bounds differ from the loaded ones are
    sent to HiGHS, and the dual simplex restarts from the basis the last
    solve left.  The objective changes only through ``change_costs``.
    This class is the package's only user of the private HiGHS bindings.
    """

    _core = highs_bindings()
    _VERDICTS = {"kOptimal": OPTIMAL, "kInfeasible": INFEASIBLE,
                 "kUnbounded": UNBOUNDED, "kIterationLimit": ITERATION_LIMIT}

    def __init__(self, opts: SolveOptions, presolve: bool = False) -> None:
        self._opts = opts
        self._presolve = presolve
        self._form: LpStandardForm | None = None
        self._lower = self._upper = None
        self._highs = self._core._Highs()
        tol = max(min(opts.feasibility_tol, 1e-9), 1e-10)
        for name, value in (("output_flag", False),
                            ("presolve", "on" if presolve else "off"),
                            ("solver", "simplex"),
                            ("simplex_strategy", 1),    # dual simplex
                            ("primal_feasibility_tolerance", tol),
                            ("dual_feasibility_tolerance", tol)):
            self._check(self._highs.setOptionValue(name, value),
                        f"setting {name}")

    @staticmethod
    def _check(status, what: str) -> None:
        if status.name == "kError":
            raise SolverError(f"HiGHS failed {what}")

    def _load(self, form: LpStandardForm, lower, upper) -> None:
        c = _finite("c", form.c)
        n = len(c)
        A_ub, b_ub = _row_block("ub", form.A_ub, form.b_ub, n)
        A_eq, b_eq = _row_block("eq", form.A_eq, form.b_eq, n)
        A = sparse.vstack([A_ub, A_eq], format="csc")
        self._check(self._highs.passModel(
            n, A.shape[0], A.nnz,
            1, 1, 0.0,      # column-wise matrix, minimise, no offset
            c, lower, upper,
            np.concatenate([np.full(len(b_ub), -np.inf), b_eq]),
            np.concatenate([b_ub, b_eq]),
            A.indptr.astype(np.int32), A.indices.astype(np.int32),
            A.data.astype(float),
            np.zeros(n, dtype=np.int32)),    # every column continuous
            "loading the model")
        self._form = form

    @property
    def loaded(self) -> bool:
        return self._form is not None

    def change_costs(self, c) -> None:
        """Make ``c`` the objective of the loaded LP.  Only the columns whose
        cost changes are sent to HiGHS and the basis is kept, so the next
        solve restarts from it; that solve must pass this ``c`` object."""
        if self._form is None:
            raise ValueError("no LP is loaded to change the costs of")
        c = _finite("c", c)
        held = self._form.c
        if c.shape != held.shape:
            raise ValueError(
                f"c must have the loaded shape {held.shape}, got {c.shape}")
        changed = np.flatnonzero(c != held)
        if changed.size:
            self._check(self._highs.changeColsCost(
                changed.size, changed.astype(np.int32), c[changed]),
                "changing costs")
        self._form = replace(self._form, c=c)

    def _same_lp(self, form: LpStandardForm) -> bool:
        held = self._form
        return all(a is b for a, b in zip(
            (form.c, form.A_ub, form.b_ub, form.A_eq, form.b_eq),
            (held.c, held.A_ub, held.b_ub, held.A_eq, held.b_eq)))

    def _set_bounds(self, lower, upper) -> None:
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

    def solve(self, form: LpStandardForm) -> LpResult:
        if np.ndim(form.c) != 1:
            raise ValueError(f"c must be 1-D, got shape {np.shape(form.c)}")
        n = len(form.c)
        lower = np.array(form.lower if form.lower is not None
                         else np.zeros(n), dtype=float)
        upper = np.array(form.upper if form.upper is not None
                         else np.full(n, np.inf), dtype=float)
        if lower.shape != (n,) or upper.shape != (n,):
            raise ValueError(
                f"column bounds must be as long as c ({n}); got lower "
                f"{lower.shape}, upper {upper.shape}")
        if np.isnan(lower).any() or np.isnan(upper).any():
            raise ValueError("LP column bounds must not contain nan")
        if self._form is None:
            self._load(form, lower, upper)
        elif self._same_lp(form):
            self._set_bounds(lower, upper)
        else:
            raise ValueError("a HighsLp re-solves one LP; only its column "
                             "bounds may change")
        self._lower, self._upper = lower, upper
        model_status, iterations = self._run()
        ambiguous = model_status.name == "kUnboundedOrInfeasible"
        if ambiguous and not self._presolve:
            # the dual simplex alone cannot tell which; presolve can
            cold = HighsLp(self._opts, presolve=True).solve(form)
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
        return LpResult(
            status, np.asarray(self._highs.getSolution().col_value),
            float(self._highs.getInfo().objective_function_value),
            iterations)


def solve_lp(form: LpStandardForm, opts: SolveOptions | None = None,
             model: HighsLp | None = None) -> LpResult:
    """Solve one LP to a vertex with HiGHS dual simplex.

    ``model`` warm-starts the solve from a HighsLp that already holds this
    LP under other column bounds (``solve_milp`` passes one per search);
    without it a fresh model is built from ``opts``.
    """
    if model is None:
        model = HighsLp(opts or SolveOptions())
    return model.solve(form)


def _check_binary_mask(problem) -> np.ndarray:
    int_cols = np.flatnonzero(problem.integrality)
    for j in int_cols:
        lo, hi = problem.lower[j], problem.upper[j]
        if not (0.0 <= lo and hi <= 1.0):
            raise ValueError(
                f"integral column {j} must be bounded within [0, 1], "
                f"got [{lo}, {hi}]")
    return int_cols


def _check_start(problem, start, int_cols, opts: SolveOptions) -> np.ndarray:
    """``start`` as a float vector; ValueError unless it is a point of the
    problem: integral on the binary columns and within ``feasibility_tol``
    of every bound and row."""
    x = np.array(start, dtype=float)
    if x.shape != (problem.num_cols,):
        raise ValueError(f"start has shape {x.shape}, problem has "
                         f"{problem.num_cols} columns")
    _finite("start", x)
    binary = x[int_cols]
    if np.any(np.abs(binary - np.round(binary)) > opts.integrality_tol):
        raise ValueError("start is fractional on a binary column")
    worst = problem.max_residual(x)
    if worst > opts.feasibility_tol:
        raise ValueError(f"start violates a bound or row by {worst:.3g}")
    return x


def solve_milp(problem, opts: SolveOptions | None = None,
               trace: list | None = None, model: HighsLp | None = None,
               start=None) -> MilpSolution:
    """Branch-and-bound over the problem's binary columns.

    ``trace``, when given, collects one ``(depth, parent_bound, lp_objective,
    incumbent_objective)`` tuple per explored node, for diagnostics and
    monotonicity checks.

    ``model`` runs the node LPs on a HighsLp that is empty or already holds
    this problem's constraint arrays (under any objective and bounds), so
    the root restarts from the basis the last solve left.  ``start``, a
    feasible point of the problem, seeds the incumbent, so the search has
    a cutoff from the first node; an infeasible one raises ValueError.
    """
    opts = opts or SolveOptions()
    int_cols = _check_binary_mask(problem)
    A_ub, b_ub, A_eq, b_eq = problem.relaxation_arrays
    c = problem.objective
    base_lower = problem.lower
    base_upper = problem.upper

    incumbent: np.ndarray | None = None
    inc_obj = np.inf
    if start is not None:
        incumbent = _check_start(problem, start, int_cols, opts)
        inc_obj = float(c @ incumbent)
    if model is None:
        model = HighsLp(opts)
    elif model.loaded:
        model.change_costs(c)

    def lp(fixes) -> LpResult:
        lower = base_lower
        upper = base_upper
        if fixes:
            lower = base_lower.copy()
            upper = base_upper.copy()
            for j, value in fixes:
                lower[j] = upper[j] = value
        return solve_lp(LpStandardForm(c, A_ub, b_ub, A_eq, b_eq,
                                       lower, upper), opts, model)

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
        frac = x[int_cols] - np.floor(x[int_cols] + 0.5)
        fractional = np.abs(frac) > opts.integrality_tol
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
