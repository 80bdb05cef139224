"""LP relaxation engine and best-first branch-and-bound for 0/1 MILPs.

The LP relaxations are solved by the HiGHS dual simplex bundled with
scipy, through its private bindings (``scipy.optimize._highspy._core``).
Each ``solve_milp`` call loads its relaxation once into one persistent
HiGHS model with presolve off; every node then only changes the bounds of
the binary columns it fixes, and the dual simplex restarts from the basis
the previous node left, so a node costs a few pivots instead of a full
solve.  A one-shot ``solve_lp`` runs the same code on a fresh model.
Problems that differ only in their objective, such as the cases of a price
sweep, can share one model (only the changed costs are sent) and seed each
search with the previous optimum.  The branch-and-bound search on top is our own: best-first node order
with insertion-order tie-breaking, branching on the most fractional
binary with lowest-index tie-breaking.
"""

from __future__ import annotations

import heapq
import importlib
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
ITERATION_LIMIT = "IterationLimit"
NODE_LIMIT = "NodeLimit"


class SolverError(RuntimeError):
    """The LP backend reported numerical trouble."""


@dataclass(frozen=True)
class SolveOptions:
    feasibility_tol: float = 1e-7
    integrality_tol: float = 1e-6
    relative_gap: float = 1e-6
    max_nodes: int = 100_000
    node_order: str = "best-first"          # or "depth-first"
    branch_rule: str = "most-fractional"    # or "first-fractional"

    def __post_init__(self):
        if self.feasibility_tol <= 0 or self.integrality_tol <= 0 \
                or self.relative_gap <= 0:
            raise ValueError("tolerances must be > 0")
        if self.node_order not in ("best-first", "depth-first"):
            raise ValueError(f"unknown node order {self.node_order!r}")
        if self.branch_rule not in ("most-fractional", "first-fractional"):
            raise ValueError(f"unknown branch rule {self.branch_rule!r}")


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


@dataclass(frozen=True)
class BnbNode:
    """Bound overrides relative to the root problem, plus the parent bound."""

    overrides: tuple[tuple[int, float, float], ...]
    bound: float
    depth: int


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
    """Import scipy's private HiGHS bindings and check that ``_Highs`` has
    every method in ``HIGHS_METHODS``; raise ImportError naming the scipy
    version needed otherwise."""
    try:
        core = importlib.import_module(HIGHS_MODULE)
    except ImportError as exc:
        raise ImportError(
            f"dsomarket needs {SCIPY_NEEDED}: cannot import the HiGHS "
            f"bindings {HIGHS_MODULE} ({exc})") from exc
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


def _pick_branch_column(frac_cols, fractions, rule: str) -> int:
    if rule == "first-fractional":
        return int(frac_cols[0])
    # most fractional: largest distance from integrality, lowest index wins ties
    dist = np.minimum(fractions, 1.0 - fractions)
    return int(frac_cols[int(np.argmax(dist))])


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
    A_ub, b_ub, A_eq, b_eq = problem.relaxation_arrays
    excess = [problem.lower - x, x - problem.upper]
    if A_ub is not None:
        excess.append(A_ub @ x - b_ub)
    if A_eq is not None:
        excess.append(np.abs(A_eq @ x - b_eq))
    worst = max(float(np.max(e, initial=0.0)) for e in excess)
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

    def lp(overrides) -> LpResult:
        lower = base_lower
        upper = base_upper
        if overrides:
            lower = base_lower.copy()
            upper = base_upper.copy()
            for j, lo, hi in overrides:
                lower[j], upper[j] = lo, hi
        return solve_lp(LpStandardForm(c, A_ub, b_ub, A_eq, b_eq,
                                       lower, upper), opts, model)

    nodes = 0
    lp_iterations = 0
    counter = 0
    root = BnbNode(overrides=(), bound=-np.inf, depth=0)
    heap: list = [(root.bound, counter, root)]
    root_status: str | None = None
    pruned_bound = np.inf    # tightest bound among nodes pruned at the cutoff

    def cutoff() -> float:
        return inc_obj - opts.relative_gap * max(1.0, abs(inc_obj))

    def rounding_dive(x: np.ndarray, overrides) -> LpResult:
        """Fix every binary at its rounded relaxation value and re-solve.

        Cheap deterministic incumbent heuristic; on problems whose
        relaxation optimum survives rounding it closes the gap at the root
        instead of crawling a plateau of tied bounds.
        """
        rounded = np.floor(x[int_cols] + 0.5)
        fixes = tuple((int(j), float(v), float(v))
                      for j, v in zip(int_cols, rounded))
        return lp(overrides + fixes)

    while heap and nodes < opts.max_nodes:
        if opts.node_order == "best-first":
            bound, _, node = heapq.heappop(heap)
        else:
            bound, _, node = heap.pop()
        if bound >= cutoff():
            pruned_bound = min(pruned_bound, bound)
            if opts.node_order == "best-first":
                # heap is ordered; every remaining node is at least as bad
                heap.clear()
                break
            continue
        result = lp(node.overrides)
        nodes += 1
        lp_iterations += result.iterations
        if node.depth == 0:
            root_status = result.status
        if result.status == INFEASIBLE:
            if trace is not None:
                trace.append((node.depth, node.bound, np.inf, inc_obj))
            continue
        if result.status == UNBOUNDED:
            return MilpSolution(UNBOUNDED, None, -np.inf, nodes, np.inf,
                                lp_iterations)
        if result.status != OPTIMAL:
            raise SolverError(f"relaxation returned {result.status}")
        obj = result.objective
        if trace is not None:
            trace.append((node.depth, node.bound, obj, inc_obj))
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
        if node.depth == 0 or (incumbent is None and nodes % 50 == 0):
            dive = rounding_dive(x, node.overrides)
            lp_iterations += dive.iterations
            if dive.status == OPTIMAL and dive.objective < inc_obj:
                inc_obj = dive.objective
                incumbent = dive.values
                if obj >= cutoff():
                    pruned_bound = min(pruned_bound, obj)
                    continue
        frac_cols = int_cols[fractional]
        fractions = x[frac_cols] - np.floor(x[frac_cols])
        j = _pick_branch_column(frac_cols, fractions, opts.branch_rule)
        for fixed in (1.0, 0.0) if opts.node_order == "depth-first" else (0.0, 1.0):
            counter += 1
            child = BnbNode(overrides=node.overrides + ((j, fixed, fixed),),
                            bound=obj, depth=node.depth + 1)
            heap_item = (child.bound, counter, child)
            if opts.node_order == "best-first":
                heapq.heappush(heap, heap_item)
            else:
                heap.append(heap_item)

    if incumbent is None:
        if heap and nodes >= opts.max_nodes:
            return MilpSolution(NODE_LIMIT, None, np.inf, nodes, np.inf,
                                lp_iterations)
        if root_status == UNBOUNDED:
            return MilpSolution(UNBOUNDED, None, -np.inf, nodes, np.inf,
                                lp_iterations)
        return MilpSolution(INFEASIBLE, None, np.inf, nodes, np.inf,
                            lp_iterations)

    candidates = [item[0] for item in heap] + [pruned_bound, inc_obj]
    best_bound = min(candidates)
    gap = max(0.0, (inc_obj - best_bound) / max(1.0, abs(inc_obj)))
    if heap and nodes >= opts.max_nodes and gap > opts.relative_gap:
        return MilpSolution(NODE_LIMIT, incumbent, inc_obj, nodes, gap,
                            lp_iterations)
    return MilpSolution(OPTIMAL, incumbent, inc_obj, nodes, gap,
                        lp_iterations)
