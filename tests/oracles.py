"""Independent oracles and random instance generators for solver tests.

The LP oracle enumerates basic feasible solutions directly; one MILP
oracle enumerates every binary assignment and solves the residual LPs on
one instance of scipy's HiGHS bindings, the other hands a whole problem
to ``scipy.optimize.milp``.  None shares any search logic with the
package's branch-and-bound.  The MPS oracle formats the file one column
and one number at a time in plain Python, and the build oracle compiles
a scenario one column and one constraint row at a time.  The validation
and per-unit oracles spell out every series check and every rescaled
field by hand, class by class.  The reference registry keys every column
by ``(*head, t, *owner)``, one column at a time, so tests look a column up
by its key; the package keeps no such key.  The closed-form row count, the
revenue regrouping residual and the column-key lookup are helpers only
tests use.
"""

from __future__ import annotations

import math
from dataclasses import fields, replace
from itertools import combinations, product

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.optimize._highspy import _core

from dsomarket.csr import Csr
from dsomarket.formulation import EQ, GE, LE, MilpProblem, VariableRegistry
from dsomarket.model import (
    KIND_DRAG,
    KIND_ESAG,
    KIND_EVCS,
    Bus,
    DemandBlock,
    OfferPrices,
    Scenario,
    Series,
    ValidationReport,
    Violation,
    WholesalePrices,
    ZeroBase,
)


def package_csr(A, shape=None) -> Csr:
    """The package's matrix holding the CSR arrays of
    ``scipy.sparse.csr_matrix(A, shape)``."""
    A = sparse.csr_matrix(A, shape=shape)
    return Csr(A.indptr, A.indices, A.data, A.shape)


def scipy_csr(A: Csr) -> sparse.csr_matrix:
    """A scipy CSR matrix built from the arrays of the package's ``A``."""
    return sparse.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)


def make_problem(c, A, senses, b, lower, upper, integrality) -> MilpProblem:
    """Wrap arrays as a MilpProblem for solver-level tests.  Every entry
    of a dense ``A`` is kept, explicit zeros included; a sparse ``A`` is
    kept as it is."""
    reg = VariableRegistry()
    for j in range(len(c)):
        reg.add("x", j)
    if not sparse.issparse(A):
        A = np.asarray(A, dtype=float).reshape(len(b), len(c))
        rows, cols = np.indices(A.shape)
        A = (A.ravel(), (rows.ravel(), cols.ravel()))
    return MilpProblem(
        objective=np.asarray(c, dtype=float),
        A=package_csr(A, shape=(len(b), len(c))),
        sense=np.array(senses),
        rhs=np.asarray(b, dtype=float),
        row_names=tuple(f"row{i}" for i in range(len(b))),
        lower=np.asarray(lower, dtype=float),
        upper=np.asarray(upper, dtype=float),
        integrality=np.asarray(integrality, dtype=bool),
        registry=reg)


def make_lp(c, A, b, lower, upper) -> MilpProblem:
    """The LP ``min c @ x, A x <= b, lower <= x <= upper`` as a MilpProblem
    with no integral column."""
    return make_problem(c, A, [LE] * len(b), b, lower, upper,
                        [False] * len(c))


class ReferenceRegistry:
    """Keyed column map, declared one column at a time: the key of a column
    of family ``head + owner`` in hour t is ``(*head, t, *owner)``, and of a
    column with no hour ``head + owner``."""

    def __init__(self) -> None:
        self.index: dict[tuple, int] = {}
        self.family: list[tuple[tuple, int | None]] = []   # (family, hour)
        self._bounds: list[tuple[float, float, bool]] = []

    def add(self, head: tuple, t: int | None = None, owner: tuple = (),
            lower: float = -np.inf, upper: float = np.inf,
            binary: bool = False) -> int:
        """Declare the next column; a binary one is integral on [0, 1]."""
        key = head + ((t,) if t is not None else ()) + owner
        if key in self.index:
            raise ValueError(f"duplicate variable {key}")
        self.index[key] = len(self.family)
        self.family.append((head + owner, t))
        self._bounds.append((0.0, 1.0, True) if binary
                            else (lower, upper, False))
        return self.index[key]

    def __getitem__(self, key: tuple) -> int:
        return self.index[key]

    def __len__(self) -> int:
        return len(self.family)

    def keys(self) -> tuple[tuple, ...]:
        return tuple(self.index)

    def bounds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lower, upper, binary = zip(*self._bounds)
        return (np.array(lower, dtype=float), np.array(upper, dtype=float),
                np.array(binary, dtype=bool))


def key_of(ref: ReferenceRegistry, idx: int) -> tuple:
    """The key of column ``idx`` of ``ref``."""
    return ref.keys()[idx]


def package_columns(reg: VariableRegistry, ref: ReferenceRegistry,
                    first: int) -> list[int]:
    """The column of ``reg`` at each key of ``ref``, in ``ref``'s column
    order: ``hourly([head + owner])[t - first]`` for ``(*head, t,
    *owner)``, and a family's one column for a key with no hour."""
    return [int(reg.hourly([family])[0 if t is None else t - first])
            for family, t in ref.family]


def owner_columns(ref: ReferenceRegistry) -> dict[object, list[int]]:
    """``ref``'s columns grouped by the last part of their keys: owners in
    first-seen order, each owner's columns in column order."""
    groups: dict[object, list[int]] = {}
    for key, j in ref.index.items():
        groups.setdefault(key[-1], []).append(j)
    return groups


def expected_row_count(s: Scenario) -> int:
    """Closed-form constraint count for a valid scenario."""
    T = len(s.horizon)
    n_avail = sum(len(cfg.availability) for cfg in s.evcss)
    return (T * (2 * len(s.drags) + 16 * len(s.esags) + 2 * len(s.ddgags)
                 + 2 * len(s.network.buses) + len(s.network.branches) + 1 + 2)
            + 5 * n_avail + 2 * len(s.evcss))


def regrouping_residual(report, objective: float) -> float:
    """|sum of entity totals - DSO position - objective| of a
    ``RevenueReport``.

    The objective pays entities and collects wholesale income, so entity
    totals minus the DSO position must reproduce it exactly.
    """
    total = sum(e.total for e in report.entities.values())
    dso = report.dso_energy + report.dso_capacity + report.dso_mileage
    return abs(total - dso - objective)


def vertex_enumeration_lp(c, A, b, lower, upper, tol=1e-9):
    """Optimal objective of min c@x, A x <= b, lower <= x <= upper,
    by enumerating all vertices (finite box keeps the problem bounded).

    Returns None when infeasible.
    """
    c = np.asarray(c, dtype=float)
    n = len(c)
    G = np.vstack([np.asarray(A, dtype=float).reshape(-1, n),
                   np.eye(n), -np.eye(n)])
    h = np.concatenate([np.asarray(b, dtype=float).ravel(),
                        np.asarray(upper, dtype=float),
                        -np.asarray(lower, dtype=float)])
    best = None
    for rows in combinations(range(len(G)), n):
        Gs = G[list(rows)]
        if abs(np.linalg.det(Gs)) < 1e-10:
            continue
        x = np.linalg.solve(Gs, h[list(rows)])
        if np.all(G @ x <= h + tol):
            val = float(c @ x)
            if best is None or val < best:
                best = val
    return best


def enumerate_binaries_milp(c, A_ub, b_ub, lower, upper, int_cols, tol=1e-9):
    """Optimal MILP objective by trying every 0/1 assignment and solving
    the continuous remainder with HiGHS.  Returns None when every
    assignment is infeasible.

    The LP is loaded once into one instance of scipy's HiGHS bindings,
    used directly and not through the package's ``HighsLp``; between
    assignments only the fixed binaries' bounds change.  An assignment
    whose solve ends other than optimal or infeasible is solved again,
    cold, by ``linprog``.
    """
    c = np.asarray(c, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    A = sparse.csc_matrix(np.asarray(A_ub, dtype=float).reshape(-1, len(c)))
    highs = _core._Highs()
    highs.setOptionValue("output_flag", False)
    highs.passModel(len(c), A.shape[0], A.nnz, 1, 1, 0.0, c, lower, upper,
                    np.full(A.shape[0], -np.inf), b_ub,
                    A.indptr.astype(np.int32), A.indices.astype(np.int32),
                    A.data, np.zeros(len(c), dtype=np.int32))
    cols = np.asarray(int_cols, dtype=np.int32)
    best = None
    for assignment in product((0.0, 1.0), repeat=len(cols)):
        fixed = np.array(assignment)
        highs.changeColsBounds(len(cols), cols, fixed, fixed)
        highs.run()
        status = highs.getModelStatus().name
        if status == "kOptimal":
            val = highs.getInfo().objective_function_value
        elif status == "kInfeasible":
            continue
        else:
            lo, hi = lower.copy(), upper.copy()
            lo[cols] = hi[cols] = fixed
            res = linprog(c, A_ub=A_ub, b_ub=b_ub,
                          bounds=np.column_stack([lo, hi]), method="highs")
            if res.status != 0:
                continue
            val = res.fun
        if best is None or val < best:
            best = float(val)
    return best


def scipy_milp(problem: MilpProblem) -> tuple[float, np.ndarray]:
    """(objective, point) of ``problem``'s optimum by ``scipy.optimize.milp``
    (HiGHS's own branch-and-cut), from the problem's rows and bounds."""
    A = scipy_csr(problem.A)
    lower = np.where(problem.sense == LE, -np.inf, problem.rhs)
    upper = np.where(problem.sense == GE, np.inf, problem.rhs)
    res = milp(problem.objective,
               integrality=problem.integrality.astype(int),
               bounds=Bounds(problem.lower, problem.upper),
               constraints=LinearConstraint(A, lower, upper),
               options={"mip_rel_gap": 1e-9})
    assert res.status == 0, res.message
    return float(res.fun), res.x


def random_lp(rng, n_max=5, m_max=6):
    """Random feasible, bounded LP (feasible point by construction)."""
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(2, m_max + 1))
    lower = np.zeros(n)
    upper = rng.uniform(0.5, 2.0, n)
    A = rng.normal(size=(m, n))
    x0 = rng.uniform(0, 1, n) * upper
    b = A @ x0 + rng.uniform(0.0, 1.0, m)
    c = rng.normal(size=n)
    return c, A, b, lower, upper


def random_milp(rng, max_binaries=12, max_continuous=30):
    """Random feasible MILP with binary and continuous columns."""
    nb = int(rng.integers(1, max_binaries + 1))
    nc = int(rng.integers(1, max_continuous + 1))
    n = nb + nc
    m = int(rng.integers(2, 8))
    lower = np.zeros(n)
    upper = np.concatenate([np.ones(nb), rng.uniform(0.5, 3.0, nc)])
    integrality = np.concatenate([np.ones(nb, bool), np.zeros(nc, bool)])
    A = rng.normal(size=(m, n))
    x0 = np.concatenate([rng.integers(0, 2, nb).astype(float),
                         rng.uniform(0, 1, nc) * upper[nb:]])
    b = A @ x0 + rng.uniform(0.0, 1.0, m)
    c = rng.normal(size=n)
    return c, A, b, lower, upper, integrality


def reference_mps(problem: MilpProblem, name: str = "DSOMILP") -> str:
    """Fixed-format MPS text of ``problem``, one column at a time: the
    objective entry (when nonzero, or when the column has no other entry)
    and the column's matrix entries, two to a line."""
    def num(x):
        return f"{x:.12g}"

    rows = [f"R{i:07d}" for i in range(len(problem.row_names))]
    sense = {LE: "L", GE: "G", EQ: "E"}
    lines = [f"NAME          {name}", "ROWS", " N  COST"]
    lines += [f" {sense[s]}  {r}" for s, r in zip(problem.sense, rows)]

    A = scipy_csr(problem.A).tocsc()
    entries = [f"{rows[i]:<10}{num(coef):>15}"
               for i, coef in zip(A.indices.tolist(), A.data.tolist())]
    starts = A.indptr.tolist()
    lines.append("COLUMNS")
    in_integer = False
    marker = 0
    for j, (cost, integral) in enumerate(zip(problem.objective.tolist(),
                                             problem.integrality.tolist())):
        if integral != in_integer:
            kind = "'INTORG'" if integral else "'INTEND'"
            lines.append(f"    MARKER{marker:04d}  'MARKER'                 "
                         + kind)
            marker += 1
            in_integer = integral
        col = f"C{j:07d}"
        fields = entries[starts[j]:starts[j + 1]]
        if cost != 0.0 or not fields:
            fields.insert(0, f"{'COST':<10}{num(cost):>15}")
        for a in range(0, len(fields), 2):
            lines.append("  ".join([f"    {col:<10}", *fields[a:a + 2]]))
    if in_integer:
        lines.append(f"    MARKER{marker:04d}  'MARKER'                 "
                     "'INTEND'")

    lines.append("RHS")
    lines += [f"    RHS         {r}  {num(b):>15}"
              for r, b in zip(rows, problem.rhs.tolist()) if b != 0.0]

    lines.append("BOUNDS")
    for j in range(problem.num_cols):
        lo, hi = float(problem.lower[j]), float(problem.upper[j])
        col = f"C{j:07d}"
        lo_fin, hi_fin = math.isfinite(lo), math.isfinite(hi)
        if not lo_fin and not hi_fin:
            lines.append(f" FR BND         {col}")
            continue
        if not lo_fin:
            lines.append(f" MI BND         {col}")
        elif lo != 0.0:
            lines.append(f" LO BND         {col}  {num(lo):>15}")
        if hi_fin:
            lines.append(f" UP BND         {col}  {num(hi):>15}")
    return "\n".join(lines + ["ENDATA", ""])


class _ReferenceRows:
    """Constraint rows in build order, appended one row at a time as COO
    entries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.senses: list[str] = []
        self.rhs: list[float] = []
        self.row: list[int] = []
        self.col: list[int] = []
        self.coef: list[float] = []

    def add(self, name: str, cols, coefs, sense: str, rhs: float) -> None:
        """Append the row ``coefs @ x[cols]  (sense)  rhs``."""
        self.row.extend([len(self.names)] * len(cols))
        self.col.extend(cols)
        self.coef.extend(coefs)
        self.names.append(name)
        self.senses.append(sense)
        self.rhs.append(rhs)


def reference_build(s: Scenario) -> MilpProblem:
    """The compiled problem of a valid scenario, built one column and one
    row at a time: every column through ``ReferenceRegistry.add``, every
    price and row entry through a key lookup.  Its ``registry`` is the
    :class:`ReferenceRegistry`."""
    reg = reference_registry(s)
    lower, upper, integral = reg.bounds()
    rows = _ReferenceRows()
    for add_family in (_reference_drag_rows, _reference_esag_rows,
                       _reference_evcs_rows, _reference_ddgag_rows,
                       _reference_network_rows, _reference_aggregation_rows):
        add_family(s, reg, rows)
    energy, capacity, mileage = _reference_prices(s, reg)
    return MilpProblem(
        objective=energy + capacity + mileage,
        A=package_csr((rows.coef, (rows.row, rows.col)),
                      shape=(len(rows.names), len(reg))),
        sense=np.array(rows.senses),
        rhs=np.array(rows.rhs, dtype=float),
        row_names=tuple(rows.names),
        lower=lower,
        upper=upper,
        integrality=integral,
        registry=reg,
    )


def reference_registry(s: Scenario) -> ReferenceRegistry:
    """Declare every decision column, with its bounds and integrality, in
    deterministic order."""
    reg = ReferenceRegistry()
    steps = s.horizon.steps
    total_pl = sum(br.pl_max for br in s.network.branches)
    total_ql = sum(br.ql_max for br in s.network.branches)
    for t in steps:
        reg.add(("P_sub",), t, lower=-total_pl, upper=total_pl)
        reg.add(("Q_sub",), t, lower=-total_ql, upper=total_ql)
        reg.add(("r_sub_up",), t, lower=0.0)
        reg.add(("r_sub_dn",), t, lower=0.0)
    for cfg in s.drags:
        k = (cfg.name,)
        for ti, t in enumerate(steps):
            for a, block in enumerate(cfg.blocks):
                reg.add(("P_block", a), t, k, lower=0.0, upper=block.p_max)
            reg.add(("r_up",), t, k, lower=0.0, upper=cfg.cap_up_max[ti])
            reg.add(("r_dn",), t, k, lower=0.0, upper=cfg.cap_dn_max[ti])
    for cfg in s.esags:
        k = (cfg.name,)
        both = cfg.dr_max + cfg.cr_max
        for t in steps:
            reg.add(("P",), t, k)                   # net injection, free
            reg.add(("E",), t, k, lower=cfg.e_min, upper=cfg.e_max)
            reg.add(("P_di",), t, k, lower=0.0, upper=cfg.dr_max)
            reg.add(("P_ch",), t, k, lower=0.0, upper=cfg.cr_max)
            reg.add(("r_up",), t, k, lower=0.0, upper=both)
            reg.add(("r_dn",), t, k, lower=0.0, upper=both)
            reg.add(("r_up_di",), t, k, lower=0.0, upper=cfg.dr_max)
            reg.add(("r_dn_di",), t, k, lower=0.0, upper=cfg.dr_max)
            reg.add(("r_up_ch",), t, k, lower=0.0, upper=cfg.cr_max)
            reg.add(("r_dn_ch",), t, k, lower=0.0, upper=cfg.cr_max)
            reg.add(("b_es",), t, k, binary=True)
    for cfg in s.evcss:
        k = (cfg.name,)
        avail = set(cfg.availability)
        for t in steps:
            # no EVs present: every column for this hour pinned to zero
            on = t in avail
            reg.add(("P",), t, k, lower=0.0, upper=cfg.er_max if on else 0.0)
            reg.add(("r_up",), t, k, lower=0.0,
                    upper=cfg.err_max if on else 0.0)
            reg.add(("r_dn",), t, k, lower=0.0,
                    upper=cfg.err_max if on else 0.0)
        reg.add(("b_ev",), owner=k, binary=True)
    for cfg in s.ddgags:
        k = (cfg.name,)
        for t in steps:
            reg.add(("P",), t, k, lower=cfg.p_min, upper=cfg.p_max)
            reg.add(("r_up",), t, k, lower=0.0, upper=cfg.ru)
            reg.add(("r_dn",), t, k, lower=0.0, upper=cfg.rd)
    for br in s.network.branches:
        for t in steps:
            reg.add(("Pl", br.id), t, lower=-br.pl_max, upper=br.pl_max)
            reg.add(("Ql", br.id), t, lower=-br.ql_max, upper=br.ql_max)
    for bus in s.network.buses:
        for t in steps:
            reg.add(("V", bus.id), t, lower=s.network.v_min,
                    upper=s.network.v_max)
    return reg


def _reference_prices(s: Scenario, reg: ReferenceRegistry) -> np.ndarray:
    """Energy, capacity and mileage price of every column, as the rows of
    a (3, n) table, signed as in the objective: payments to aggregators
    enter positively, wholesale income and collections from loads
    negatively.  The DSO settles every aggregator at its own offer prices,
    so the objective is the sum of the three rows, and an entity's
    payments are its columns' prices times their values.
    """
    energy, capacity, mileage = prices = np.zeros((3, len(reg)))
    w, sig = s.wholesale, s.regulation
    dt = s.horizon.step_hours
    aggregators = [(kind, cfg, s.offers[cfg.name])
                   for kind, cfg in s.aggregators()]
    for ti, t in enumerate(s.horizon.steps):
        # deployed share of the hour's up and down awards
        share_up = sig.s_up[ti] * sig.mu_up[ti]
        share_dn = sig.s_dn[ti] * sig.mu_dn[ti]
        # the DSO sells energy and regulation to the wholesale market
        energy[reg[("P_sub", t)]] = -w.energy[ti] * dt
        up, dn = reg[("r_sub_up", t)], reg[("r_sub_dn", t)]
        capacity[up] = -w.cap_up[ti]
        capacity[dn] = -w.cap_dn[ti]
        mileage[up] = -(share_up * w.mil_up[ti])
        mileage[dn] = -(share_dn * w.mil_dn[ti])
        # ... and buys them from the aggregators at their offer prices
        for kind, cfg, o in aggregators:
            k = cfg.name
            if kind == KIND_DRAG:
                for a, block in enumerate(cfg.blocks):
                    energy[reg[("P_block", a, t, k)]] = -block.prices[ti] * dt
            elif kind == KIND_EVCS:
                energy[reg[("P", t, k)]] = -o.energy[ti] * dt
            else:
                energy[reg[("P", t, k)]] = o.energy[ti] * dt
            up, dn = reg[("r_up", t, k)], reg[("r_dn", t, k)]
            capacity[up] = o.cap_up[ti]
            capacity[dn] = o.cap_dn[ti]
            mileage[up] = share_up * o.mil_up[ti]
            mileage[dn] = share_dn * o.mil_dn[ti]
    return prices



def _reference_drag_rows(s: Scenario, reg: ReferenceRegistry,
                           rows: _ReferenceRows) -> None:
    for cfg in s.drags:
        blocks = range(len(cfg.blocks))
        total = sum(b.p_max for b in cfg.blocks)
        for t in s.horizon.steps:
            block_cols = tuple(reg[("P_block", a, t, cfg.name)] for a in blocks)
            rows.add(
                f"drag_dn_headroom[{t},{cfg.name}]",
                block_cols + (reg[("r_dn", t, cfg.name)],),
                (1.0,) * len(block_cols) + (-1.0,), GE, 0.0)
            rows.add(
                f"drag_up_headroom[{t},{cfg.name}]",
                block_cols + (reg[("r_up", t, cfg.name)],),
                (1.0,) * len(block_cols) + (1.0,), LE, total)


def _reference_esag_rows(s: Scenario, reg: ReferenceRegistry,
                           rows: _ReferenceRows) -> None:
    sig = s.regulation
    dt = s.horizon.step_hours
    steps = s.horizon.steps
    for cfg in s.esags:
        k = cfg.name
        for ti, t in enumerate(steps):
            mu_up, mu_dn = sig.mu_up[ti], sig.mu_dn[ti]
            # charge state: P*dt = E_{t-1} - E_t + dt*(r_up*mu/eta_di - r_dn*mu*eta_ch)
            cols = [reg[("P", t, k)], reg[("E", t, k)],
                    reg[("r_up", t, k)], reg[("r_dn", t, k)]]
            coefs = [dt, 1.0,
                     -dt * mu_up / cfg.eta_di, dt * mu_dn * cfg.eta_ch]
            if ti == 0:
                rhs = cfg.e_init
            else:
                cols.append(reg[("E", steps[ti - 1], k)])
                coefs.append(-1.0)
                rhs = 0.0
            rows.add(f"esag_state[{t},{k}]", cols, coefs, EQ, rhs)
            # injection split: P = P_di/eta_di - P_ch*eta_ch
            rows.add(
                f"esag_split[{t},{k}]",
                (reg[("P", t, k)], reg[("P_di", t, k)], reg[("P_ch", t, k)]),
                (1.0, -1.0 / cfg.eta_di, cfg.eta_ch), EQ, 0.0)
            # capacity compositions
            rows.add(
                f"esag_cap_up[{t},{k}]",
                (reg[("r_up", t, k)], reg[("r_up_di", t, k)],
                 reg[("r_dn_ch", t, k)]),
                (1.0, -1.0, -1.0), EQ, 0.0)
            rows.add(
                f"esag_cap_dn[{t},{k}]",
                (reg[("r_dn", t, k)], reg[("r_dn_di", t, k)],
                 reg[("r_up_ch", t, k)]),
                (1.0, -1.0, -1.0), EQ, 0.0)
            # mode gating: discharge-side offers need b = 1,
            # charge-side offers need b = 0
            b = reg[("b_es", t, k)]
            for fam in ("P_di", "r_up_di", "r_dn_di"):
                rows.add(
                    f"esag_gate_di[{fam},{t},{k}]",
                    (reg[(fam, t, k)], b), (1.0, -cfg.dr_max), LE, 0.0)
            for fam in ("P_ch", "r_up_ch", "r_dn_ch"):
                rows.add(
                    f"esag_gate_ch[{fam},{t},{k}]",
                    (reg[(fam, t, k)], b), (1.0, cfg.cr_max), LE, cfg.cr_max)
            # merged gate/headroom rows: implied whenever b is 0 or 1, but
            # they stop a fractional mode bit from claiming capacity on both
            # sides at once, which keeps the relaxation tight enough to
            # solve in seconds instead of hours
            rows.add(
                f"esag_gate_di_merged[{t},{k}]",
                (reg[("P_di", t, k)], reg[("r_up_di", t, k)], b),
                (1.0, 1.0, -cfg.dr_max), LE, 0.0)
            rows.add(
                f"esag_gate_ch_merged[{t},{k}]",
                (reg[("P_ch", t, k)], reg[("r_up_ch", t, k)], b),
                (1.0, 1.0, cfg.cr_max), LE, cfg.cr_max)
            # headroom couplings around the scheduled (dis)charge rate
            rows.add(
                f"esag_di_floor[{t},{k}]",
                (reg[("P_di", t, k)], reg[("r_dn_di", t, k)]),
                (1.0, -1.0), GE, 0.0)
            rows.add(
                f"esag_di_ceiling[{t},{k}]",
                (reg[("P_di", t, k)], reg[("r_up_di", t, k)]),
                (1.0, 1.0), LE, cfg.dr_max)
            rows.add(
                f"esag_ch_floor[{t},{k}]",
                (reg[("P_ch", t, k)], reg[("r_dn_ch", t, k)]),
                (1.0, -1.0), GE, 0.0)
            rows.add(
                f"esag_ch_ceiling[{t},{k}]",
                (reg[("P_ch", t, k)], reg[("r_up_ch", t, k)]),
                (1.0, 1.0), LE, cfg.cr_max)


def _reference_evcs_rows(s: Scenario, reg: ReferenceRegistry,
                           rows: _ReferenceRows) -> None:
    sig = s.regulation
    dt = s.horizon.step_hours
    step_index = {t: i for i, t in enumerate(s.horizon.steps)}
    for cfg in s.evcss:
        k = cfg.name
        b = reg[("b_ev", k)]
        for t in cfg.availability:
            rows.add(f"evcs_gate_p[{t},{k}]",
                     (reg[("P", t, k)], b),
                     (1.0, -cfg.er_max), LE, 0.0)
            rows.add(f"evcs_gate_up[{t},{k}]",
                     (reg[("r_up", t, k)], b),
                     (1.0, -cfg.err_max), LE, 0.0)
            rows.add(f"evcs_gate_dn[{t},{k}]",
                     (reg[("r_dn", t, k)], b),
                     (1.0, -cfg.err_max), LE, 0.0)
            rows.add(f"evcs_up_headroom[{t},{k}]",
                     (reg[("P", t, k)], reg[("r_up", t, k)]),
                     (1.0, 1.0), LE, cfg.er_max)
            rows.add(f"evcs_dn_headroom[{t},{k}]",
                     (reg[("P", t, k)], reg[("r_dn", t, k)]),
                     (1.0, -1.0), GE, 0.0)
        # terminal charge window, gated by the enable binary:
        # 0.9*cl_max*b <= e_init*b + gamma*dt*sum(P + r_up*mu - r_dn*mu) <= cl_max*b
        cols: list[int] = [b]
        charge: list[float] = []
        for t in cfg.availability:
            ti = step_index[t]
            for fam, sign in (("P", 1.0), ("r_up", sig.mu_up[ti]),
                              ("r_dn", -sig.mu_dn[ti])):
                cols.append(reg[(fam, t, k)])
                charge.append(cfg.gamma_ch * dt * sign)
        rows.add(f"evcs_charge_floor[{k}]", cols,
                 [cfg.e_init - 0.9 * cfg.cl_max] + charge, GE, 0.0)
        rows.add(f"evcs_charge_ceiling[{k}]", cols,
                 [cfg.e_init - cfg.cl_max] + charge, LE, 0.0)


def _reference_ddgag_rows(s: Scenario, reg: ReferenceRegistry,
                          rows: _ReferenceRows) -> None:
    for cfg in s.ddgags:
        for t in s.horizon.steps:
            rows.add(
                f"ddgag_up_headroom[{t},{cfg.name}]",
                (reg[("P", t, cfg.name)], reg[("r_up", t, cfg.name)]),
                (1.0, 1.0), LE, cfg.p_max)
            rows.add(
                f"ddgag_dn_headroom[{t},{cfg.name}]",
                (reg[("P", t, cfg.name)], reg[("r_dn", t, cfg.name)]),
                (1.0, -1.0), GE, cfg.p_min)


def _reference_network_rows(s: Scenario, reg: ReferenceRegistry,
                            rows: _ReferenceRows) -> None:
    net = s.network
    steps = s.horizon.steps
    by_node: dict[int, list] = {n: [] for n in net.bus_ids()}
    for kind, cfg in s.aggregators():
        by_node[cfg.node].append((kind, cfg))
    # each bus's (branch, incidence) pairs, in branch order
    incident: dict[int, list] = {n: [] for n in net.bus_ids()}
    for br in net.branches:
        for bus_id in (br.from_bus, br.to_bus):
            a_jn = net.incidence(br, bus_id)
            if bus_id in incident:
                incident[bus_id].append((br, float(a_jn)))

    for ti, t in enumerate(steps):
        for bus in net.buses:
            # active balance: consumption +, generation -, plus substation
            # injection and net branch outflow, all summing to zero
            # column -> coefficient; no column enters a balance twice
            p: dict[int, float] = {}
            q: dict[int, float] = {}
            for kind, cfg in by_node[bus.id]:
                if kind == KIND_DRAG:
                    for a in range(len(cfg.blocks)):
                        j = reg[("P_block", a, t, cfg.name)]
                        p[j] = 1.0
                        q[j] = cfg.tan_phi
                elif kind == KIND_EVCS:
                    p[reg[("P", t, cfg.name)]] = 1.0
                elif kind == KIND_ESAG:
                    p[reg[("P", t, cfg.name)]] = -1.0
                else:
                    j = reg[("P", t, cfg.name)]
                    p[j] = -1.0
                    q[j] = -cfg.tan_phi
            if bus.id == net.substation_bus:
                p[reg[("P_sub", t)]] = 1.0
                q[reg[("Q_sub", t)]] = 1.0
            for br, a_jn in incident[bus.id]:
                p[reg[("Pl", br.id, t)]] = a_jn
                q[reg[("Ql", br.id, t)]] = a_jn
            rows.add(f"p_balance[{t},{bus.id}]", p.keys(), p.values(), EQ,
                     -bus.p_load[ti])
            rows.add(f"q_balance[{t},{bus.id}]", q.keys(), q.values(), EQ,
                     -bus.q_load[ti])
        # voltage drop along each branch; branch impedances are p.u., so
        # MW/MVAr flows are converted through the network base
        for br in net.branches:
            rows.add(
                f"voltage_drop[{t},{br.id}]",
                (reg[("V", br.to_bus, t)], reg[("V", br.from_bus, t)],
                 reg[("Pl", br.id, t)], reg[("Ql", br.id, t)]),
                (1.0, -1.0, br.r / net.s_base, br.x / net.s_base), EQ, 0.0)
        rows.add(
            f"voltage_anchor[{t}]",
            (reg[("V", net.substation_bus, t)],), (1.0,), EQ,
            net.v_substation)


def _reference_aggregation_rows(s: Scenario, reg: ReferenceRegistry,
                                rows: _ReferenceRows) -> None:
    """Substation offers: generation-side up plus load-side down (and the
    symmetric cross-mapping for the down product)."""
    gen_names = [c.name for c in s.esags] + [c.name for c in s.ddgags]
    load_names = [c.name for c in s.drags] + [c.name for c in s.evcss]
    coefs = [1.0] + [-1.0] * (len(gen_names) + len(load_names))
    for t in s.horizon.steps:
        up_cols = ([reg[("r_sub_up", t)]]
                   + [reg[("r_up", t, name)] for name in gen_names]
                   + [reg[("r_dn", t, name)] for name in load_names])
        dn_cols = ([reg[("r_sub_dn", t)]]
                   + [reg[("r_dn", t, name)] for name in gen_names]
                   + [reg[("r_up", t, name)] for name in load_names])
        rows.add(f"agg_up[{t}]", up_cols, coefs, EQ, 0.0)
        rows.add(f"agg_dn[{t}]", dn_cols, coefs, EQ, 0.0)


def _finite(xs: Series) -> bool:
    return all(math.isfinite(x) for x in xs)


def reference_validate(s: Scenario) -> ValidationReport:
    """Check every structural invariant of the scenario.

    Violations are returned as data; nothing raises.  An empty report means
    the scenario is ready for compilation.
    """
    out: list[Violation] = []

    def bad(code: str, message: str) -> None:
        out.append(Violation(code, message))

    steps = s.horizon.steps
    T = len(steps)
    if T == 0:
        bad("HORIZON_EMPTY", "horizon has no steps")
    elif list(steps) != list(range(steps[0], steps[0] + T)):
        bad("HORIZON_NOT_CONTIGUOUS",
            "horizon steps must be contiguous and strictly increasing")
    if s.horizon.step_hours <= 0:
        bad("STEP_HOURS_NOT_POSITIVE",
            f"step_hours must be > 0, got {s.horizon.step_hours}")

    def check_series(label: str, xs: Series, nonneg: bool = False) -> None:
        if len(xs) != T:
            bad("SERIES_LENGTH_MISMATCH",
                f"{label} has {len(xs)} entries, horizon has {T}")
            return
        if not _finite(xs):
            bad("PRICE_NOT_FINITE", f"{label} contains non-finite values")
        elif nonneg and any(x < 0 for x in xs):
            bad("PRICE_NEGATIVE", f"{label} contains negative values")

    w = s.wholesale
    check_series("wholesale.energy", w.energy)
    check_series("wholesale.cap_up", w.cap_up, nonneg=True)
    check_series("wholesale.cap_dn", w.cap_dn, nonneg=True)
    check_series("wholesale.mil_up", w.mil_up, nonneg=True)
    check_series("wholesale.mil_dn", w.mil_dn, nonneg=True)

    reg = s.regulation
    for label, xs in (("mu_up", reg.mu_up), ("mu_dn", reg.mu_dn)):
        if len(xs) != T:
            bad("SERIES_LENGTH_MISMATCH",
                f"regulation.{label} has {len(xs)} entries, horizon has {T}")
        elif any(not (0.0 <= x <= 1.0) for x in xs):
            bad("SIGNAL_OUT_OF_RANGE",
                f"regulation.{label} must lie in [0, 1]")
    for label, xs in (("s_up", reg.s_up), ("s_dn", reg.s_dn)):
        if len(xs) != T:
            bad("SERIES_LENGTH_MISMATCH",
                f"regulation.{label} has {len(xs)} entries, horizon has {T}")
        elif not _finite(xs):
            bad("VALUE_NOT_FINITE",
                f"regulation.{label} contains non-finite values")
        elif any(x < 0 for x in xs):
            bad("SIGNAL_OUT_OF_RANGE", f"regulation.{label} must be >= 0")

    net = s.network
    bus_ids = net.bus_ids()
    if len(set(bus_ids)) != len(bus_ids):
        bad("DUPLICATE_BUS", "bus ids are not unique")
    if net.substation_bus not in bus_ids:
        bad("NO_SUBSTATION",
            f"substation bus {net.substation_bus} is not a bus")
    for bus in net.buses:
        check_series(f"bus[{bus.id}].p_load", bus.p_load)
        check_series(f"bus[{bus.id}].q_load", bus.q_load)
    for br in net.branches:
        if br.from_bus == br.to_bus:
            bad("BRANCH_SELF_LOOP", f"branch {br.id} is a self-loop")
        for end in (br.from_bus, br.to_bus):
            if end not in bus_ids:
                bad("UNKNOWN_BUS", f"branch {br.id} references bus {end}")
        if br.pl_max < 0 or br.ql_max < 0:
            bad("FLOW_LIMIT_NEGATIVE", f"branch {br.id} has a negative limit")
    if len(net.branches) != len(net.buses) - 1:
        bad("NETWORK_NOT_RADIAL",
            f"{len(net.branches)} branches for {len(net.buses)} buses; "
            "a radial network needs |branches| = |buses| - 1")
    elif not net.is_connected():
        bad("NETWORK_DISCONNECTED", "network is not connected")
    if not (net.v_min <= net.v_max):
        bad("VOLTAGE_BOUNDS_INVERTED",
            f"v_min={net.v_min} exceeds v_max={net.v_max}")
    if net.s_base <= 0:
        bad("BASE_NOT_POSITIVE", f"s_base must be > 0, got {net.s_base}")

    names = list(s.aggregator_names())
    if len(set(names)) != len(names):
        bad("DUPLICATE_AGGREGATOR", "aggregator names are not unique")
    for kind, cfg in s.aggregators():
        if cfg.node not in bus_ids:
            bad("UNKNOWN_BUS",
                f"{kind} {cfg.name} placed on unknown bus {cfg.node}")
        if cfg.name not in s.offers:
            bad("OFFER_MISSING", f"no offer prices for {cfg.name}")
        else:
            o = s.offers[cfg.name]
            check_series(f"offers[{cfg.name}].energy", o.energy)
            check_series(f"offers[{cfg.name}].cap_up", o.cap_up, nonneg=True)
            check_series(f"offers[{cfg.name}].cap_dn", o.cap_dn, nonneg=True)
            check_series(f"offers[{cfg.name}].mil_up", o.mil_up, nonneg=True)
            check_series(f"offers[{cfg.name}].mil_dn", o.mil_dn, nonneg=True)
    known = set(names)
    for name in s.offers:
        if name not in known:
            bad("OFFER_UNKNOWN_AGGREGATOR",
                f"offer prices for unknown aggregator {name}")

    for cfg in s.drags:
        if not cfg.blocks:
            bad("DRAG_NO_BLOCKS", f"{cfg.name} has no demand blocks")
        for a, block in enumerate(cfg.blocks):
            if block.p_max < 0:
                bad("DRAG_BLOCK_PMAX_NEGATIVE",
                    f"{cfg.name} block {a} has p_max {block.p_max}")
            check_series(f"{cfg.name}.blocks[{a}].prices", block.prices)
        for t_idx in range(T):
            prices = [b.prices[t_idx] for b in cfg.blocks
                      if len(b.prices) == T]
            if any(prices[i] < prices[i + 1] for i in range(len(prices) - 1)):
                bad("DRAG_BLOCK_PRICES_NOT_MONOTONE",
                    f"{cfg.name} block prices increase at hour index {t_idx}")
                break
        check_series(f"{cfg.name}.cap_up_max", cfg.cap_up_max, nonneg=True)
        check_series(f"{cfg.name}.cap_dn_max", cfg.cap_dn_max, nonneg=True)

    for cfg in s.esags:
        if not (0.0 < cfg.eta_ch <= 1.0) or not (0.0 < cfg.eta_di <= 1.0):
            bad("ESAG_EFFICIENCY_OUT_OF_RANGE",
                f"{cfg.name} efficiencies must lie in (0, 1]")
        if cfg.e_min > cfg.e_max:
            bad("ESAG_ENERGY_BOUNDS_INVERTED",
                f"{cfg.name} has e_min {cfg.e_min} > e_max {cfg.e_max}")
        elif not (cfg.e_min <= cfg.e_init <= cfg.e_max):
            bad("ESAG_INIT_OUT_OF_RANGE",
                f"{cfg.name} initial charge {cfg.e_init} outside "
                f"[{cfg.e_min}, {cfg.e_max}]")
        if cfg.dr_max <= 0 or cfg.cr_max <= 0:
            bad("ESAG_RATE_NOT_POSITIVE",
                f"{cfg.name} charge/discharge rates must be > 0")

    for cfg in s.evcss:
        avail = cfg.availability
        if not avail:
            bad("EVCS_AVAILABILITY_EMPTY", f"{cfg.name} is never available")
        else:
            if any(t not in steps for t in avail):
                bad("EVCS_AVAILABILITY_OUTSIDE_HORIZON",
                    f"{cfg.name} availability references unknown hours")
            if list(avail) != list(range(avail[0], avail[0] + len(avail))):
                bad("EVCS_AVAILABILITY_NOT_CONTIGUOUS",
                    f"{cfg.name} availability window must be contiguous")
        if not (0.0 <= cfg.e_init <= cfg.cl_max):
            bad("EVCS_INIT_OUT_OF_RANGE",
                f"{cfg.name} initial charge {cfg.e_init} outside "
                f"[0, {cfg.cl_max}]")
        if cfg.er_max < 0 or cfg.err_max < 0:
            bad("EVCS_RATE_NEGATIVE", f"{cfg.name} rates must be >= 0")
        if not (0.0 < cfg.gamma_ch <= 1.0):
            bad("EVCS_EFFICIENCY_OUT_OF_RANGE",
                f"{cfg.name} gamma_ch must lie in (0, 1]")

    for cfg in s.ddgags:
        if not (0.0 <= cfg.p_min <= cfg.p_max):
            bad("DDGAG_POWER_BOUNDS_INVALID",
                f"{cfg.name} needs 0 <= p_min <= p_max")
        if cfg.ru < 0 or cfg.rd < 0:
            bad("DDGAG_RAMP_NEGATIVE", f"{cfg.name} ramp rates must be >= 0")

    scalars = [("horizon", s.horizon), ("network", net)]
    scalars += [(f"branch[{br.id}]", br) for br in net.branches]
    scalars += [(f"{cfg.name}.blocks[{a}]", block) for cfg in s.drags
                for a, block in enumerate(cfg.blocks)]
    scalars += [(cfg.name, cfg) for _, cfg in s.aggregators()]
    for label, obj in scalars:
        for f in fields(obj):
            x = getattr(obj, f.name)
            if isinstance(x, float) and not math.isfinite(x):
                bad("VALUE_NOT_FINITE", f"{label}.{f.name} is {x}")

    return ValidationReport(tuple(out))


def _scale(xs: Series, factor: float) -> Series:
    return tuple(x * factor for x in xs)


def reference_per_unit_view(s: Scenario) -> Scenario:
    """Rescale all power/energy quantities by the network base.

    Powers and energies are divided by ``s_base`` while prices are
    multiplied by it, so the compiled objective in dollars is unchanged.
    The returned scenario carries ``s_base = 1``, which makes the
    transformation idempotent.
    """
    base = s.network.s_base
    if base == 0:
        raise ZeroBase("cannot normalize with s_base == 0")
    if base == 1.0:
        return s
    inv = 1.0 / base

    wholesale = WholesalePrices(
        energy=_scale(s.wholesale.energy, base),
        cap_up=_scale(s.wholesale.cap_up, base),
        cap_dn=_scale(s.wholesale.cap_dn, base),
        mil_up=_scale(s.wholesale.mil_up, base),
        mil_dn=_scale(s.wholesale.mil_dn, base),
    )
    offers = {
        name: OfferPrices(
            energy=_scale(o.energy, base),
            cap_up=_scale(o.cap_up, base),
            cap_dn=_scale(o.cap_dn, base),
            mil_up=_scale(o.mil_up, base),
            mil_dn=_scale(o.mil_dn, base),
        )
        for name, o in s.offers.items()
    }
    network = replace(
        s.network,
        buses=tuple(Bus(b.id, _scale(b.p_load, inv), _scale(b.q_load, inv))
                    for b in s.network.buses),
        branches=tuple(replace(br, pl_max=br.pl_max * inv,
                               ql_max=br.ql_max * inv)
                       for br in s.network.branches),
        s_base=1.0,
    )
    drags = tuple(
        replace(cfg,
                blocks=tuple(DemandBlock(b.p_max * inv,
                                         _scale(b.prices, base))
                             for b in cfg.blocks),
                cap_up_max=_scale(cfg.cap_up_max, inv),
                cap_dn_max=_scale(cfg.cap_dn_max, inv))
        for cfg in s.drags)
    esags = tuple(
        replace(cfg, e_min=cfg.e_min * inv, e_max=cfg.e_max * inv,
                e_init=cfg.e_init * inv, dr_max=cfg.dr_max * inv,
                cr_max=cfg.cr_max * inv)
        for cfg in s.esags)
    evcss = tuple(
        replace(cfg, er_max=cfg.er_max * inv, err_max=cfg.err_max * inv,
                cl_max=cfg.cl_max * inv, e_init=cfg.e_init * inv)
        for cfg in s.evcss)
    ddgags = tuple(
        replace(cfg, p_min=cfg.p_min * inv, p_max=cfg.p_max * inv,
                ru=cfg.ru * inv, rd=cfg.rd * inv)
        for cfg in s.ddgags)

    return Scenario(
        horizon=s.horizon,
        wholesale=wholesale,
        regulation=s.regulation,
        network=network,
        drags=drags,
        esags=esags,
        evcss=evcss,
        ddgags=ddgags,
        offers=offers,
    )
