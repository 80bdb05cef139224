"""Independent oracles and random instance generators for solver tests.

The LP oracle enumerates basic feasible solutions directly; the MILP
oracle enumerates every binary assignment and solves the residual LPs
with scipy.  Neither shares any search logic with the package's
branch-and-bound.  The MPS oracle formats the file one column and one
number at a time in plain Python.
"""

from __future__ import annotations

import math
from itertools import combinations, product

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from dsomarket.formulation import EQ, GE, LE, MilpProblem, VariableRegistry


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
        A=sparse.csr_matrix(A, shape=(len(b), len(c))),
        sense=np.array(senses),
        rhs=np.asarray(b, dtype=float),
        row_names=tuple(f"row{i}" for i in range(len(b))),
        lower=np.asarray(lower, dtype=float),
        upper=np.asarray(upper, dtype=float),
        integrality=np.asarray(integrality, dtype=bool),
        registry=reg)


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
    the continuous remainder with scipy's HiGHS.  Returns None when every
    assignment is infeasible.
    """
    c = np.asarray(c, dtype=float)
    best = None
    for assignment in product((0.0, 1.0), repeat=len(int_cols)):
        lo = np.asarray(lower, dtype=float).copy()
        hi = np.asarray(upper, dtype=float).copy()
        for j, v in zip(int_cols, assignment):
            lo[j] = hi[j] = v
        res = linprog(c, A_ub=A_ub, b_ub=b_ub,
                      bounds=np.column_stack([lo, hi]), method="highs")
        if res.status == 0:
            val = float(res.fun)
            if best is None or val < best:
                best = val
    return best


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

    A = problem.A.tocsc()
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
