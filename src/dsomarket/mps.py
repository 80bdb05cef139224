"""Fixed-format MPS export for cross-checking against external solvers.

Naming scheme (deterministic): the objective row is ``COST``, constraint
rows are ``R`` followed by the 7-digit row index in build order, and
columns are ``C`` followed by the 7-digit column index in registry order.
Binary columns are wrapped in ``INTORG``/``INTEND`` markers.
"""

from __future__ import annotations

import math

from .formulation import EQ, GE, LE, MilpProblem

_SENSE = {LE: "L", GE: "G", EQ: "E"}


def _num(x: float) -> str:
    return f"{x:.12g}"


def write_mps(problem: MilpProblem, path: str, name: str = "DSOMILP") -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(format_mps(problem, name))


def format_mps(problem: MilpProblem, name: str = "DSOMILP") -> str:
    rows = [f"R{i:07d}" for i in range(len(problem.row_names))]
    lines = [f"NAME          {name}", "ROWS", " N  COST"]
    lines += [f" {_SENSE[s]}  {r}" for s, r in zip(problem.sense, rows)]

    # each column's entries: objective first, then its rows in build order
    A = problem.A.tocsc()
    entries = [f"{rows[i]:<10}{_num(coef):>15}"
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
        if cost != 0.0:
            fields.insert(0, f"{'COST':<10}{_num(cost):>15}")
        for a in range(0, len(fields), 2):
            lines.append("  ".join([f"    {col:<10}", *fields[a:a + 2]]))
    if in_integer:
        lines.append(f"    MARKER{marker:04d}  'MARKER'                 "
                     "'INTEND'")

    lines.append("RHS")
    lines += [f"    RHS         {r}  {_num(b):>15}"
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
            lines.append(f" LO BND         {col}  {_num(lo):>15}")
        if hi_fin:
            lines.append(f" UP BND         {col}  {_num(hi):>15}")
    # the empty last item ends the text in a newline without a second copy
    lines += ["ENDATA", ""]
    return "\n".join(lines)
