"""Output checks, made apart from the program.

Each check reads the files a pass wrote and returns a list of failure
messages (empty when the output is correct).  The numbers the outputs are
compared with come from the scenario document, from ``scipy.optimize.milp``
on the compiled arrays, and from a small MPS reader written here, never
from the program's own reports.  ``selftest.py`` shows each check failing
on a corrupted output.

Sign convention of the balance check: substation energy ``P_sub`` is
positive for export to the wholesale market, so with lossless LinDistFlow
P_sub = (ddgag + esag) - (drag + evcs) - sum of bus loads, hour by hour.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

REL_TOL = 1e-6          # relative gap of the program's B&B (SolveOptions)
BALANCE_TOL_MW = 1e-6
GENERATION = {"ddgag": 1.0, "esag": 1.0, "drag": -1.0, "evcs": -1.0}
SWEEP_CASES = 40


def eps(objective: float) -> float:
    return REL_TOL * max(1.0, abs(objective))


def read_doc(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def milp_objective(doc: dict) -> float:
    """Optimum of the scenario's compiled problem by ``scipy.optimize.milp``."""
    from dsomarket import formulation, scenario_io
    scenario, _ = scenario_io.scenario_from_dict(doc)
    return milp_solve(formulation.build(scenario))


def milp_solve(problem) -> float:
    """Optimum of a compiled problem's arrays by ``scipy.optimize.milp``."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    A_ub, b_ub, A_eq, b_eq = problem.relaxation_arrays
    constraints = []
    if A_ub is not None:
        constraints.append(LinearConstraint(A_ub, -np.inf, b_ub))
    if A_eq is not None:
        constraints.append(LinearConstraint(A_eq, b_eq, b_eq))
    res = milp(problem.objective, constraints=constraints,
               bounds=Bounds(problem.lower, problem.upper),
               integrality=problem.integrality.astype(int),
               options={"mip_rel_gap": 1e-9})
    if res.status != 0:
        raise RuntimeError(f"scipy milp failed: {res.message}")
    return float(res.fun)


def _rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --------------------------------------------------------------- solve


def check_solve(out_dir: str, doc: dict, rc: int,
                reference: float | None = None) -> list[str]:
    """``dsomarket solve`` output: status, milp objective, LinDistFlow
    balance and the revenue regrouping.  ``reference`` is the milp optimum
    (computed when not given)."""
    fail: list[str] = []
    if rc != 0:
        fail.append(f"solve exited with code {rc}")
    try:
        stats = read_doc(os.path.join(out_dir, "solve.json"))
        schedule = _rows(os.path.join(out_dir, "schedule.csv"))
        revenue = _rows(os.path.join(out_dir, "revenue.csv"))
    except (OSError, ValueError) as exc:
        return fail + [f"solve output unreadable: {exc}"]
    if stats.get("status") != "Optimal":
        fail.append(f"solve.json status {stats.get('status')!r}")
    if not stats.get("gap", math.inf) <= REL_TOL:
        fail.append(f"solve.json gap {stats.get('gap')} > {REL_TOL}")
    objective = float(stats.get("objective", math.nan))

    if reference is None:
        reference = milp_objective(doc)
    if not abs(objective - reference) <= eps(reference):
        fail.append(f"objective {objective!r} differs from scipy milp "
                    f"{reference!r} by more than {eps(reference):.3g}")

    steps = doc["horizon"]["steps"]
    kinds = {a["name"]: a["type"] for a in doc["aggregators"]}
    loads = [sum(bus.get("p_load", [0.0] * len(steps))[ti]
                 for bus in doc["network"]["buses"])
             for ti in range(len(steps))]
    energy: dict[tuple[int, str], float] = {}
    for row in schedule:
        energy[(int(row["t"]), row["entity"])] = float(row["energy_MW"])
    for ti, t in enumerate(steps):
        missing = [n for n in ["substation", *kinds] if (t, n) not in energy]
        if missing:
            fail.append(f"schedule.csv has no hour {t} row for {missing}")
            break
        net = sum(GENERATION[kind] * energy[(t, name)]
                  for name, kind in kinds.items()) - loads[ti]
        if abs(energy[(t, "substation")] - net) > BALANCE_TOL_MW:
            fail.append(f"hour {t}: substation energy "
                        f"{energy[(t, 'substation')]!r} MW, generation minus "
                        f"consumption minus loads {net!r} MW")
            break

    totals = {row["entity"]: float(row["total_$"]) for row in revenue}
    if set(totals) != set(kinds) | {"dso_wholesale"}:
        fail.append(f"revenue.csv entities {sorted(totals)}")
    else:
        regrouped = sum(totals[n] for n in kinds) - totals["dso_wholesale"]
        if not abs(regrouped - objective) <= eps(objective):
            fail.append(f"revenue.csv regroups to {regrouped!r}, "
                        f"objective is {objective!r}")
    return fail


# --------------------------------------------------------------- sweep


def scaled_doc(doc: dict, target: str, multiplier: float) -> dict:
    """The scenario document with the target's energy offers scaled (for a
    target other than a DRAG, whose block prices would scale too)."""
    out = json.loads(json.dumps(doc))
    offer = out["offers"][target]
    offer["energy"] = [p * multiplier for p in offer["energy"]]
    return out


def sweep_references(doc: dict, target: str) -> list[float]:
    return [milp_objective(scaled_doc(doc, target, i / 10.0))
            for i in range(1, SWEEP_CASES + 1)]


def check_sweep(out_dir: str, doc: dict, target: str, rc: int,
                references: list[float] | None = None) -> list[str]:
    """``dsomarket sweep`` output: every case Optimal with the expected
    rows, the target's offer-weighted energy non-increasing, and every
    case's regrouped objective equal to the milp optimum."""
    fail: list[str] = []
    if rc != 0:
        fail.append(f"sweep exited with code {rc}")
    try:
        rows = _rows(os.path.join(out_dir, "sweep.csv"))
    except OSError as exc:
        return fail + [f"sweep output unreadable: {exc}"]
    names = sorted(a["name"] for a in doc["aggregators"])
    expected = [(i, n) for i in range(1, SWEEP_CASES + 1)
                for n in names + ["dso_wholesale"]]
    got = [(int(r["i"]), r["entity"]) for r in rows]
    if got != expected:
        return fail + [f"sweep.csv has {len(rows)} rows, not the "
                       f"{len(expected)} (case, entity) rows expected"]
    bad = sorted({int(r["i"]) for r in rows if r["status"] != "Optimal"})
    if bad:
        fail.append(f"sweep cases not Optimal: {bad}")

    objective, weighted, multiplier = {}, {}, {}
    for i in range(1, SWEEP_CASES + 1):
        case = {r["entity"]: r for r in rows if int(r["i"]) == i}
        m = float(case[target]["multiplier"])
        if abs(m - i / 10.0) > 1e-12:
            fail.append(f"case {i} multiplier {m}")
        multiplier[i] = m
        objective[i] = (sum(float(case[n]["total_$"]) for n in names)
                        - float(case["dso_wholesale"]["total_$"]))
        weighted[i] = float(case[target]["energy_$"]) / m
    for i in range(2, SWEEP_CASES + 1):
        allowance = ((eps(objective[i - 1]) + eps(objective[i]))
                     / (multiplier[i] - multiplier[i - 1]))
        if weighted[i] > weighted[i - 1] + allowance:
            fail.append(f"{target} offer-weighted energy rises from case "
                        f"{i - 1} to {i}: {weighted[i - 1]!r} -> "
                        f"{weighted[i]!r} (allowance {allowance:.3g})")
    if references is None:
        references = sweep_references(doc, target)
    for i, ref in enumerate(references, start=1):
        if not abs(objective[i] - ref) <= eps(ref):
            fail.append(f"case {i}: regrouped objective {objective[i]!r}, "
                        f"scipy milp {ref!r}")
    return fail


# ----------------------------------------------------------------- MPS


def read_mps(path: str) -> dict:
    """Parse a fixed-format MPS file into its rows, columns, integer
    columns and column bounds, with a list of structural problems."""
    rows: dict[str, str] = {}
    objective = None
    columns: list[str] = []
    integer: set[str] = set()
    undeclared: set[str] = set()     # rows named in COLUMNS or RHS only
    bounds: dict[str, list[float]] = {}
    section = None
    in_int = False
    problems: list[str] = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if not line[0].isspace():
                section = line.split()[0]
                continue
            tok = line.split()
            if section == "ROWS":
                if tok[0] == "N":
                    objective = tok[1]
                else:
                    rows[tok[1]] = tok[0]
            elif section == "COLUMNS":
                if len(tok) == 3 and tok[1] == "'MARKER'":
                    want = "'INTEND'" if in_int else "'INTORG'"
                    if tok[2] != want:
                        problems.append(f"unbalanced marker {tok[2]}")
                    in_int = tok[2] == "'INTORG'"
                    continue
                col = tok[0]
                if not columns or columns[-1] != col:
                    if col in bounds:
                        problems.append(f"column {col} is not contiguous")
                    columns.append(col)
                    bounds[col] = [0.0, math.inf]
                if in_int:
                    integer.add(col)
                undeclared.update(r for r in tok[1::2]
                                  if r not in rows and r != objective)
            elif section == "RHS":
                undeclared.update(r for r in tok[1::2] if r not in rows)
            elif section == "BOUNDS":
                kind, col = tok[0], tok[2]
                if col not in bounds:
                    problems.append(f"bound on unknown column {col}")
                    continue
                b = bounds[col]
                if kind == "UP":
                    b[1] = float(tok[3])
                elif kind == "LO":
                    b[0] = float(tok[3])
                elif kind == "FR":
                    b[0], b[1] = -math.inf, math.inf
                elif kind == "MI":
                    b[0] = -math.inf
                else:
                    problems.append(f"unknown bound type {kind}")
    if in_int:
        problems.append("INTORG without INTEND")
    if section != "ENDATA":
        problems.append("file does not end with ENDATA")
    if undeclared:
        problems.append(f"{len(undeclared)} undeclared rows are named")
    return {"rows": rows, "columns": columns, "integer": integer,
            "bounds": bounds, "problems": problems}


def closed_form_sizes(doc: dict) -> tuple[int, int, int]:
    """(rows, columns, binary columns) of the compiled problem, counted
    from the scenario document by constraint and variable family."""
    T = len(doc["horizon"]["steps"])
    aggs = doc["aggregators"]
    drags = [a for a in aggs if a["type"] == "drag"]
    n = {k: sum(1 for a in aggs if a["type"] == k) for k in GENERATION}
    buses = len(doc["network"]["buses"])
    branches = len(doc["network"]["branches"])
    avail = sum(len(a["availability"]) for a in aggs if a["type"] == "evcs")
    cols = (4 * T                                          # substation
            + sum(T * (len(a["blocks"]) + 2) for a in drags)
            + 11 * T * n["esag"]
            + (3 * T + 1) * n["evcs"]
            + 3 * T * n["ddgag"]
            + 2 * T * branches + T * buses)
    rows = (2 * T * n["drag"]                   # headroom up/down
            + 16 * T * n["esag"]                # state, split, 2 caps,
                                                # 6 gates, 2 merged, 4 limits
            + 5 * avail + 2 * n["evcs"]         # gates, headroom, window
            + 2 * T * n["ddgag"]
            + T * (2 * buses + branches + 1)    # balances, drops, anchor
            + 2 * T)                            # substation regulation
    binaries = T * n["esag"] + n["evcs"]
    return rows, cols, binaries


def check_export(mps_path: str, doc: dict) -> list[str]:
    """MPS export: parses, has the closed-form numbers of rows, columns and
    binary columns, and every binary column is marked with bounds [0, 1]."""
    try:
        parsed = read_mps(mps_path)
    except (OSError, ValueError, IndexError) as exc:
        return [f"MPS file unreadable: {exc}"]
    fail = list(parsed["problems"])
    rows, cols, binaries = closed_form_sizes(doc)
    if len(parsed["rows"]) != rows:
        fail.append(f"MPS has {len(parsed['rows'])} rows, expected {rows}")
    if len(parsed["columns"]) != cols:
        fail.append(f"MPS has {len(parsed['columns'])} columns, "
                    f"expected {cols}")
    if len(parsed["integer"]) != binaries:
        fail.append(f"MPS marks {len(parsed['integer'])} integer columns, "
                    f"expected {binaries}")
    off = sorted(c for c in parsed["integer"]
                 if parsed["bounds"][c] != [0.0, 1.0])
    if off:
        fail.append(f"{len(off)} integer columns not bounded to [0, 1], "
                    f"e.g. {off[0]} {parsed['bounds'][off[0]]}")
    return fail
