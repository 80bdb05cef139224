"""Regenerate the scenario-ladder table: B&B seconds and nodes per rung,
beside ``scipy.optimize.milp`` seconds on the same compiled arrays.

    python3 bench/ladder_table.py              # rungs 1 2 4, ladder seed 0
    python3 bench/ladder_table.py --rungs 1 2 4 8 --seed 3

Run from the root of a source checkout.  Prints a Markdown table; the
objectives of the two solvers must agree to 1e-6 relative, or it exits 1.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from ladder import ladder_doc  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rungs", type=int, nargs="+", default=[1, 2, 4])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    from dsomarket import casestudy, formulation, scenario_io, solver
    bundled = scenario_io.scenario_to_dict(casestudy.bundled_case_study(),
                                           casestudy.ASSUMPTIONS)
    print("| rung | buses | rows | B&B s | nodes | LP iterations "
          "| milp s | objective |")
    print("|---:|---:|---:|---:|---:|---:|---:|---:|")
    agree = True
    for k in args.rungs:
        scenario, _ = scenario_io.scenario_from_dict(
            ladder_doc(bundled, k, args.seed))
        problem = formulation.build(scenario)
        problem.relaxation_arrays
        t0 = time.perf_counter()
        sol = solver.solve_milp(problem)
        bnb_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        ref = checks.milp_solve(problem)
        milp_s = time.perf_counter() - t0
        agree &= abs(sol.objective - ref) <= checks.eps(ref)
        A_ub, _, A_eq, _ = problem.relaxation_arrays
        print(f"| {k} | {4 * k + 1} | {A_ub.shape[0] + A_eq.shape[0]} "
              f"| {bnb_s:.2f} | {sol.nodes_explored} | {sol.lp_iterations} "
              f"| {milp_s:.2f} | {sol.objective:.4f} |", flush=True)
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
