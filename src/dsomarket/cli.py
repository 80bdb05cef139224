"""Command-line interface: validate, solve, sweep, bundled.

Exit codes: 0 success, 1 scenario validation failure, 2 solver did not
reach optimality, 3 I/O or parse errors.  Diagnostics go to stderr;
machine-readable output goes to files (or stdout for ``bundled``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict

# the solver's modules (numpy, HiGHS) are imported by the commands that
# solve, so validate and bundled run without them
from . import casestudy, scenario_io

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NOT_OPTIMAL = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsomarket",
        description="Coordinate DER aggregator offers over a distribution "
                    "network and solve the resulting MILP.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file")
    p.add_argument("scenario")

    p = sub.add_parser("solve", help="solve a scenario and export results")
    p.add_argument("scenario")
    p.add_argument("--out", default="results", metavar="DIR")
    p.add_argument("--gap", type=float, default=1e-6,
                   help="relative optimality gap (default 1e-6)")
    p.add_argument("--max-nodes", type=int, default=100_000)
    p.add_argument("--mps", metavar="PATH",
                   help="also export the compiled problem in MPS format")

    p = sub.add_parser("sweep", help="energy-offer price sweep (40 cases)")
    p.add_argument("scenario")
    p.add_argument("--target", required=True, metavar="ID",
                   help="aggregator whose energy offer prices are scaled")
    p.add_argument("--out", default="results", metavar="DIR")

    p = sub.add_parser("bundled", help="write the built-in case study")
    p.add_argument("--out", metavar="PATH")
    return parser


def _cmd_validate(args) -> int:
    scenario_io.load_scenario(args.scenario)
    print("scenario is valid", file=sys.stderr)
    return EXIT_OK


def _cmd_solve(args) -> int:
    from . import analysis, formulation, mps, solver

    if not 0 < args.gap < math.inf or args.max_nodes <= 0:
        print("error: --gap must be finite and positive, and --max-nodes "
              "positive", file=sys.stderr)
        return EXIT_IO
    scenario = scenario_io.load_scenario(args.scenario)
    opts = solver.SolveOptions(relative_gap=args.gap,
                               max_nodes=args.max_nodes)
    problem = formulation.build(scenario)
    if args.mps:
        mps.write_mps(problem, args.mps)
    started = time.monotonic()
    solution = solver.solve_milp(problem, opts)
    elapsed = time.monotonic() - started
    print(f"status={solution.status} objective={solution.objective:.6f} "
          f"nodes={solution.nodes_explored} gap={solution.gap:.2e} "
          f"wall={elapsed:.2f}s", file=sys.stderr)
    if solution.status != solver.OPTIMAL:
        return EXIT_NOT_OPTIMAL
    schedule = formulation.decode(scenario, problem, solution.values,
                                  solution.status)
    revenue = analysis.compute_revenue(schedule, scenario)
    stats = {
        "status": solution.status,
        "objective": solution.objective,
        "nodes": solution.nodes_explored,
        "gap": solution.gap,
        "lp_iterations": solution.lp_iterations,
        "options": {**asdict(opts), **solver.SEARCH},
        # wall time is reported on stderr only; files stay byte-reproducible
        "wall_time_s": None,
    }
    bundle = scenario_io.ResultBundle(
        scenario=scenario, schedule=schedule, revenue=revenue, stats=stats,
        input_hash=schedule.scenario_hash)     # hashed once, by decode
    scenario_io.export_results(bundle, args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    from . import analysis, solver

    scenario = scenario_io.load_scenario(args.scenario)
    try:
        result = analysis.run_sweep(scenario, args.target)
    except KeyError:
        print(f"error: no aggregator named {args.target!r}", file=sys.stderr)
        return EXIT_IO
    except analysis.BadThreadCount as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    failures = [c for c in result.cases if c.status != solver.OPTIMAL]
    for case in failures:
        print(f"case {case.index}: {case.status}"
              + (f" ({case.error})" if case.error else ""), file=sys.stderr)
    os.makedirs(args.out, exist_ok=True)
    analysis.export_sweep(result, os.path.join(args.out, "sweep.csv"))
    return EXIT_NOT_OPTIMAL if failures else EXIT_OK


def _cmd_bundled(args) -> int:
    scenario = casestudy.bundled_case_study()
    doc = scenario_io.scenario_to_dict(scenario, casestudy.ASSUMPTIONS)
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "validate": _cmd_validate,
        "solve": _cmd_solve,
        "sweep": _cmd_sweep,
        "bundled": _cmd_bundled,
    }
    try:
        return handlers[args.command](args)
    except (OSError, scenario_io.ParseError, scenario_io.SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except scenario_io.ValidationError as exc:
        for v in exc.report.violations:
            print(f"{v.code}: {v.message}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:
        from .solver import SolverError   # raised by solve and sweep only

        if not isinstance(exc, SolverError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_OPTIMAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
