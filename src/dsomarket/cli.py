"""Command-line interface: validate, solve, sweep, bundled.

Exit codes: 0 success, 1 scenario validation failure, 2 solver did not
reach optimality, 3 I/O or parse errors.  Diagnostics go to stderr;
machine-readable output goes to files (or stdout for ``bundled``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import analysis, casestudy, formulation, mps, scenario_io, solver

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


def _load(path: str):
    try:
        return scenario_io.load_scenario(path), None
    except (OSError, scenario_io.ParseError, scenario_io.SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, EXIT_IO
    except scenario_io.ValidationError as exc:
        for v in exc.report.violations:
            print(f"{v.code}: {v.message}", file=sys.stderr)
        return None, EXIT_INVALID


def _cmd_validate(args) -> int:
    scenario, code = _load(args.scenario)
    if scenario is None:
        return code
    print("scenario is valid", file=sys.stderr)
    return EXIT_OK


def _cmd_solve(args) -> int:
    if args.gap <= 0 or args.max_nodes <= 0:
        print("error: --gap and --max-nodes must be positive",
              file=sys.stderr)
        return EXIT_IO
    scenario, code = _load(args.scenario)
    if scenario is None:
        return code
    opts = solver.SolveOptions(relative_gap=args.gap,
                               max_nodes=args.max_nodes)
    problem = formulation.build(scenario)
    if args.mps:
        try:
            mps.write_mps(problem, args.mps)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
    started = time.monotonic()
    try:
        solution = solver.solve_milp(problem, opts)
    except solver.SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_OPTIMAL
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
        "options": {"relative_gap": opts.relative_gap,
                    "max_nodes": opts.max_nodes,
                    "integrality_tol": opts.integrality_tol,
                    "feasibility_tol": opts.feasibility_tol,
                    "node_order": opts.node_order,
                    "branch_rule": opts.branch_rule},
        # wall time is reported on stderr only; files stay byte-reproducible
        "wall_time_s": None,
    }
    bundle = scenario_io.ResultBundle(
        scenario=scenario, schedule=schedule, revenue=revenue, stats=stats,
        input_hash=scenario_io.scenario_hash(scenario))
    try:
        scenario_io.export_results(bundle, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _cmd_sweep(args) -> int:
    scenario, code = _load(args.scenario)
    if scenario is None:
        return code
    try:
        result = analysis.run_sweep(scenario, args.target)
    except KeyError:
        print(f"error: no aggregator named {args.target!r}", file=sys.stderr)
        return EXIT_IO
    failures = [c for c in result.cases if c.status != solver.OPTIMAL]
    for case in failures:
        print(f"case {case.index}: {case.status}"
              + (f" ({case.error})" if case.error else ""), file=sys.stderr)
    try:
        import os
        os.makedirs(args.out, exist_ok=True)
        analysis.export_sweep(result, os.path.join(args.out, "sweep.csv"))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_NOT_OPTIMAL if failures else EXIT_OK


def _cmd_bundled(args) -> int:
    scenario = casestudy.bundled_case_study()
    doc = scenario_io.scenario_to_dict(scenario, casestudy.ASSUMPTIONS)
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
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
    return handlers[args.command](args)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
