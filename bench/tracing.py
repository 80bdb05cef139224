"""Call tracing for the benchmark's traced run.

The tracer wraps the package's public functions where they are looked up
(the module attribute, and the names other modules imported), so the
program itself is untouched.  Each call becomes a span (name, start, end,
parent) kept in memory; counters are read from returned objects and from
the ``trace=`` list of ``solve_milp``.  ``pass_metrics`` turns the spans
and counters of one pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import os
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

# (metric, unit); every one is reported on every workload, 0 where the
# layer does not run.  Times are seconds per pass, counts are per pass.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("traced_wall_s", "s"),
    ("cli.self_s", "s"),
    ("solver.solve_milp_s", "s"),
    ("solver.solve_milp_calls", "count"),
    ("solver.lp_s", "s"),
    ("solver.lp_calls", "count"),
    ("solver.root_lp_s", "s"),
    ("solver.bnb_self_s", "s"),
    ("solver.nodes", "count"),
    ("solver.lp_iterations", "count"),
    ("solver.iterations_per_lp", "iter/lp"),
    ("solver.infeasible_nodes", "count"),
    ("solver.nodes_to_first_incumbent", "count"),
    ("formulation.build_s", "s"),
    ("formulation.build_calls", "count"),
    ("formulation.network_rows_s", "s"),
    ("formulation.assemble_s", "s"),
    ("formulation.decode_s", "s"),
    ("formulation.rows", "count"),
    ("formulation.cols", "count"),
    ("formulation.nnz", "count"),
    ("mps.write_s", "s"),
    ("mps.bytes", "bytes"),
    ("model.validate_s", "s"),
    ("model.validate_calls", "count"),
    ("scenario_io.load_s", "s"),
    ("scenario_io.hash_s", "s"),
    ("scenario_io.hash_calls", "count"),
    ("scenario_io.export_s", "s"),
    ("scenario_io.export_bytes", "bytes"),
    ("analysis.revenue_s", "s"),
    ("analysis.sweep_s", "s"),
    ("analysis.case_s_median", "s"),
    ("analysis.case_s_max", "s"),
)

# Counts that must repeat exactly between passes and between runs.
COUNTERS = tuple(name for name, unit in LAYER_METRICS
                 if unit in ("count", "bytes"))


class Tracer:
    """In-memory spans and counters for the calls of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counters: dict[str, int] = defaultdict(int)
        self.problems: list = []         # built problems, sized after a pass
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counters.clear()
        self.problems = []

    def wrap(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0,
                               self._stack[-1] if self._stack else None])
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = start, end
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def patch(self, owner, attr: str, name: str, before=None, after=None):
        original = getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, before, after))

    def install(self) -> None:
        """Wrap every traced lookup site of the ``dsomarket`` package."""
        from dsomarket import (analysis, cli, formulation, model, mps,
                               scenario_io, solver)
        count = self.counters

        def solve_milp_before(args, kwargs):
            if "trace" not in kwargs and len(args) < 3:
                kwargs = {**kwargs, "trace": []}
            return args, kwargs

        def solve_milp_after(args, kwargs, sol):
            trace = kwargs.get("trace") or []
            count["solver.nodes"] += sol.nodes_explored
            count["solver.lp_iterations"] += sol.lp_iterations
            count["solver.infeasible_nodes"] += sum(
                1 for entry in trace if entry[2] == np.inf)
            first = next((i for i, entry in enumerate(trace)
                          if np.isfinite(entry[3])), len(trace))
            count["solver.nodes_to_first_incumbent"] += first

        def build_after(args, kwargs, problem):
            self.problems.append(problem)

        def mps_after(args, kwargs, _):
            path = args[1] if len(args) > 1 else kwargs["path"]
            count["mps.bytes"] += os.path.getsize(path)

        def export_after(args, kwargs, written):
            count["scenario_io.export_bytes"] += sum(
                os.path.getsize(p) for p in written)

        milp = dict(before=solve_milp_before, after=solve_milp_after)
        for owner in (solver, analysis):
            self.patch(owner, "solve_milp", "solver.solve_milp", **milp)
        self.patch(solver, "solve_lp", "solver.solve_lp")
        for owner in (formulation, analysis):
            self.patch(owner, "build", "formulation.build", after=build_after)
            self.patch(owner, "decode", "formulation.decode")
        self.patch(formulation, "add_network_constraints",
                   "formulation.add_network_constraints")
        for owner in (model, formulation, scenario_io):
            self.patch(owner, "validate_scenario", "model.validate_scenario")
        for owner in (scenario_io, formulation, analysis):
            self.patch(owner, "scenario_hash", "scenario_io.scenario_hash")
        self.patch(scenario_io, "load_scenario", "scenario_io.load_scenario")
        self.patch(scenario_io, "export_results", "scenario_io.export_results",
                   after=export_after)
        self.patch(mps, "write_mps", "mps.write_mps", after=mps_after)
        self.patch(analysis, "compute_revenue", "analysis.compute_revenue")
        self.patch(analysis, "run_sweep", "analysis.run_sweep")
        self.patch(analysis, "_solve_case", "analysis.solve_case")
        self.patch(analysis, "export_sweep", "analysis.export_sweep")
        self.patch(cli, "main", "cli.main")

        # relaxation_arrays is a cached_property on MilpProblem
        prop = formulation.MilpProblem.__dict__["relaxation_arrays"]
        assembled = functools.cached_property(
            self.wrap("formulation.relaxation_arrays", prop.func))
        assembled.__set_name__(formulation.MilpProblem, "relaxation_arrays")
        self._installed.append(
            (formulation.MilpProblem, "relaxation_arrays", prop))
        formulation.MilpProblem.relaxation_arrays = assembled

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def size_problems(self) -> None:
        """Count rows, columns and nonzeros of the problems built in a pass,
        from the assembled arrays (already cached by the pass itself)."""
        for problem in self.problems:
            A_ub, _, A_eq, _ = problem.relaxation_arrays
            for A in (A_ub, A_eq):
                if A is not None:
                    self.counters["formulation.rows"] += A.shape[0]
                    self.counters["formulation.nnz"] += A.nnz
            self.counters["formulation.cols"] += problem.num_cols
        self.problems = []


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def pass_metrics(spans: list[list], counters: dict[str, int],
                 wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_total: dict[str, float] = defaultdict(float)
    for (name, start, end, _), s in zip(spans, own):
        total[name] += end - start
        calls[name] += 1
        self_total[name] += s
    root_lp = 0.0
    seen_milp: set[int] = set()
    for name, start, end, parent in spans:
        if (name == "solver.solve_lp" and parent is not None
                and spans[parent][0] == "solver.solve_milp"
                and parent not in seen_milp):
            seen_milp.add(parent)
            root_lp += end - start
    cases = [end - start for name, start, end, _ in spans
             if name == "analysis.solve_case"]
    lp_calls = calls["solver.solve_lp"]
    out = {
        "traced_wall_s": wall,
        "cli.self_s": self_total["cli.main"],
        "solver.solve_milp_s": total["solver.solve_milp"],
        "solver.solve_milp_calls": calls["solver.solve_milp"],
        "solver.lp_s": total["solver.solve_lp"],
        "solver.lp_calls": lp_calls,
        "solver.root_lp_s": root_lp,
        "solver.bnb_self_s": self_total["solver.solve_milp"],
        "solver.iterations_per_lp":
            counters["solver.lp_iterations"] / lp_calls if lp_calls else 0.0,
        "formulation.build_s": total["formulation.build"],
        "formulation.build_calls": calls["formulation.build"],
        "formulation.network_rows_s":
            total["formulation.add_network_constraints"],
        "formulation.assemble_s": total["formulation.relaxation_arrays"],
        "formulation.decode_s": total["formulation.decode"],
        "mps.write_s": total["mps.write_mps"],
        "model.validate_s": total["model.validate_scenario"],
        "model.validate_calls": calls["model.validate_scenario"],
        "scenario_io.load_s": total["scenario_io.load_scenario"],
        "scenario_io.hash_s": total["scenario_io.scenario_hash"],
        "scenario_io.hash_calls": calls["scenario_io.scenario_hash"],
        "scenario_io.export_s": total["scenario_io.export_results"],
        "analysis.revenue_s": total["analysis.compute_revenue"],
        "analysis.sweep_s": total["analysis.run_sweep"],
        "analysis.case_s_median": statistics.median(cases) if cases else 0.0,
        "analysis.case_s_max": max(cases, default=0.0),
    }
    for name in COUNTERS:
        out.setdefault(name, counters.get(name, 0))
    return {name: out[name] for name, _ in LAYER_METRICS}


def layer_self_times(spans: list[list]) -> dict[str, float]:
    """Self time summed per module (the span name's prefix)."""
    out: dict[str, float] = defaultdict(float)
    for (name, *_), s in zip(spans, self_times(spans)):
        out[name.split(".")[0]] += s
    return dict(out)
