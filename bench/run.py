"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload solve-ladder --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout (``src/dsomarket`` must exist; the
program is imported from there, never from an installed copy).  A run

1. writes the workload's input files (``ladder.py``; not timed);
2. with ``--trace 0``, times set-up (``import dsomarket`` plus the first
   load of the scenario file) in fresh interpreters, one untimed and
   ``SETUP_REPEATS`` timed, and keeps the median;
3. starts ``passes.py`` in a process of its own, which runs an untimed
   warm-up pass and then timed passes back to back for ``--seconds``;
4. checks the outputs with ``checks.py``;
5. prints one JSON object as the last line of standard output.

With ``--trace 0`` the metrics are the end-to-end ones (median wall and
CPU seconds of one pass, median set-up seconds, peak resident memory);
with ``--trace 1`` they are the per-layer ones, from passes run under the
tracer.  See README.md for the workloads and the reasons behind them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("solve-ladder", "sweep-bundled", "export-mps")
SOLVE_RUNG = 4
SOLVE_LADDER_SEED = 0      # why the solve rung ignores --seed: README.md
EXPORT_RUNG = 64
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150

# One thread for BLAS/OpenMP pools, a fixed hash seed, the program from
# this checkout.  The sweep's worker count is set per run below.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONPATH": SRC,
}

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import dsomarket
dsomarket.load_scenario(sys.argv[1])
print(time.perf_counter() - t0)
"""


def child_env(threads: int) -> dict:
    return {**os.environ, **PINNED_ENV, "DSO_THREADS": str(threads)}


def sweep_threads() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def write_inputs(workload: str, seed: int, work: str) -> str:
    """Write the workload's scenario file; returns its path."""
    from dsomarket import cli

    from ladder import write_ladder
    bundled = os.path.join(work, "bundled.json")
    if cli.main(["bundled", "--out", bundled]) != 0:
        raise RuntimeError("dsomarket bundled failed")
    if workload == "sweep-bundled":
        return bundled
    with open(bundled, encoding="utf-8") as fh:
        doc = json.load(fh)
    if workload == "solve-ladder":
        rung, ladder_seed = SOLVE_RUNG, SOLVE_LADDER_SEED
    else:
        rung, ladder_seed = EXPORT_RUNG, seed
    path = os.path.join(work, f"ladder-k{rung}-s{ladder_seed}.json")
    write_ladder(doc, rung, ladder_seed, path)
    return path


def measure_setup(scenario: str) -> float:
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, scenario], env=child_env(1),
            cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        if i:                      # the first one fills caches; not kept
            times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def run_passes(workload: str, scenario: str, work: str, seconds: int,
               trace: int, trace_file: str) -> dict:
    threads = sweep_threads() if workload == "sweep-bundled" and not trace \
        else 1
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "passes.py"),
         "--workload", workload, "--scenario", scenario,
         "--out", os.path.join(work, "passes"), "--seconds", str(seconds),
         "--trace", str(trace), "--trace-file", trace_file],
        env=child_env(threads), cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"passes.py exited with {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if result["warmup_rc"] or any(s["rc"] for s in result["samples"]):
        sys.stderr.write(proc.stderr[-4000:])
    return result


def check_outputs(workload: str, scenario: str, reference_dir: str,
                  rc: int) -> list[str]:
    import checks
    with open(scenario, encoding="utf-8") as fh:
        doc = json.load(fh)
    if workload == "solve-ladder":
        return checks.check_solve(reference_dir, doc, rc)
    if workload == "sweep-bundled":
        from passes import SWEEP_TARGET
        return checks.check_sweep(reference_dir, doc, SWEEP_TARGET, rc)
    return checks.check_export(os.path.join(reference_dir, "ladder.mps"), doc)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "dsomarket", "__init__.py")):
        print(f"error: no program source at {SRC}; run from the root of a "
              "dsomarket checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    trace_file = os.path.join(OUT, f"trace-{args.workload}.json")
    try:
        scenario = write_inputs(args.workload, args.seed, work)
        setup_s = None if args.trace else measure_setup(scenario)
        result = run_passes(args.workload, scenario, work, args.seconds,
                            args.trace, trace_file)
        failures = check_outputs(args.workload, scenario,
                                 os.path.join(work, "passes", "warmup"),
                                 result["warmup_rc"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    samples = result["samples"]
    failed = sum(1 for s in samples
                 if s["rc"] != 0 or not s["same_output"] or failures)
    if args.trace:
        from tracing import COUNTERS, LAYER_METRICS
        layers = [s["layers"] for s in samples]
        for name in COUNTERS:
            if len({layer[name] for layer in layers}) != 1:
                failures.append(f"counter {name} differs between passes")
        metrics = {name: metric(layers[0][name] if name in COUNTERS else
                                statistics.median(l[name] for l in layers),
                                unit)
                   for name, unit in LAYER_METRICS}
    else:
        metrics = {
            "wall_s": metric(statistics.median(s["wall_s"] for s in samples),
                             "s"),
            "cpu_s": metric(statistics.median(s["cpu_s"] for s in samples),
                            "s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
        }
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
