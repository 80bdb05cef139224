"""Timed passes of one workload, in a process of their own.

``run.py`` starts this script once per run, so that the peak resident
memory and the CPU time of reaped sweep workers it reports belong to the
measured passes alone.  It runs one untimed warm-up pass, whose output is
kept for the checks, then starts passes back to back (a closed loop) until
``--seconds`` have passed, each after a ``gc.collect()``.  Every pass writes
into a directory of its own; its files are hashed after the pass, outside
the timed region, and compared with the warm-up output.  With ``--trace 1``
the passes after the warm-up run under the tracer.  The last line of
standard output is one JSON object with the samples.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback

from tracing import Tracer, layer_self_times, pass_metrics

SWEEP_TARGET = "ddgag-1"


def solve_ladder(scenario: str, out: str) -> int:
    from dsomarket import cli
    return cli.main(["solve", scenario, "--out", out])


def sweep_bundled(scenario: str, out: str) -> int:
    from dsomarket import cli
    return cli.main(["sweep", scenario, "--target", SWEEP_TARGET,
                     "--out", out])


def export_mps(scenario: str, out: str) -> int:
    from dsomarket import formulation, mps, scenario_io
    problem = formulation.build(scenario_io.load_scenario(scenario))
    problem.relaxation_arrays
    os.makedirs(out, exist_ok=True)
    mps.write_mps(problem, os.path.join(out, "ladder.mps"))
    return 0


PASSES = {
    "solve-ladder": solve_ladder,
    "sweep-bundled": sweep_bundled,
    "export-mps": export_mps,
}


def run_pass(fn, scenario: str, out: str) -> tuple[int, str | None]:
    try:
        return fn(scenario, out), None
    except (Exception, SystemExit):
        return 1, traceback.format_exc()


def digest(directory: str) -> str:
    h = hashlib.sha256()
    for root, _, files in sorted(os.walk(directory)):
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, directory).encode() + b"\0")
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
    return h.hexdigest()


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(PASSES))
    ap.add_argument("--scenario", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file")
    args = ap.parse_args()
    fn = PASSES[args.workload]

    reference = os.path.join(args.out, "warmup")
    warmup_rc, error = run_pass(fn, args.scenario, reference)
    if warmup_rc != 0:
        print(error or f"warm-up pass exited with {warmup_rc}",
              file=sys.stderr)
    ref_digest = digest(reference)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    samples = []
    last_spans: list = []
    started = time.perf_counter()
    i = 0
    while True:
        out = os.path.join(args.out, f"pass-{i}")
        gc.collect()
        if tracer is not None:
            tracer.reset()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        rc, error = run_pass(fn, args.scenario, out)
        t1 = time.perf_counter()
        cpu1 = cpu_seconds()
        sample = {"wall_s": t1 - t0, "cpu_s": cpu1 - cpu0, "rc": rc,
                  "same_output": os.path.isdir(out)
                  and digest(out) == ref_digest}
        if error:
            print(error, file=sys.stderr)
        if tracer is not None:
            tracer.size_problems()
            sample["layers"] = pass_metrics(tracer.spans, tracer.counters,
                                            t1 - t0)
            last_spans = tracer.spans
        shutil.rmtree(out, ignore_errors=True)
        samples.append(sample)
        i += 1
        if t1 - started >= args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()
        if args.trace_file:
            with open(args.trace_file, "w") as fh:
                json.dump({"workload": args.workload,
                           "self_s_by_module": layer_self_times(last_spans),
                           "spans": last_spans}, fh)

    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps({"warmup_rc": warmup_rc,
                      "samples": samples, "peak_rss_mb": kib / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
