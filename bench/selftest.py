"""Show that every output check fails on a corrupted output.

    python3 bench/selftest.py

Writes real outputs with the program (rung 1 solve, the bundled sweep,
rung 2 MPS export), checks that each passes, then corrupts a copy of it
one way at a time and checks that the corruption is caught by the check
meant for it.  Also checks that BENCHMARK.json names the workloads and
per-layer metrics this benchmark reports.  Exits 0 when every case holds.
Takes about half a minute.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from ladder import write_ladder  # noqa: E402
from passes import PASSES, SWEEP_TARGET  # noqa: E402

WORK = os.path.join(HERE, "out", "selftest")
results: list[tuple[str, bool]] = []


def expect(label: str, failures: list[str], needle: str | None) -> None:
    """needle None: the output must pass; else a failure must mention it."""
    if needle is None:
        ok = not failures
    else:
        ok = any(needle in f for f in failures)
    results.append((label, ok))
    shown = failures[0] if failures else "no failure"
    print(f"{'ok ' if ok else 'BAD'} {label}: {shown}")


def corrupted(src: str, name: str) -> str:
    dst = os.path.join(WORK, name)
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    return dst


def edit_csv(path: str, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
        fields = list(rows[0])
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def edit_json(path: str, **changes) -> None:
    with open(path) as fh:
        doc = json.load(fh)
    doc.update(changes)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def edit_lines(path: str, edit) -> None:
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


def bump(rows, match, field, delta):
    for row in rows:
        if match(row):
            row[field] = repr(float(row[field]) + delta)
            return rows
    raise AssertionError("no row to corrupt")


def solve_cases(bundled_doc: dict) -> None:
    path = os.path.join(WORK, "ladder-k1.json")
    write_ladder(bundled_doc, 1, 0, path)
    doc = checks.read_doc(path)
    good = os.path.join(WORK, "solve")
    rc = PASSES["solve-ladder"](path, good)
    ref = checks.milp_objective(doc)
    expect("solve: program output", checks.check_solve(good, doc, rc, ref),
           None)
    expect("solve: nonzero exit code",
           checks.check_solve(good, doc, 2, ref), "exited with code 2")

    out = corrupted(good, "solve-status")
    edit_json(os.path.join(out, "solve.json"), status="NodeLimit")
    expect("solve: status not Optimal", checks.check_solve(out, doc, 0, ref),
           "status")
    out = corrupted(good, "solve-gap")
    edit_json(os.path.join(out, "solve.json"), gap=1e-3)
    expect("solve: gap too wide", checks.check_solve(out, doc, 0, ref), "gap")
    out = corrupted(good, "solve-objective")
    with open(os.path.join(out, "solve.json")) as fh:
        objective = json.load(fh)["objective"]
    edit_json(os.path.join(out, "solve.json"), objective=objective * 0.999)
    expect("solve: objective off the milp optimum",
           checks.check_solve(out, doc, 0, ref), "scipy milp")
    out = corrupted(good, "solve-balance")
    edit_csv(os.path.join(out, "schedule.csv"),
             lambda rows: bump(rows, lambda r: r["t"] == "5"
                               and r["entity"] == "substation",
                               "energy_MW", 0.01))
    expect("solve: substation energy off balance",
           checks.check_solve(out, doc, 0, ref), "hour 5")
    out = corrupted(good, "solve-revenue")
    edit_csv(os.path.join(out, "revenue.csv"),
             lambda rows: bump(rows, lambda r: r["entity"] == "esag-1",
                               "total_$", 0.5))
    expect("solve: revenue does not regroup to the objective",
           checks.check_solve(out, doc, 0, ref), "regroups")


def sweep_cases(bundled_path: str) -> None:
    doc = checks.read_doc(bundled_path)
    good = os.path.join(WORK, "sweep")
    rc = PASSES["sweep-bundled"](bundled_path, good)
    refs = checks.sweep_references(doc, SWEEP_TARGET)

    def check(out, code=0):
        return checks.check_sweep(out, doc, SWEEP_TARGET, code, refs)

    sweep_csv = "sweep.csv"
    expect("sweep: program output", check(good, rc), None)
    expect("sweep: nonzero exit code", check(good, 2), "exited with code 2")
    out = corrupted(good, "sweep-status")

    def status(rows):
        for row in rows:
            if row["i"] == "17":
                row["status"] = "NodeLimit"
        return rows
    edit_csv(os.path.join(out, sweep_csv), status)
    expect("sweep: a case not Optimal", check(out), "not Optimal")
    out = corrupted(good, "sweep-rows")
    edit_csv(os.path.join(out, sweep_csv), lambda rows: rows[:-1])
    expect("sweep: a row missing", check(out), "rows")
    out = corrupted(good, "sweep-monotone")

    def rise(rows):
        # case 10's offer-weighted energy set 1 MWh-$ above case 9's
        energy = {r["i"]: float(r["energy_$"]) / float(r["multiplier"])
                  for r in rows if r["entity"] == SWEEP_TARGET}
        for row in rows:
            if row["i"] == "10" and row["entity"] == SWEEP_TARGET:
                row["energy_$"] = repr((energy["9"] + 1.0) * 1.0)
        return rows
    edit_csv(os.path.join(out, sweep_csv), rise)
    expect("sweep: offer-weighted energy rises", check(out), "rises")
    out = corrupted(good, "sweep-objective")
    edit_csv(os.path.join(out, sweep_csv),
             lambda rows: bump(rows, lambda r: r["i"] == "7"
                               and r["entity"] == "evcs-1", "total_$", 1.0))
    expect("sweep: case objective off the milp optimum", check(out),
           "case 7")


def export_cases(bundled_doc: dict) -> None:
    path = os.path.join(WORK, "ladder-k2.json")
    write_ladder(bundled_doc, 2, 0, path)
    doc = checks.read_doc(path)
    good = os.path.join(WORK, "export")
    PASSES["export-mps"](path, good)
    mps = "ladder.mps"
    expect("export: program output",
           checks.check_export(os.path.join(good, mps), doc), None)

    out = corrupted(good, "export-row")
    edit_lines(os.path.join(out, mps),
               lambda ls: [x for x in ls if not x.endswith("R0000003")])
    expect("export: a row dropped",
           checks.check_export(os.path.join(out, mps), doc), "rows, expected")
    out = corrupted(good, "export-column")
    edit_lines(os.path.join(out, mps),
               lambda ls: [x for x in ls if "C0000002 " not in x + " "])
    expect("export: a column dropped",
           checks.check_export(os.path.join(out, mps), doc),
           "columns, expected")

    def unmark_first(ls):
        first = next(i for i, x in enumerate(ls) if "'INTORG'" in x)
        end = next(i for i in range(first, len(ls)) if "'INTEND'" in ls[i])
        return ls[:first] + ls[first + 1:end] + ls[end + 1:]
    out = corrupted(good, "export-marker")
    edit_lines(os.path.join(out, mps), unmark_first)
    expect("export: a binary column outside the markers",
           checks.check_export(os.path.join(out, mps), doc),
           "integer columns, expected")

    parsed = checks.read_mps(os.path.join(good, mps))
    binary = sorted(parsed["integer"])[0]
    out = corrupted(good, "export-bound")
    edit_lines(os.path.join(out, mps),
               lambda ls: [x.rsplit(None, 1)[0] + "  2"
                           if x.startswith(" UP ") and binary in x else x
                           for x in ls])
    expect("export: a binary column bounded to [0, 2]",
           checks.check_export(os.path.join(out, mps), doc),
           "not bounded to [0, 1]")


def benchmark_json_cases() -> None:
    from run import WORKLOADS
    from tracing import LAYER_METRICS
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = tuple(w["name"] for w in spec["workloads"])
    expect("BENCHMARK.json workloads",
           [] if names == WORKLOADS else [f"{names} != {WORKLOADS}"], None)
    layers = tuple((m["name"], m["unit"]) for m in spec["per_layer"])
    expect("BENCHMARK.json per-layer metrics",
           [] if layers == LAYER_METRICS else ["per_layer differs"], None)


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    from dsomarket import cli
    bundled_path = os.path.join(WORK, "bundled.json")
    cli.main(["bundled", "--out", bundled_path])
    bundled_doc = checks.read_doc(bundled_path)
    solve_cases(bundled_doc)
    sweep_cases(bundled_path)
    export_cases(bundled_doc)
    benchmark_json_cases()
    shutil.rmtree(WORK, ignore_errors=True)
    bad = [label for label, ok in results if not ok]
    print(f"{len(results) - len(bad)} of {len(results)} cases hold")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
