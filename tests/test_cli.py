"""Command-line interface: subcommands, exit codes, file outputs."""

import copy
import json
import math
import os
import tempfile
from dataclasses import replace
from functools import reduce
from operator import getitem

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DELETE, edit, make_scenario
from dsomarket import analysis, cli, formulation, scenario_io, solver
from dsomarket.casestudy import bundled_case_study
from dsomarket.scenario_io import save_scenario, scenario_to_dict


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    save_scenario(make_scenario(T=2, kinds=("ddgag", "esag")), str(path))
    return str(path)


def test_bundled_writes_valid_scenario(tmp_path, capsys):
    out = tmp_path / "case.json"
    assert cli.main(["bundled", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["version"] == 1
    assert doc["assumptions"]
    assert cli.main(["validate", str(out)]) == 0


def test_bundled_prints_to_stdout(capsys):
    assert cli.main(["bundled"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {a["type"] for a in doc["aggregators"]} == {
        "drag", "esag", "evcs", "ddgag"}


def test_validate_missing_file_exits_3(tmp_path, capsys):
    assert cli.main(["validate", str(tmp_path / "missing.json")]) == 3


def test_validate_malformed_json_exits_3(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["validate", str(path)]) == 3
    assert "line" in capsys.readouterr().err


def _edited_bundled(tmp_path, path, value):
    """The bundled scenario file with the value at ``path`` replaced."""
    doc = scenario_to_dict(bundled_case_study())
    edit(doc, path, value)
    out = tmp_path / "edited.json"
    out.write_text(json.dumps(doc))
    return str(out)


@pytest.mark.parametrize("path, value", [
    (("horizon", "step_hours"), "a"),
    (("aggregators", 0, "blocks"), 5),
    (("assumptions",), [1, None]),
], ids=["step_hours string", "drag blocks number", "assumptions not strings"])
def test_validate_wrong_type_exits_3(tmp_path, capsys, path, value):
    assert cli.main(["validate", _edited_bundled(tmp_path, path, value)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be" in err


@pytest.mark.parametrize("path", [
    ("network", "branches", 0, "r"),
    ("aggregators", 0, "tan_phi"),
    ("horizon", "step_hours"),
    ("network", "s_base"),
], ids=["branch r", "drag tan_phi", "step_hours", "s_base"])
def test_validate_non_finite_scalar_exits_1(tmp_path, capsys, path):
    edited = _edited_bundled(tmp_path, path, float("nan"))
    assert cli.main(["validate", edited]) == 1
    err = capsys.readouterr().err
    assert "VALUE_NOT_FINITE" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize("path, value", [
    (("regulation_signal", "s_up", 3), float("nan")),
    (("regulation_signal", "s_dn", 3), float("inf")),
], ids=["s_up nan", "s_dn inf"])
def test_non_finite_regulation_signal_exits_1(tmp_path, capsys, command,
                                              path, value):
    argv = [command, _edited_bundled(tmp_path, path, value)]
    if command == "solve":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "VALUE_NOT_FINITE" in err
    assert "Traceback" not in err


def test_validate_invalid_scenario_exits_1(tmp_path, capsys):
    s = make_scenario(kinds=("esag",))
    from dataclasses import replace
    s = replace(s, esags=(replace(s.esags[0], e_init=99.0),))
    path = tmp_path / "invalid.json"
    save_scenario(s, str(path))
    assert cli.main(["validate", str(path)]) == 1
    assert "ESAG_INIT_OUT_OF_RANGE" in capsys.readouterr().err


def test_solve_writes_result_files(scenario_file, tmp_path, capsys):
    out = tmp_path / "results"
    mps = tmp_path / "case.mps"
    code = cli.main(["solve", scenario_file, "--out", str(out),
                     "--mps", str(mps)])
    assert code == 0
    for name in ("schedule.csv", "network.csv", "revenue.csv", "solve.json"):
        assert (out / name).exists()
    assert mps.read_text().endswith("ENDATA\n")
    err = capsys.readouterr().err
    assert "status=Optimal" in err
    assert "wall=" in err
    stats = json.loads((out / "solve.json").read_text())
    assert stats["wall_time_s"] is None
    assert stats["gap"] <= 1e-6
    # the four SolveOptions values and the one search solve_milp runs
    assert stats["options"] == {
        "relative_gap": 1e-6, "max_nodes": 100_000, "integrality_tol": 1e-6,
        "feasibility_tol": 1e-7, "node_order": "best-first",
        "branch_rule": "most-fractional",
        "cut_rule": "gomory-mixed-integer at the root",
        "cut_rounds": 8}


def test_solve_rejects_bad_gap(scenario_file, tmp_path, capsys):
    # a NaN or infinite gap would reach solve.json, which JSON cannot hold
    for gap in ("-1", "0", "nan", "inf"):
        out = tmp_path / gap
        assert cli.main(["solve", scenario_file, "--gap", gap,
                         "--out", str(out)]) == 3
        assert "--gap must be finite and positive" in capsys.readouterr().err
        assert not out.exists()


def test_duplicate_branch_ids_exit_1(tmp_path, capsys):
    # a radial branch count, but two branches share an id
    s = make_scenario(kinds=("ddgag", "esag"))
    net = s.network
    twin = replace(net.branches[1], id=net.branches[0].id)
    s = replace(s, network=replace(net, branches=(net.branches[0], twin)))
    path = str(tmp_path / "twins.json")
    save_scenario(s, path)
    for args in (["validate", path],
                 ["solve", path, "--out", str(tmp_path / "r")],
                 ["sweep", path, "--target", "ddgag-x",
                  "--out", str(tmp_path / "s")]):
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert "DUPLICATE_BRANCH: branch ids are not unique" in err
        assert "Traceback" not in err


def test_tiny_base_exits_1(tmp_path, capsys):
    # r / s_base and x / s_base overflow to inf in the voltage rows
    path = _edited_bundled(tmp_path, ("network", "s_base"), 1e-320)
    for args in (["validate", path],
                 ["solve", path, "--out", str(tmp_path / "r")],
                 ["sweep", path, "--target", "ddgag-1",
                  "--out", str(tmp_path / "s")]):
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert "BRANCH_PER_UNIT_NOT_FINITE: branch 1 " in err
        assert "Traceback" not in err
    assert not (tmp_path / "r").exists() and not (tmp_path / "s").exists()


@pytest.mark.parametrize("s_base", [1e-14, 1e-300])
def test_huge_per_unit_impedance_exits_1(tmp_path, capsys, s_base):
    # r / s_base and x / s_base are finite, 1e12 and 1e298: HiGHS reports
    # model status Unknown on the first and cannot load the second
    path = _edited_bundled(tmp_path, ("network", "s_base"), s_base)
    for args in (["validate", path],
                 ["solve", path, "--out", str(tmp_path / "r")],
                 ["sweep", path, "--target", "ddgag-1",
                  "--out", str(tmp_path / "s")]):
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert "BRANCH_PER_UNIT_TOO_LARGE: branch 1 " in err
        assert "Traceback" not in err
    assert not (tmp_path / "r").exists() and not (tmp_path / "s").exists()


@pytest.mark.parametrize("path, value, where", [
    (("offers", "ddgag-1", "energy", 0), 1e308, "the offers of ddgag-1"),
    (("wholesale", "energy", 2), -1e308, "the wholesale prices of hour 3"),
])
def test_price_overflowing_once_priced_exits_1(tmp_path, capsys, path,
                                               value, where):
    # 1e308 is a valid price, but priced over two-hour steps it is 2e308,
    # which is not finite: validate passes the file, solve refuses it
    doc = scenario_to_dict(bundled_case_study())
    edit(doc, ("horizon", "step_hours"), 2.0)
    edit(doc, path, value)
    case = tmp_path / "overflow.json"
    case.write_text(json.dumps(doc))
    assert cli.main(["validate", str(case)]) == 0
    capsys.readouterr()
    out, mps = tmp_path / "r", tmp_path / "case.mps"
    assert cli.main(["solve", str(case), "--out", str(out),
                     "--mps", str(mps)]) == 1
    err = capsys.readouterr().err
    assert err == (f"PRICE_OVERFLOW: {where} are not finite once priced "
                   "into the objective (step_hours 2.0)\n")
    assert not out.exists() and not mps.exists()


def test_small_base_within_limit_solves(tmp_path, capsys):
    # r / s_base = 1e7, under MAX_PER_UNIT_IMPEDANCE
    path = _edited_bundled(tmp_path, ("network", "s_base"), 1e-9)
    assert cli.main(["validate", path]) == 0
    assert cli.main(["solve", path, "--out", str(tmp_path / "r")]) == 0
    assert "PER_UNIT" not in capsys.readouterr().err


@pytest.mark.parametrize("s_base", [1e-4, 1e-6, 1e-8, 1e-9])
def test_small_base_sweep_solves_every_case(tmp_path, capsys, s_base):
    # per-unit impedances of 1e3 to 1e7: HiGHS can end a warm node LP, or
    # one on the root cuts, with model status Unknown, and the last case's
    # optimum can miss the next case's rows by more than feasibility_tol;
    # the sweep re-solves such an LP on a fresh model and such a case
    # without its start
    path = _edited_bundled(tmp_path, ("network", "s_base"), s_base)
    out = tmp_path / "s"
    assert cli.main(["sweep", path, "--target", "ddgag-1",
                     "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    statuses = {int(row.split(",")[0]): row.rsplit(",", 1)[1] for row in rows}
    assert statuses == {i: solver.OPTIMAL for i in range(1, 41)}


def test_solve_hashes_the_scenario_once(tmp_path, monkeypatch):
    hashed = []
    real = scenario_io.scenario_hash

    def counted(scenario):
        hashed.append(scenario)
        return real(scenario)

    for module in (scenario_io, formulation, analysis):
        monkeypatch.setattr(module, "scenario_hash", counted)
    path = str(tmp_path / "bundled.json")
    assert cli.main(["bundled", "--out", path]) == 0
    assert cli.main(["solve", path, "--out", str(tmp_path / "r")]) == 0
    assert len(hashed) == 1
    with open(tmp_path / "r" / "solve.json") as fh:
        assert json.load(fh)["input_hash"] == (
            "29bd8148b4fac62dbe842d8b6885923cd80886b25d1ba314483503581eb6c0d0")


def test_solve_infeasible_scenario_exits_2(tmp_path, capsys):
    # a 50 MW fixed load behind a 20 MW branch cannot be served
    s = make_scenario(T=1, kinds=(), extra_load_bus=True, p_load=50.0)
    path = tmp_path / "infeasible.json"
    save_scenario(s, str(path))
    assert cli.main(["solve", path.as_posix(), "--out",
                     str(tmp_path / "r")]) == 2
    assert "status=Infeasible" in capsys.readouterr().err


def test_solve_backend_failure_exits_2(scenario_file, tmp_path, capsys,
                                      monkeypatch):
    def fail(problem, opts):
        raise solver.SolverError("LP backend failed: HiGHS model status "
                                 "Solve error (kSolveError)")

    monkeypatch.setattr(solver, "solve_milp", fail)
    out = tmp_path / "r"
    assert cli.main(["solve", scenario_file, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: LP backend failed")
    assert "Traceback" not in err
    assert not out.exists()


def test_sweep_writes_csv(scenario_file, tmp_path, capsys):
    out = tmp_path / "sweepdir"
    code = cli.main(["sweep", scenario_file, "--target", "ddgag-x",
                     "--out", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 40 * 3   # 40 cases x (2 entities + wholesale)


def test_sweep_unknown_target_exits_3(scenario_file, tmp_path, capsys):
    assert cli.main(["sweep", scenario_file, "--target", "nobody",
                     "--out", str(tmp_path / "s")]) == 3


@pytest.mark.parametrize("threads", ["abc", "0", "-2", "1.5", ""])
def test_sweep_bad_threads_exits_3(scenario_file, tmp_path, monkeypatch,
                                   capsys, threads):
    monkeypatch.setenv("DSO_THREADS", threads)
    out = tmp_path / "s"
    assert cli.main(["sweep", scenario_file, "--target", "ddgag-x",
                     "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"error: DSO_THREADS must be a positive integer, got {threads!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--out", "results", "--mps", "missing/case.mps"],
    ["solve", "--out", "taken"],
    ["sweep", "--target", "ddgag-x", "--out", "taken"],
    ["bundled", "--out", "missing/case.json"],
], ids=["solve --mps", "solve --out", "sweep --out", "bundled --out"])
def test_unwritable_output_exits_3(scenario_file, tmp_path, monkeypatch,
                                   capsys, argv):
    # "missing" is a directory that does not exist, "taken" a file where
    # an output directory should go
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("")
    if argv[0] != "bundled":
        argv = argv[:1] + [scenario_file] + argv[1:]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines()
                if line.startswith("error: ")]) == 1
    assert "Traceback" not in err


BUNDLED_DOC = scenario_to_dict(bundled_case_study())
WRONG_TYPES = ("x", None, True, [], {}, [None])
NON_FINITE = (math.nan, math.inf, -math.inf)


def _is_series(node) -> bool:
    return isinstance(node, list) and all(
        isinstance(v, (int, float)) for v in node)


def _key_paths(node, path=()):
    """Every key path of a document, parents before their children, but
    not the elements of a list of numbers."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list) and not _is_series(node):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _key_paths(child, path + (key,))


@st.composite
def mutated_documents(draw):
    """The bundled scenario document with one to three mutations: a wrong
    type, a non-finite number, a dropped or an extra key or element, or a
    shortened list."""
    doc = copy.deepcopy(BUNDLED_DOC)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_key_paths(doc))[1:]))
        series = reduce(getitem, path, doc)
        if _is_series(series) and series and draw(st.booleans()):
            path += (draw(st.integers(0, len(series) - 1)),)
        *head, last = path
        parent = reduce(getitem, head, doc)
        value = parent[last]
        how = draw(st.sampled_from(
            ("type", "non-finite", "drop", "extra", "shorten")))
        if how == "type":
            edit(doc, path, copy.deepcopy(draw(st.sampled_from(WRONG_TYPES))))
        elif how == "non-finite":
            edit(doc, path, draw(st.sampled_from(NON_FINITE)))
        elif how == "drop":
            edit(doc, path, DELETE)
        elif how == "extra":
            if isinstance(value, dict):
                value["unexpected"] = 1
            elif isinstance(parent, list):
                parent.append(copy.deepcopy(value))
            else:
                parent["unexpected"] = copy.deepcopy(value)
        elif isinstance(value, list) and value:
            edit(doc, path, value[:draw(st.integers(0, len(value) - 1))])
    return doc


@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=mutated_documents())
def test_solve_survives_mutated_scenarios(doc):
    # never a traceback, always a documented exit code, and a solve that
    # exits 0 left a feasible point
    solved = []
    real_solve = solver.solve_milp

    def recording_solve(problem, *args, **kwargs):
        solution = real_solve(problem, *args, **kwargs)
        solved.append((problem, solution))
        return solution

    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "solve_milp", recording_solve)
        path = os.path.join(tmp, "case.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code = cli.main(["solve", path, "--out", os.path.join(tmp, "out")])
    assert code in (0, 1, 2, 3)
    if code == 0:
        (problem, solution), = solved
        assert problem.max_residual(solution.values) <= 1e-6
