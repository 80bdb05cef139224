"""Command-line interface: subcommands, exit codes, file outputs."""

import json

import pytest

from conftest import make_scenario
from dsomarket import cli, solver
from dsomarket.scenario_io import save_scenario


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


def test_solve_rejects_bad_gap(scenario_file, tmp_path, capsys):
    assert cli.main(["solve", scenario_file, "--gap", "-1",
                     "--out", str(tmp_path / "r")]) == 3


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
