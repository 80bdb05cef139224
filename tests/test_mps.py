"""MPS export: sections, naming scheme, integer markers, determinism."""

import hashlib

import numpy as np

from conftest import make_scenario
from oracles import make_problem
from dsomarket.formulation import EQ, GE, LE, build
from dsomarket.mps import format_mps, write_mps


def _tiny_problem():
    return make_problem(
        c=[1.0, -2.0, 0.0],
        A=[[1.0, 1.0, 0.0], [1.0, 0.0, -1.0], [0.0, 2.0, 1.0]],
        senses=[LE, GE, EQ], b=[4.0, 0.0, 3.0],
        lower=[0.0, -np.inf, 0.0], upper=[2.0, np.inf, np.inf],
        integrality=[False, False, True])


def test_sections_in_order():
    text = format_mps(_tiny_problem())
    positions = [text.index(section) for section in
                 ("NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA")]
    assert positions == sorted(positions)


def test_row_and_column_naming_scheme():
    text = format_mps(_tiny_problem())
    assert " N  COST" in text
    assert " L  R0000000" in text
    assert " G  R0000001" in text
    assert " E  R0000002" in text
    assert "C0000000" in text and "C0000002" in text


def test_integer_markers_wrap_binary_columns():
    text = format_mps(_tiny_problem())
    start = text.index("'INTORG'")
    end = text.index("'INTEND'")
    assert start < text.index("C0000002", start) < end


def test_no_markers_without_integers():
    problem = make_problem(c=[1.0], A=[[1.0]], senses=[LE], b=[1.0],
                           lower=[0.0], upper=[1.0], integrality=[False])
    text = format_mps(problem)
    assert "INTORG" not in text and "INTEND" not in text


def test_bounds_section_encodes_free_and_ranged_columns():
    text = format_mps(_tiny_problem())
    bounds = text[text.index("BOUNDS"):]
    assert " UP BND         C0000000" in bounds
    assert " FR BND         C0000001" in bounds


def test_rhs_skips_zero_entries():
    text = format_mps(_tiny_problem())
    rhs = text[text.index("RHS"):text.index("BOUNDS")]
    assert "R0000000" in rhs and "R0000002" in rhs
    assert "R0000001" not in rhs    # zero right-hand side


def test_format_is_deterministic_and_file_matches(tmp_path):
    problem = build(make_scenario(T=2, kinds=("ddgag", "esag")))
    text = format_mps(problem)
    assert text == format_mps(problem)
    path = tmp_path / "case.mps"
    write_mps(problem, str(path))
    assert path.read_text() == text
    assert text.endswith("ENDATA\n")


def test_bundled_export_counts(bundled_problem):
    text = format_mps(bundled_problem)
    lines = text.splitlines()
    row_lines = [l for l in lines if l.startswith((" L ", " G ", " E "))]
    assert len(row_lines) == len(bundled_problem.row_names)
    # 24 storage-mode binaries and the EV enable bit form integer runs
    assert text.count("'INTORG'") == text.count("'INTEND'")
    assert text.count("'INTORG'") >= 1


def test_bundled_export_bytes_are_pinned(bundled_problem):
    text = format_mps(bundled_problem)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ccd219aec1592e354d0cb0faac894c99be7a346ae495956405796437143b5e52")
