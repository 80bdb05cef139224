"""MPS export: sections, naming scheme, integer markers, determinism,
agreement with the one-column-at-a-time reference formatter, and a
HiGHS read-back of the bundled case."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from conftest import make_scenario
from oracles import make_problem, reference_mps, scipy_csr
from dsomarket.formulation import EQ, GE, LE, build
from dsomarket.mps import BLOCK, format_mps, write_mps
from dsomarket.solver import highs_bindings


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


def _wide_problem(offset=0):
    """2,500 columns over 600 rows.  Every column has one to three entries
    (some of them explicit zeros), costs include zeros, the bounds cycle
    through every kind, and columns j with (j + offset) // 40 % 4 == 1
    are integral: with offset 0, one integer run spans column 1024."""
    n, m = 2500, 600
    coefs = [1.0, -0.5, 2.25, 0.0, -1e-3, 1e6 / 3, 7.0]
    entries = [((j + k * (1 + j % 7)) % m, j, coefs[(j + k) % len(coefs)])
               for j in range(n) for k in range(1 + j % 3)]
    rows, cols, data = zip(*entries)
    bounds = [(0.0, np.inf), (0.0, 1.0), (-np.inf, np.inf), (-np.inf, 5.0),
              (-2.5, 3.0), (1.5, np.inf)]
    lower, upper = zip(*(bounds[j % len(bounds)] for j in range(n)))
    j = np.arange(n)
    return make_problem(
        c=(j % 5 - 2) * 0.75,
        A=sparse.csr_matrix((data, (rows, cols)), shape=(m, n)),
        senses=[(LE, GE, EQ)[i % 3] for i in range(m)],
        b=(np.arange(m) % 4 - 1) * 1.5, lower=lower, upper=upper,
        integrality=(j + offset) // 40 % 4 == 1)


def test_wide_export_bytes_are_pinned():
    problem = _wide_problem()
    assert problem.num_cols > BLOCK
    text = format_mps(problem)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0262377d914b766a5ef972aadec3d5767a042872473f069553cc348146af87e3")


_NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.25, 1e-7, 1 / 3, -1e20]),
    st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def _problems(draw):
    """Small sparse problems: empty columns, explicit (also negative)
    zeros, every bound kind and any pattern of integer columns."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 9))
    rows, cols, data = [], [], []
    for j in range(n):
        for i, value in draw(st.lists(st.tuples(st.integers(0, m - 1),
                                                _NUMBERS),
                                      max_size=m, unique_by=lambda e: e[0])):
            rows.append(i)
            cols.append(j)
            data.append(value)
    return make_problem(
        c=draw(st.lists(_NUMBERS, min_size=n, max_size=n)),
        A=sparse.csr_matrix((data, (rows, cols)), shape=(m, n)),
        senses=draw(st.lists(st.sampled_from([LE, GE, EQ]),
                             min_size=m, max_size=m)),
        b=draw(st.lists(_NUMBERS, min_size=m, max_size=m)),
        lower=draw(st.lists(st.sampled_from([0.0, -0.0, -np.inf, -3.5, 2.0]),
                            min_size=n, max_size=n)),
        upper=draw(st.lists(st.sampled_from([np.inf, 1.0, 0.0, -0.0, 7.25]),
                            min_size=n, max_size=n)),
        integrality=draw(st.lists(st.booleans(), min_size=n, max_size=n)))


# integer runs at the first and last column and back to back, around
# empty columns (one of them binary) and odd and even entry counts
_RUNS = make_problem(
    c=[0.0, 2.0, 0.0, -1.5, 0.0, 0.0, 4.0],
    A=[[1.0, 0.0, 0.0, 0.0, 0.0, 3.0, 0.0],
       [0.0, 0.0, 0.0, 2.0, 0.0, -1.0, 0.0],
       [5.0, 1.0, 0.0, 0.0, 0.0, 0.5, 1.0]],
    senses=[LE, GE, EQ], b=[1.0, 0.0, -2.0],
    lower=[0.0, -np.inf, 0.0, -1.0, 0.0, -np.inf, 0.0],
    upper=[1.0, np.inf, 1.0, 1.0, np.inf, 3.0, 1.0],
    integrality=[True, True, False, True, True, False, True])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(problem=_problems())
@example(problem=_RUNS)
@example(problem=make_problem(c=[0.0, 0.0], A=sparse.csr_matrix((1, 2)),
                              senses=[EQ], b=[0.0], lower=[0.0, 0.0],
                              upper=[1.0, 1.0], integrality=[True, False]))
# a block boundary inside an integer run, and one where a run starts
@example(problem=_wide_problem(offset=(60 - BLOCK) % 160))
@example(problem=_wide_problem(offset=(40 - 2 * BLOCK) % 160))
def test_format_matches_reference(problem):
    assert format_mps(problem) == reference_mps(problem)


def _read_back(path):
    """The model HiGHS reads from an MPS file, and the HiGHS object."""
    highs = highs_bindings()._Highs()
    highs.setOptionValue("output_flag", False)
    assert highs.readModel(str(path)).name == "kOk"
    return highs, highs.getLp()


def _integral(lp):
    kinteger = highs_bindings().HighsVarType.kInteger
    return np.array([t == kinteger for t in lp.integrality_], dtype=bool)


def test_empty_binary_column_is_exported(tmp_path):
    """A column without cost or matrix entries still gets a COLUMNS line,
    so a reader keeps its position and its integrality."""
    problem = make_problem(
        c=[1.0, 0.0, -1.0],
        A=sparse.csr_matrix(([1.0, 2.0], ([0, 0], [0, 2])), shape=(1, 3)),
        senses=[LE], b=[4.0], lower=[0.0, 0.0, 0.0], upper=[5.0, 1.0, 5.0],
        integrality=[False, True, False])
    text = format_mps(problem)
    assert ("    MARKER0000  'MARKER'                 'INTORG'\n"
            f"    C0000001    {'COST':<10}{'0':>15}\n"
            "    MARKER0001  'MARKER'                 'INTEND'\n") in text
    path = tmp_path / "empty.mps"
    write_mps(problem, str(path))
    _, lp = _read_back(path)
    assert list(lp.col_cost_) == [1.0, 0.0, -1.0]
    assert list(lp.col_upper_) == [5.0, 1.0, 5.0]
    assert _integral(lp).tolist() == [False, True, False]


def test_bundled_export_reads_back_in_highs(tmp_path, bundled_problem,
                                            bundled_solution):
    problem = bundled_problem
    path = tmp_path / "bundled.mps"
    write_mps(problem, str(path))
    highs, lp = _read_back(path)
    exact = dict(rtol=1e-12, atol=0)
    np.testing.assert_allclose(lp.col_cost_, problem.objective, **exact)
    assert np.array_equal(lp.col_lower_, problem.lower)
    assert np.array_equal(lp.col_upper_, problem.upper)
    assert np.array_equal(_integral(lp), problem.integrality)
    matrix = lp.a_matrix_
    A = sparse.csc_matrix((matrix.value_, matrix.index_, matrix.start_),
                          shape=(lp.num_row_, lp.num_col_))
    np.testing.assert_allclose(A.toarray(), scipy_csr(problem.A).toarray(),
                               **exact)
    np.testing.assert_allclose(
        lp.row_lower_, np.where(problem.sense == LE, -np.inf, problem.rhs),
        **exact)
    np.testing.assert_allclose(
        lp.row_upper_, np.where(problem.sense == GE, np.inf, problem.rhs),
        **exact)
    highs.setOptionValue("mip_rel_gap", 1e-9)
    highs.run()
    assert highs.getModelStatus().name == "kOptimal"
    assert highs.getInfo().objective_function_value == pytest.approx(
        bundled_solution.objective, rel=1e-6)
