"""The numpy CSR matrix against scipy.sparse: the matrix and row bounds
HiGHS is loaded with (``A`` by columns, rows in build order), the same
CSC arrays the MPS writer reads, the benchmark's ``relaxation_arrays``
view and ``A @ x``, bit for bit, on the bundled case, ladder rungs 2, 4
and 8 and small random problems with explicit zeros, -0.0, empty rows
and columns and empty row blocks."""

import types
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from conftest import ladder_rung
from oracles import make_problem, scipy_csr
from dsomarket.casestudy import bundled_case_study
from dsomarket.csr import Csr
from dsomarket.formulation import EQ, GE, LE, Constraints, build
from dsomarket.solver import HighsLp, SolveOptions, solve_milp


@cache
def _problem(name: str):
    if name == "bundled":
        return build(bundled_case_study())
    return build(ladder_rung(int(name.removeprefix("rung "))))


CASES = ["bundled", "rung 2", "rung 4", "rung 8"]


def _scipy_model_rows(problem):
    """The rows HiGHS is to be loaded with, by scipy: ``A`` in build order
    by ``tocsc()``, as passModel takes it, between bounds read off each
    row's sense.  Checks on the way that ``relaxation_arrays`` holds the
    <= rows and the negated >= rows over the == rows."""
    A = scipy_csr(problem.A)
    sign = np.where(problem.sense == GE, -1.0, 1.0)
    eq = problem.sense == EQ
    blocks = []
    for keep in (~eq, eq):
        rows = A[keep]
        rows.data *= np.repeat(sign[keep], np.diff(rows.indptr))
        blocks.append(rows if keep.any() else None)
    b_ub, b_eq = (sign * problem.rhs)[~eq], problem.rhs[eq]
    for mine, theirs in zip(problem.relaxation_arrays, (blocks[0], b_ub,
                                                        blocks[1], b_eq)):
        _assert_same(mine, theirs)
    by_columns = A.tocsc()
    lower, upper = problem.rhs.copy(), problem.rhs.copy()
    lower[problem.sense == LE] = -np.inf
    upper[problem.sense == GE] = np.inf
    return (problem.num_cols, by_columns.shape[0], by_columns.nnz,
            lower, upper, by_columns.indptr.astype(np.int32),
            by_columns.indices.astype(np.int32),
            by_columns.data.astype(float))


def _assert_same(mine, theirs):
    """Equal dtype, shape and bytes; for matrices, of each CSR array."""
    if theirs is None or mine is None:
        assert mine is None and theirs is None
    elif sparse.issparse(theirs):
        assert mine.shape == theirs.shape
        for name in ("indptr", "indices", "data"):
            _assert_same(getattr(mine, name), getattr(theirs, name))
    else:
        a, b = np.asarray(mine), np.asarray(theirs)
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


class _Loaded(Exception):
    """Stops a solve at its passModel call, with the call's arguments."""


def _passmodel_args(problem, monkeypatch):
    """The arguments ``solve_milp`` hands HiGHS's passModel."""
    class Recorder:
        def __init__(self):
            self._highs = real._Highs()

        def __getattr__(self, name):
            return getattr(self._highs, name)

        def passModel(self, *args):
            raise _Loaded(args)

    real = HighsLp._core
    monkeypatch.setattr(HighsLp, "_core",
                        types.SimpleNamespace(_Highs=Recorder))
    with pytest.raises(_Loaded) as loaded:
        solve_milp(problem, SolveOptions(max_nodes=1))
    return loaded.value.args[0]


def _check(problem, xs, monkeypatch):
    args = _passmodel_args(problem, monkeypatch)
    n, m, nnz = problem.num_cols, len(problem.rhs), len(problem.A.data)
    assert args[:6] == (n, m, nnz, 1, 1, 0.0)
    for mine, theirs in zip(args[6:9], (problem.objective, problem.lower,
                                        problem.upper)):
        _assert_same(mine, theirs)
    _assert_same(args[14], np.zeros(n, dtype=np.int32))
    expected = _scipy_model_rows(problem)
    assert args[:3] == expected[:3]
    for mine, theirs in zip(args[9:14], expected[3:]):
        _assert_same(mine, theirs)
    # the CSC arrays the MPS writer reads
    for mine, theirs in zip(problem.A.csc(), (lambda A: (
            A.indptr, A.indices, A.data))(scipy_csr(problem.A).tocsc())):
        _assert_same(mine, theirs)
    # A @ x and the row residuals, with scipy's CSR product
    for x in xs:
        _assert_same(problem.A @ x, scipy_csr(problem.A) @ x)
        excess = scipy_csr(problem.A) @ x - problem.rhs
        excess = np.where(problem.sense == GE, -excess, excess)
        _assert_same(problem.row_residuals(x),
                     np.where(problem.sense == EQ, np.abs(excess),
                              np.maximum(excess, 0.0)))


@pytest.mark.parametrize("case", CASES)
def test_scenario_rows_match_scipy(case, monkeypatch):
    problem = _problem(case)
    rng = np.random.default_rng(20261019)
    n = problem.num_cols
    # magnitudes from 1e-8 to 1e8, so that the order of summation shows
    spread = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
    spread[rng.random(n) < 0.1] = -0.0
    _check(problem, [spread, np.zeros(n), np.full(n, -0.0),
                     problem.upper.clip(-1e3, 1e3)], monkeypatch)


_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.25, 1 / 3, 3e7,
                           -1e-7])
_X = st.sampled_from([0.0, -0.0, 1.0, -3.0, 0.1, 1e16, -1e16, 7e-9])


@st.composite
def _problems(draw):
    """Small problems whose entries include explicit zeros and -0.0, with
    empty rows and columns, and with every row in one block at times."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(1, 6))
    present = draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n))
    values = draw(st.lists(_VALUES, min_size=m * n, max_size=m * n))
    at = np.flatnonzero(present)
    row, col = np.divmod(at, n)
    data = np.array(values, dtype=float)[at]
    problem = make_problem(
        c=draw(st.lists(_VALUES, min_size=n, max_size=n)),
        A=sparse.csr_matrix((data, (row, col)), shape=(m, n)),
        senses=draw(st.lists(st.sampled_from([LE, GE, EQ]), min_size=m,
                             max_size=m)),
        b=draw(st.lists(_VALUES, min_size=m, max_size=m)),
        lower=[-5.0] * n, upper=[5.0] * n, integrality=[False] * n)
    xs = draw(st.lists(st.lists(_X, min_size=n, max_size=n), min_size=1,
                       max_size=3))
    return problem, [np.array(x) for x in xs]


def _dense(rows, senses):
    problem = make_problem(
        c=[1.0] * len(rows[0]), A=rows, senses=senses, b=[1.0] * len(rows),
        lower=[-5.0] * len(rows[0]), upper=[5.0] * len(rows[0]),
        integrality=[False] * len(rows[0]))
    return problem, [np.array([1e16, 1.0, -1e16, -0.0][:len(rows[0])])]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_problems())
@example(case=_dense([[1.0, 0.0, -0.0], [0.0, 0.0, 0.0]], [EQ, EQ]))
@example(case=_dense([[1.0, -0.0, 2.0], [-1.0, 0.0, 3.0]], [LE, GE]))
@example(case=_dense([[1.0, 1.0, 1.0, 1.0]] * 3, [GE, EQ, LE]))
def test_random_rows_match_scipy(case):
    problem, xs = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check(problem, xs, monkeypatch)


def test_duplicate_entries_are_refused():
    with pytest.raises(ValueError, match="row 1, column 2"):
        Csr.from_entries([0, 1, 1], [2, 2, 2], [1.0, 2.0, 3.0], (2, 3))
    rows = Constraints()
    at = rows.reserve([("twice",)])
    rows.add(at, LE, 1.0, ([0], [1.0]), ([0], [2.0]))
    with pytest.raises(ValueError, match="row 0, column 0"):
        rows.assemble(1)


def test_long_rows_sum_in_entry_order():
    # 1e16 + 1 + 1 + ... rounds each 1 away in order; a pairwise sum
    # would keep some of them
    data = np.array([1e16] + [1.0] * 40)
    A = Csr.from_entries(np.zeros(41, int), np.arange(41), data, (1, 41))
    assert (A @ np.ones(41))[0] == 1e16
    assert (A @ np.ones(41))[0] == (scipy_csr(A) @ np.ones(41))[0]
