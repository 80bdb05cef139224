"""Fixed-format MPS export for cross-checking against external solvers.

Naming scheme (deterministic): the objective row is ``COST``, constraint
rows are ``R`` followed by the 7-digit row index in build order, and
columns are ``C`` followed by the 7-digit column index in registry order.
Binary columns are wrapped in ``INTORG``/``INTEND`` markers.  Every column
appears in COLUMNS: one with no cost and no matrix entry gets ``COST 0``,
because readers drop or reorder a column they never see.

Each section is an array of tokens joined at once, each distinct number is
formatted once, names are spelled from digit arrays, and ``write_mps``
streams COLUMNS in ``BLOCK``-column chunks.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .formulation import EQ, GE, LE, MilpProblem

_SENSE = {LE: " L  ", GE: " G  ", EQ: " E  "}
_BOUND = np.array([f" {k} BND         " for k in ("FR", "MI", "LO", "UP")],
                  dtype=object)
BLOCK = 1024    # columns per COLUMNS chunk


def write_mps(problem: MilpProblem, path: str, name: str = "DSOMILP") -> None:
    """Write the problem as MPS; ValueError, before the file is opened, for
    a row sense other than LE, GE or EQ."""
    problem.check_senses()
    with open(path, "w", newline="\n") as fh:
        fh.writelines(_chunks(problem, name))


def _join(*fields) -> str:
    """Lines whose k-th token is ``fields[k]``: per line, or one string."""
    size = next(len(f) for f in fields if not isinstance(f, str))
    tokens = np.empty((size, len(fields)), dtype=object)
    for k, field in enumerate(fields):
        tokens[:, k] = field
    return "".join(tokens.ravel().tolist())


def _texts(*arrays: np.ndarray) -> list[np.ndarray]:
    """The ``"  %15.12g"`` text of every number in ``arrays``, split like
    them; each distinct bit pattern is formatted once (-0.0 stays "-0")."""
    numbers = np.concatenate(arrays).astype(np.float64)
    bits, inverse = np.unique(numbers.view(np.int64), return_inverse=True)
    text = np.array([f"  {x:>15.12g}" for x in bits.view(np.float64)], object)
    return np.split(text[inverse], np.cumsum([len(a) for a in arrays[:-1]]))


def _names(prefix: str, count: int) -> np.ndarray:
    """``prefix`` and the 7-digit index of each of ``count`` names."""
    if count > 10 ** 7:
        raise ValueError(f"{count} names do not fit 7 digits")
    digits = np.arange(count, dtype=np.uint32)[:, None] // 10 ** np.arange(
        6, -1, -1, dtype=np.uint32) % 10 + ord("0")
    chars = np.column_stack([np.full(count, ord(prefix), np.uint32), digits])
    return chars.view("U8").ravel().astype(object)


def _marker(k: int) -> str:
    """Marker ``k``: integer runs open at even ``k`` and close at odd."""
    kind = "'INTEND'" if k % 2 else "'INTORG'"
    return f"    MARKER{k:04d}  'MARKER'                 {kind}\n"


def _chunks(problem: MilpProblem, name: str) -> Iterator[str]:
    m, n = problem.A.shape
    rows = np.append(_names("R", m), "COST    ")
    cols = _names("C", n)
    yield f"NAME          {name}\nROWS\n N  COST\n"
    yield _join([_SENSE[s] for s in problem.sense.tolist()], rows[:m], "\n")

    # per column: the objective if nonzero or alone, then the matrix entries
    indptr, indices, data = problem.A.csc()
    nnz = np.diff(indptr)
    lo, hi = problem.lower, problem.upper
    num_cost, num_a, num_rhs, num_lo, num_hi = _texts(
        problem.objective, data, problem.rhs, lo, hi)
    costed = (problem.objective != 0.0) | (nnz == 0)
    start = np.concatenate(([0], np.cumsum(nnz + costed)))
    col = np.repeat(np.arange(n), nnz + costed)
    pos = np.arange(start[-1]) - start[col]
    in_matrix = pos >= costed[col]
    row = np.full(start[-1], m)
    row[in_matrix] = indices
    num = num_cost[col]
    num[in_matrix] = num_a

    # two entries a line; a MARKER line precedes each integrality flip
    lead = np.where(pos % 2 == 0, ("    " + cols + "    ")[col], "  ")
    tail = np.full(start[-1], "", dtype=object)
    tail[(pos % 2 == 1) | (pos + 1 == (nnz + costed)[col])] = "\n"
    flips = np.flatnonzero(np.diff(problem.integrality, prepend=False))
    marks = np.array([_marker(k) for k in range(len(flips))], object)
    lead[start[flips]] = marks + lead[start[flips]]
    yield "COLUMNS\n"
    for j0 in range(0, n, BLOCK):
        e = slice(start[j0], start[min(j0 + BLOCK, n)])
        yield _join(lead[e], rows[row[e]], num[e], tail[e])
    if len(flips) % 2:    # the last column is integral
        yield _marker(len(flips))

    nz = np.flatnonzero(problem.rhs != 0.0)
    yield "RHS\n" + _join("    RHS         ", rows[nz], num_rhs[nz], "\n")

    # per column: FR, MI or LO (a nonzero finite lower bound), then UP
    lo_fin, hi_fin = np.isfinite(lo), np.isfinite(hi)
    keep = np.column_stack([~lo_fin | (lo != 0.0), hi_fin]).ravel()
    kind = np.column_stack([np.where(lo_fin, 2, hi_fin), np.full(n, 3)])
    bound = np.column_stack([np.where(lo_fin, num_lo, ""), num_hi])
    yield "BOUNDS\n" + _join(_BOUND[kind.ravel()[keep]], cols.repeat(2)[keep],
                             bound.ravel()[keep], "\n")
    yield "ENDATA\n"
