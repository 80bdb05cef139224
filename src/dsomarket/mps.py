"""Fixed-format MPS export for cross-checking against external solvers.

Naming scheme (deterministic): the objective row is ``COST``, constraint
rows are ``R`` followed by the 7-digit row index in build order, and
columns are ``C`` followed by the 7-digit column index in registry order.
Binary columns are wrapped in ``INTORG``/``INTEND`` markers.  Every column
appears in COLUMNS: one with no cost and no matrix entry gets ``COST 0``,
because readers drop or reorder a column they never see.

The text is built as bytes, never as a Python string per token.  Every
name is an 8-byte record, spelled from digit arrays; each distinct number
(bit pattern) is formatted once into a table of right-aligned records.
A section is one (lines x line width) byte array, filled a field at a time
from those records, from which one boolean compaction drops the bytes a
line does not use.  ``write_mps`` writes the file in binary and streams
COLUMNS and BOUNDS in ``BLOCK``-column chunks.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .formulation import EQ, GE, MilpProblem

_SENSE = np.array([b" L  ", b" G  ", b" E  "], "S4")           # LE, GE, EQ
_BOUND = np.array([f" {k} BND         " for k in ("FR", "MI", "LO", "UP")],
                  "S16")
BLOCK = 1024    # columns per COLUMNS or BOUNDS chunk


def write_mps(problem: MilpProblem, path: str, name: str = "DSOMILP") -> None:
    """Write the problem as MPS; ValueError, before the file is opened, for
    a row sense other than LE, GE or EQ."""
    problem.check_senses()
    with open(path, "wb") as fh:
        fh.writelines(_chunks(problem, name))


def _lines(*fields, cuts=()) -> list[np.ndarray]:
    """The bytes of one line per record, split before each line in
    ``cuts``: the fields side by side, then a newline.  A field is ``bytes``
    (the same on every line), an array of fixed-width records (one per
    line), or a pair of either and how many of its leading bytes each line
    drops."""
    fields = [f if isinstance(f, tuple) else (f, None) for f in fields]
    count = next(len(f) for f, _ in fields if isinstance(f, np.ndarray))
    widths = [len(f) if isinstance(f, bytes) else f.itemsize
              for f, _ in fields]
    buf = np.full((count, sum(widths) + 1), ord(" "), np.uint8)
    buf[:, -1] = ord("\n")
    keep, size = None, np.full(count, buf.shape[1])
    at = 0
    for (field, skip), width in zip(fields, widths):
        span = slice(at, at + width)
        at += width
        if isinstance(field, bytes):
            if field.strip():
                buf[:, span] = np.frombuffer(field, np.uint8)
        else:
            buf[:, span].view(field.dtype)[:, 0] = field
        short = () if skip is None else np.flatnonzero(skip)
        if len(short):
            if keep is None:
                keep = np.ones(buf.shape, bool)
            # row s of `kept` drops the first s bytes of the field
            kept = np.arange(width) >= np.arange(width + 1)[:, None]
            keep[short, span] = kept[skip[short]]
            size -= skip
    data = buf.ravel() if keep is None else buf[keep]
    starts = np.cumsum(size) - size
    at = [0, *starts[np.asarray(cuts, np.intp)].tolist(), len(data)]
    return [data[a:b] for a, b in zip(at, at[1:])]


def _numbers(*arrays: np.ndarray):
    """The number table of ``arrays``, as a function from numbers drawn
    from them to their field (:func:`_lines`): each number's
    ``"  %15.12g"`` text, right-aligned in records as wide as the widest
    text, and the blank leading bytes to drop, or the whole record where
    ``absent``.  Each distinct bit pattern is formatted once (so -0.0 stays
    "-0")."""
    bits = np.sort(np.concatenate(arrays).view(np.int64))
    distinct = bits[np.diff(bits, prepend=bits[:1] + 1) != 0]   # run heads
    texts = [f"  {x:>15.12g}" for x in distinct.view(np.float64).tolist()]
    width = max(map(len, texts), default=17)
    table = np.array([t.rjust(width) for t in texts], f"S{width}")
    blank = width - np.array([len(t) for t in texts], dtype=np.intp)

    def field(x: np.ndarray, absent=False) -> tuple[np.ndarray, np.ndarray]:
        code = np.searchsorted(distinct, x.view(np.int64))
        return table[code], np.where(absent, width, blank[code])
    return field


def _names(prefix: str, count: int) -> np.ndarray:
    """``prefix`` and the 7-digit index of each of ``count`` names, as
    8-byte records."""
    if count > 10 ** 7:
        raise ValueError(f"{count} names do not fit 7 digits")
    quads = (np.arange(10 ** 4)[:, None] // [1000, 100, 10, 1] % 10
             + ord("0")).astype(np.uint8).view("S4")[:, 0]
    index = np.arange(count)
    chars = np.empty((count, 8), np.uint8)
    chars[:, :4].view("S4")[:, 0] = quads[index // 10 ** 4]
    chars[:, 4:].view("S4")[:, 0] = quads[index % 10 ** 4]
    chars[:, 0] = ord(prefix)    # over the first quad's leading "0"
    return chars.view("S8").ravel()


def _marker(k: int) -> bytes:
    """Marker ``k``: integer runs open at even ``k`` and close at odd."""
    kind = "'INTEND'" if k % 2 else "'INTORG'"
    return f"    MARKER{k:04d}  'MARKER'                 {kind}\n".encode()


def _chunks(problem: MilpProblem, name: str) -> Iterator[bytes | np.ndarray]:
    m, n = problem.A.shape
    rows = np.append(_names("R", m), np.array(b"COST    ", "S8"))
    cols = _names("C", n)
    yield f"NAME          {name}\nROWS\n N  COST\n".encode()
    sense = problem.sense
    yield from _lines(_SENSE[(sense == GE) + 2 * (sense == EQ)], rows[:m])

    indptr, indices, data = problem.A.csc()
    numbers = _numbers(problem.objective, data, problem.rhs, problem.lower,
                       problem.upper)

    # per column: the objective if nonzero or alone, then the matrix
    # entries, two to a line; a MARKER line precedes each integrality flip
    nnz = np.diff(indptr)
    costed = (problem.objective != 0.0) | (nnz == 0)
    flips = np.flatnonzero(np.diff(problem.integrality, prepend=False))
    yield b"COLUMNS\n"
    for j0 in range(0, n, BLOCK):
        j1 = min(j0 + BLOCK, n)
        count = nnz[j0:j1] + costed[j0:j1]
        col = np.repeat(np.arange(j0, j1), count)
        pos = np.arange(len(col)) - (np.cumsum(count) - count)[col - j0]
        in_matrix = pos >= costed[col]
        row = np.full(len(col), m)
        row[in_matrix] = indices[indptr[j0]:indptr[j1]]
        value = problem.objective[col]
        value[in_matrix] = data[indptr[j0]:indptr[j1]]
        e1 = np.flatnonzero(pos % 2 == 0)
        one = pos[e1] + 1 == count[col[e1] - j0]
        e2 = e1 + ~one
        k0, k1 = np.searchsorted(flips, (j0, j1))
        parts = _lines(b"    ", cols[col[e1]], b"    ", rows[row[e1]],
                       numbers(value[e1]), (b"  ", 2 * one),
                       (rows[row[e2]], 8 * one), numbers(value[e2], one),
                       cuts=np.searchsorted(col[e1], flips[k0:k1]))
        yield parts[0]
        for k, part in zip(range(k0, k1), parts[1:]):
            yield _marker(k)
            yield part
    if len(flips) % 2:    # the last column is integral
        yield _marker(len(flips))

    nz = np.flatnonzero(problem.rhs != 0.0)
    yield b"RHS\n"
    yield from _lines(b"    RHS         ", rows[nz], numbers(problem.rhs[nz]))

    # per column: FR, MI or LO (a nonzero finite lower bound), then UP
    yield b"BOUNDS\n"
    for j0 in range(0, n, BLOCK):
        lo = problem.lower[j0:j0 + BLOCK]
        hi = problem.upper[j0:j0 + BLOCK]
        lo_fin, hi_fin = np.isfinite(lo), np.isfinite(hi)
        keep = np.column_stack([~lo_fin | (lo != 0.0), hi_fin]).ravel()
        kind = np.column_stack([np.where(lo_fin, 2, hi_fin),
                                np.full(len(lo), 3)]).ravel()[keep]
        yield from _lines(_BOUND[kind], cols[j0:j0 + BLOCK].repeat(2)[keep],
                          numbers(np.column_stack([lo, hi]).ravel()[keep],
                                  kind < 2))
    yield b"ENDATA\n"
