"""The constraint matrix as plain numpy arrays in compressed sparse row
(CSR) form, and the few operations the package runs on it.

:class:`Csr` holds the arrays scipy's ``csr_matrix`` holds (``indptr``,
``indices``, ``data`` and ``shape``), in the same dtypes, with each row's
entries in column order.  ``A @ x`` sums each row's products in entry
order, starting from 0.0, as scipy's CSR product does, so it gives the
same bits; :meth:`Csr.csc` gives the arrays of scipy's ``tocsc()``, which
HiGHS and the MPS writer read.  The package does not import scipy's
sparse module for them: that import alone loads numpy.testing,
numpy.f2py, numpy.ma and more, about half of every module that
``import dsomarket`` would load.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _offsets(counts) -> np.ndarray:
    """The int32 pointer array of consecutive runs of ``counts`` entries."""
    return np.concatenate(([0], np.cumsum(counts))).astype(np.int32)


@dataclass(frozen=True, eq=False)
class Csr:
    """An m x n sparse matrix: row i holds ``data[indptr[i]:indptr[i+1]]``
    at the columns ``indices[indptr[i]:indptr[i+1]]``."""

    indptr: np.ndarray       # int32, m + 1
    indices: np.ndarray      # int32, the column of each entry
    data: np.ndarray         # float64, the value of each entry
    shape: tuple[int, int]

    @classmethod
    def from_entries(cls, row, col, value, shape) -> Csr:
        """The matrix with ``value[k]`` at ``(row[k], col[k])``; each entry
        is kept, explicit zeros included.  Two entries at one position
        raise ValueError."""
        m, n = shape
        row = np.asarray(row)
        key = row.astype(np.int64) * n + col      # position in row-major order
        order = np.argsort(key, kind="stable")
        key = key[order]
        twin = np.flatnonzero(key[1:] == key[:-1])
        if twin.size:
            raise ValueError("two entries at row {}, column {}".format(
                *divmod(int(key[twin[0]]), n)))
        return cls(_offsets(np.bincount(row, minlength=m)),
                   np.asarray(col)[order].astype(np.int32),
                   np.asarray(value, dtype=np.float64)[order], (m, n))

    def rows(self, order, negate) -> Csr:
        """The rows ``order`` lists, in that order, each negated where
        ``negate`` is True."""
        counts = np.diff(self.indptr)[order]
        indptr = _offsets(counts)
        entries = np.repeat(self.indptr[order] - indptr[:-1], counts)
        entries += np.arange(indptr[-1], dtype=np.int32)
        data = self.data[entries]
        np.negative(data, out=data, where=np.repeat(negate[order], counts))
        return Csr(indptr, self.indices[entries], data,
                   (len(order), self.shape[1]))

    @cached_property
    def _by_position(self) -> tuple:
        """(row order, rows per step, data, columns): the entries in the
        order ``A @ x`` adds them.  Step k holds the k-th entry of every row
        longer than k, the rows longest first, so that each step's rows are
        a prefix of the row order."""
        lengths = np.diff(self.indptr)
        order = np.argsort(-lengths, kind="stable")
        steps = len(lengths) - np.cumsum(np.bincount(lengths, minlength=1))
        steps = steps[:-1]
        k = np.repeat(np.arange(len(steps)), steps)
        rank = np.arange(len(k)) - np.repeat(_offsets(steps)[:-1], steps)
        at = self.indptr[order][rank] + k
        return order, steps.tolist(), self.data[at], self.indices[at]

    def __matmul__(self, x) -> np.ndarray:
        """``A @ x``.  Each row adds its products to 0.0 one entry at a
        time, in entry order, as scipy's CSR product does."""
        order, steps, data, columns = self._by_position
        products = data * np.asarray(x, dtype=np.float64)[columns]
        sums = np.zeros(len(order))
        start = 0
        for rows in steps:
            sums[:rows] += products[start:start + rows]
            start += rows
        out = np.empty_like(sums)
        out[order] = sums
        return out

    def csc(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, data)`` of the same matrix by columns, each
        column's entries in row order: one stable sort on the column."""
        m, n = self.shape
        order = np.argsort(self.indices, kind="stable")
        rows = np.repeat(np.arange(m, dtype=np.int32), np.diff(self.indptr))
        return (_offsets(np.bincount(self.indices, minlength=n)),
                rows[order], self.data[order])
