"""Minimal compressed-sparse-column matrices for the optimization stack.

The placement LPs lowered from the paper's models are >95% zeros, so the
solver stack stores constraint matrices in CSC form: ``indptr`` (length
``n_cols + 1``), ``indices`` (row index of every stored entry, sorted within
each column) and ``data`` (the values).  The class below implements exactly
the kernel set the sparse revised simplex and the backends need -- column
gather, ``A @ x`` / ``A.T @ y`` products as whole-array numpy operations,
``A.T @ y`` over a column range (partial pricing) and over the columns a
sparse ``y``'s nonzero rows touch (the dual simplex's pivot row),
in-place entry updates for :class:`repro.optim.backend.SolverSession` (one
entry, or one row's entries over many columns at once), and
conversions to dense numpy / SciPy sparse for interop -- without depending
on SciPy itself (the in-house solvers must run on a numpy-only install).

Explicit zeros are *kept*: an entry stored with value ``0.0`` stays part of
the pattern, which is what lets a session patch a coefficient that happens
to be zero in the current data (e.g. a zero-volume route) without a
structural rebuild.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

import numpy as np

__all__ = ["SparseMatrix"]


class SparseMatrix:
    """A CSC matrix over float64 data with a grow-by-columns escape hatch.

    Construct through :meth:`from_coo` / :meth:`from_dense`; the raw
    constructor trusts its arguments (sorted row indices per column, no
    duplicates).  The row count is immutable; the column dimension can only
    grow, in place, through :meth:`append_columns` (for the column-generation
    restricted master), which invalidates the lazy matvec caches, so kernels
    stay correct across appends.
    """

    __slots__ = ("shape", "indptr", "indices", "data", "_col_ids", "_rmv_cache", "_row_index")

    def __init__(
        self,
        shape: Tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=float)
        self._col_ids: Optional[np.ndarray] = None  # lazy, for matvec
        self._rmv_cache = None  # lazy (nonempty cols, segment starts), for rmatvec
        # lazy structure-only row index (row pointer, entries per row, column
        # of each entry in row-major order), for rmatvec_rows; data patches
        # leave it valid
        self._row_index: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_coo(
        cls,
        rows: Sequence[int],
        cols: Sequence[int],
        vals: Sequence[float],
        shape: Tuple[int, int],
    ) -> "SparseMatrix":
        """Build from triplets; duplicate (row, col) entries are summed."""
        n_rows, n_cols = shape
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        if rows.size:
            # Sort by (col, row), then merge duplicates with a segment sum.
            order = np.lexsort((rows, cols))
            rows, cols, vals = rows[order], cols[order], vals[order]
            new_seg = np.empty(rows.size, dtype=bool)
            new_seg[0] = True
            new_seg[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            starts = np.flatnonzero(new_seg)
            vals = np.add.reduceat(vals, starts)
            rows, cols = rows[starts], cols[starts]
        counts = np.bincount(cols, minlength=n_cols)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        return cls((n_rows, n_cols), indptr, rows, vals)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SparseMatrix":
        """Build from a dense array, keeping only its nonzeros."""
        dense = np.asarray(dense, dtype=float)
        rows, cols = np.nonzero(dense)
        return cls.from_coo(rows, cols, dense[rows, cols], dense.shape)

    @classmethod
    def zeros(cls, shape: Tuple[int, int]) -> "SparseMatrix":
        """An all-zero matrix of the given shape."""
        return cls(shape, np.zeros(shape[1] + 1, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))

    # -- ndarray-compatible introspection ---------------------------------
    @property
    def size(self) -> int:
        """Total number of cells (dense semantics, mirrors ``ndarray.size``)."""
        return self.shape[0] * self.shape[1]

    @property
    def nnz(self) -> int:
        """Number of stored entries (explicit zeros included)."""
        return int(self.data.size)

    # -- kernels -----------------------------------------------------------
    def col(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """Row indices and values of column ``j`` (views, do not mutate)."""
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def gather_col(self, j: int, out: np.ndarray) -> np.ndarray:
        """Scatter column ``j`` into the pre-zeroed dense vector ``out``."""
        idx, val = self.col(j)
        out[idx] = val
        return out

    def _column_ids(self) -> np.ndarray:
        if self._col_ids is None or self._col_ids.size != self.indices.size:
            self._col_ids = np.repeat(
                np.arange(self.shape[1], dtype=np.int64), np.diff(self.indptr)
            )
        return self._col_ids

    def col_ids(self) -> np.ndarray:
        """Column index of every stored entry (parallel to ``indices``/``data``)."""
        return self._column_ids()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Dense ``A @ x`` (bincount-based scatter-add)."""
        if not self.data.size:
            return np.zeros(self.shape[0])
        return np.bincount(
            self.indices, weights=self.data * x[self._column_ids()], minlength=self.shape[0]
        )

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Dense ``A.T @ y`` via a per-column segment sum (vectorized)."""
        out = np.zeros(self.shape[1])
        if self.data.size:
            if self._rmv_cache is None:
                nonempty = np.flatnonzero(np.diff(self.indptr) > 0)
                # reduceat over only the non-empty column starts: consecutive
                # starts then delimit exactly one column's entries each (empty
                # columns contribute no data in between).
                self._rmv_cache = (nonempty, self.indptr[nonempty])
            nonempty, starts = self._rmv_cache
            prods = self.data * y[self.indices]
            out[nonempty] = np.add.reduceat(prods, starts)
        return out

    def rmatvec_range(self, lo: int, hi: int, y: np.ndarray) -> np.ndarray:
        """``A[:, lo:hi].T @ y`` as a dense length-``hi - lo`` vector.

        The partial-pricing kernel: a block scan prices only the columns in
        ``[lo, hi)``, so the segment sum touches only that slice of the CSC
        data instead of every stored entry.
        """
        out = np.zeros(hi - lo)
        start, end = int(self.indptr[lo]), int(self.indptr[hi])
        if end > start:
            counts = np.diff(self.indptr[lo : hi + 1])
            nonempty = np.flatnonzero(counts > 0)
            prods = self.data[start:end] * y[self.indices[start:end]]
            out[nonempty] = np.add.reduceat(prods, self.indptr[lo + nonempty] - start)
        return out

    def rmatvec_rows(
        self, y: np.ndarray, max_entries: int
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``A.T @ y`` on the columns that ``y``'s nonzero rows touch.

        Returns ``(cols, vals)``: the ascending indices of the columns with
        a stored entry (explicit zeros included) in a row where ``y`` is
        nonzero, and ``(A.T @ y)[cols]``.  Every other column's product is
        zero.  Each column is summed over its whole stored segment in the
        same order as :meth:`rmatvec`, so ``vals`` is bit-identical to it.
        Returns None when those rows hold more than ``max_entries`` stored
        entries, where :meth:`rmatvec` is the cheaper kernel.
        """
        if self._row_index is None:
            # Stable: entries are column-major, so each row keeps its columns
            # in ascending order.
            order = np.argsort(self.indices, kind="stable")
            row_counts = np.bincount(self.indices, minlength=self.shape[0])
            self._row_index = (
                np.concatenate(([0], np.cumsum(row_counts))),
                row_counts,
                self._column_ids()[order],
            )
        row_ptr, row_counts, row_cols = self._row_index
        rows = np.flatnonzero(y)  # NaN counts as nonzero and propagates
        counts = row_counts[rows]
        total = int(counts.sum())
        if total > max_entries:
            return None
        cols = np.unique(row_cols[_segments(row_ptr[rows], counts, total)])
        col_starts = self.indptr[cols]
        lens = self.indptr[cols + 1] - col_starts
        pos = _segments(col_starts, lens, int(lens.sum()))
        prods = self.data[pos] * y[self.indices[pos]]
        return cols, np.add.reduceat(prods, np.cumsum(lens) - lens)

    # -- updates -----------------------------------------------------------
    def get(self, row: int, col: int) -> float:
        """Single-entry lookup (zero when the position is not stored)."""
        lo, hi = self.indptr[col], self.indptr[col + 1]
        pos = np.searchsorted(self.indices[lo:hi], row)
        if pos < hi - lo and self.indices[lo + pos] == row:
            return float(self.data[lo + pos])
        return 0.0

    def set(self, row: int, col: int, value: float) -> bool:
        """Set entry ``(row, col)``; returns True when the pattern grew.

        Updating an existing entry (explicit zeros included) is O(log nnz);
        inserting a brand-new entry is O(nnz) and reported to the caller so
        dependent structures (e.g. a canonicalized solver) can rebuild.
        """
        if not (0 <= row < self.shape[0] and 0 <= col < self.shape[1]):
            raise IndexError(f"index ({row}, {col}) out of range for shape {self.shape}")
        lo, hi = int(self.indptr[col]), int(self.indptr[col + 1])
        pos = lo + int(np.searchsorted(self.indices[lo:hi], row))
        if pos < hi and self.indices[pos] == row:
            self.data[pos] = float(value)
            return False
        self.indices = np.insert(self.indices, pos, row)
        self.data = np.insert(self.data, pos, float(value))
        self.indptr = self.indptr.copy()
        self.indptr[col + 1 :] += 1
        self._col_ids = None
        self._rmv_cache = None
        self._row_index = None
        return True

    def set_row(self, row: int, cols: np.ndarray, values: np.ndarray) -> bool:
        """Set entries ``(row, cols[k])`` to ``values[k]``; True when the pattern grew.

        One vectorized search over the pattern's ``(column, row)`` keys,
        which the CSC order keeps sorted, finds the stored entries, and they
        are written in place; :meth:`set` then inserts each entry the
        pattern lacks.  The result equals one :meth:`set` call per entry in
        order.  An index out of range raises before anything is written.
        """
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=float)
        m = self.shape[0]
        if cols.size and not (0 <= row < m and 0 <= cols.min() and cols.max() < self.shape[1]):
            raise IndexError(f"row {row} or a column out of range for shape {self.shape}")
        keys = self._column_ids() * m + self.indices
        targets = cols * m + row
        pos = np.minimum(np.searchsorted(keys, targets), max(keys.size - 1, 0))
        stored = keys[pos] == targets if keys.size else np.zeros(cols.size, dtype=bool)
        self.data[pos[stored]] = values[stored]
        if stored.all():
            return False
        grew = False
        for k in np.flatnonzero(~stored):
            grew |= self.set(row, int(cols[k]), float(values[k]))
        return grew

    def append_columns(self, block: "SparseMatrix") -> None:
        """Append ``block``'s columns to this matrix in place.

        The column-generation master admits priced-in columns round after
        round; this widens the stored pattern in O(nnz-of-block + n_cols)
        without touching the existing entries, and invalidates the lazy
        matvec caches so subsequent kernels see the new columns.
        """
        if block.shape[0] != self.shape[0]:
            raise ValueError(
                f"row mismatch in append: {self.shape[0]} vs {block.shape[0]}"
            )
        self.indptr = np.concatenate((self.indptr, block.indptr[1:] + self.nnz))
        self.indices = np.concatenate((self.indices, block.indices))
        self.data = np.concatenate((self.data, block.data))
        self.shape = (self.shape[0], self.shape[1] + block.shape[1])
        self._col_ids = None
        self._rmv_cache = None
        self._row_index = None

    def take_columns(self, cols: Sequence[int]) -> "SparseMatrix":
        """Gather ``A[:, cols]`` (in the given order) as a new matrix."""
        sel = np.asarray(cols, dtype=np.int64)
        counts = self.indptr[sel + 1] - self.indptr[sel]
        indptr = np.concatenate(([0], np.cumsum(counts)))
        pos = _segments(self.indptr[sel], counts, int(indptr[-1]))
        return SparseMatrix(
            (self.shape[0], sel.size), indptr, self.indices[pos], self.data[pos]
        )

    def __setitem__(self, key: Tuple[int, int], value: float) -> None:
        self.set(int(key[0]), int(key[1]), float(value))

    def __getitem__(self, key: Tuple[int, int]) -> float:
        return self.get(int(key[0]), int(key[1]))

    # -- conversions -------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Densify (sanctioned sites only -- see lint rule SOLV001)."""
        out = np.zeros(self.shape)
        if self.data.size:
            out[self.indices, self._column_ids()] = self.data
        return out

    def to_scipy(self) -> Any:
        """Return a ``scipy.sparse.csc_matrix`` view of this matrix."""
        from scipy.sparse import csc_matrix

        return csc_matrix(
            (self.data, self.indices, self.indptr), shape=self.shape
        )

    def copy(self) -> "SparseMatrix":
        """A deep copy with freshly-owned index and data arrays."""
        return SparseMatrix(
            self.shape, self.indptr.copy(), self.indices.copy(), self.data.copy()
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SparseMatrix(shape={self.shape}, nnz={self.nnz})"


def _segments(starts: np.ndarray, counts: np.ndarray, total: int) -> np.ndarray:
    """Positions ``starts[k] .. starts[k] + counts[k] - 1``, concatenated in order."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(total)
