"""Row-sparse matrices: few materialised rows, zeros everywhere else.

The L2,1-regularised error matrix ``E_R`` of RHCHME (Eq. 15) is *sample-wise*
sparse: its exact update, the L2,1 prox (a row-wise group soft threshold),
sets the rows of well-explained objects exactly to zero while corrupted
objects keep a whole (dense) row of shrunk residual.  A general-purpose
CSR matrix is the wrong container for that shape — the surviving rows are
dense, so per-entry indexing triples the memory — and a dense array wastes
``O(n²)`` on zeros.
:class:`RowSparseMatrix` stores exactly what the structure has: the sorted
indices of the surviving rows and one dense ``(k, n)`` value block.

The class implements only the operations the RHCHME update loop and the
serving stack need (block slicing, row norms, Frobenius and L2,1 norms),
each without materialising the ``(n, n)`` dense form.
``to_dense``/``__array__`` exist for interop and tests, not for hot paths.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RowSparseMatrix", "as_row_sparse"]


class RowSparseMatrix:
    """A matrix with dense values on a few rows and zeros on all others.

    Parameters
    ----------
    rows:
        Strictly increasing indices of the materialised (non-zero) rows.
    values:
        ``(len(rows), shape[1])`` dense block holding those rows' values.
    shape:
        Logical ``(n_rows, n_cols)`` shape of the full matrix.
    """

    __slots__ = ("rows", "values", "shape")

    def __init__(self, rows, values, shape) -> None:
        rows = np.asarray(rows, dtype=np.int64).ravel()
        values = np.asarray(values, dtype=np.float64)
        n_rows, n_cols = (int(shape[0]), int(shape[1]))
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {values.shape}")
        if values.shape != (rows.size, n_cols):
            raise ValueError(
                f"values have shape {values.shape}, expected "
                f"{(rows.size, n_cols)} for {rows.size} rows of width {n_cols}")
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ValueError(
                    f"row indices must lie in [0, {n_rows}), got range "
                    f"[{rows.min()}, {rows.max()}]")
            if np.any(np.diff(rows) <= 0):
                raise ValueError("row indices must be strictly increasing")
        self.rows = rows
        self.values = values
        self.shape = (n_rows, n_cols)

    # ------------------------------------------------------------ constructors
    @classmethod
    def zeros(cls, shape) -> "RowSparseMatrix":
        """The all-zero matrix of the given shape (no rows materialised)."""
        return cls(np.empty(0, dtype=np.int64),
                   np.empty((0, int(shape[1]))), shape)

    @classmethod
    def from_dense(cls, matrix, *, tol: float = 0.0) -> "RowSparseMatrix":
        """Compress a dense matrix, keeping rows with L2 norm above ``tol``.

        ``tol=0`` keeps every row that has any non-zero entry — an exact
        representation for matrices that are already row-sparse in substance
        (an all-zero ``E_R`` compresses to nothing).
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
        norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
        rows = np.flatnonzero(norms > tol)
        return cls(rows, matrix[rows].copy(), matrix.shape)

    # -------------------------------------------------------------- properties
    @property
    def n_stored_rows(self) -> int:
        """Number of materialised rows."""
        return int(self.rows.size)

    @property
    def nnz(self) -> int:
        """Entries actually held in memory (stored rows × columns)."""
        return int(self.values.size)

    @property
    def is_zero(self) -> bool:
        """True when no row is materialised (the all-zero matrix)."""
        return self.rows.size == 0

    # ------------------------------------------------------------- conversions
    def to_dense(self) -> np.ndarray:
        """Materialise the full dense ``(n_rows, n_cols)`` array."""
        dense = np.zeros(self.shape, dtype=np.float64)
        if self.rows.size:
            dense[self.rows] = self.values
        return dense

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        dense = self.to_dense()
        return dense if dtype is None else dense.astype(dtype)

    def copy(self) -> "RowSparseMatrix":
        """Independent copy (indices and values)."""
        return RowSparseMatrix(self.rows.copy(), self.values.copy(), self.shape)

    def block(self, rows: slice, cols: slice) -> "RowSparseMatrix":
        """The sub-matrix covered by contiguous row/column spans, as views.

        Because the stored row indices are sorted, the rows falling inside a
        contiguous span form a contiguous run — the returned matrix shares
        the underlying value storage (no copy), which is what lets the
        blockwise solver kernels slice a global ``E_R`` into per-pair blocks
        for free every iteration.
        """
        row_start, row_stop, _ = rows.indices(self.shape[0])
        col_start, col_stop, _ = cols.indices(self.shape[1])
        lo = int(np.searchsorted(self.rows, row_start, side="left"))
        hi = int(np.searchsorted(self.rows, row_stop, side="left"))
        return RowSparseMatrix(self.rows[lo:hi] - row_start,
                               self.values[lo:hi, col_start:col_stop],
                               (row_stop - row_start, col_stop - col_start))

    # ------------------------------------------------------------------- norms
    def stored_row_norms(self) -> np.ndarray:
        """L2 norms of the stored rows (length ``n_stored_rows``)."""
        return np.sqrt(np.einsum("ij,ij->i", self.values, self.values))

    def row_norms(self) -> np.ndarray:
        """L2 norm of every row of the full matrix (zeros for absent rows)."""
        norms = np.zeros(self.shape[0], dtype=np.float64)
        if self.rows.size:
            norms[self.rows] = self.stored_row_norms()
        return norms

    def frobenius_squared(self) -> float:
        """Squared Frobenius norm ``‖·‖²_F``."""
        return float(np.sum(self.values * self.values))

    def l21_norm(self) -> float:
        """L2,1 norm — the sum of row L2 norms (Eq. 14)."""
        return float(np.sum(self.stored_row_norms()))

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (f"RowSparseMatrix(shape={self.shape}, "
                f"stored_rows={self.n_stored_rows})")


def as_row_sparse(matrix) -> RowSparseMatrix | None:
    """The row-sparse form of an error matrix given in any representation.

    ``None`` stays ``None`` and a :class:`RowSparseMatrix` passes through;
    anything else (a dense array, e.g. from a legacy artifact or a caller's
    warm start) is compressed to its non-zero rows with
    :meth:`RowSparseMatrix.from_dense`, which is exact.
    """
    if matrix is None or isinstance(matrix, RowSparseMatrix):
        return matrix
    return RowSparseMatrix.from_dense(matrix)
