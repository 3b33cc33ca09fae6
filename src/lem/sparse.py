"""Banded sparse matrices in coordinate form with a compiled row-major kernel.

All discrete operators in this package are stored as coordinate lists
(row, col, value) together with a compiled CSR form used by matvec. The
class also exposes the two scalar quantities that drive the off-diagonal
decay estimates: the largest entry magnitude and the effective bandwidth
max |i - j| over stored entries.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as _sp


class IndexSet:
    """Duplicate-free array of nonnegative global indices, in the order given."""

    __slots__ = ("indices",)

    def __init__(self, indices) -> None:
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("index set must be one-dimensional")
        if idx.size:
            if idx.min() < 0:
                raise ValueError("negative index in index set")
            srt = np.sort(idx)
            if np.any(srt[1:] == srt[:-1]):
                raise ValueError("index set must not repeat an index")
        self.indices = idx
        self.indices.setflags(write=False)

    def __len__(self) -> int:
        return int(self.indices.size)

    def __iter__(self):
        return iter(self.indices)

    def __eq__(self, other) -> bool:
        return isinstance(other, IndexSet) and np.array_equal(self.indices, other.indices)

    def __repr__(self) -> str:
        return f"IndexSet({self.indices.tolist()!r})"


class BandedSparseMatrix:
    """Immutable sparse matrix with COO semantics and a compiled matvec kernel.

    Entries are coalesced (duplicates summed), exact zeros dropped, and sorted
    row-major at construction. The dtype is uniformly real or complex. If a
    `bandwidth_hint` is given, the effective bandwidth must not exceed it.
    """

    __slots__ = ("n_rows", "n_cols", "rows", "cols", "vals", "bandwidth", "_csr")

    def __init__(self, n_rows: int, n_cols: int, rows, cols, vals,
                 bandwidth_hint: int | None = None) -> None:
        if n_rows < 0 or n_cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals).ravel()
        if not (rows.size == cols.size == vals.size):
            raise ValueError("rows, cols, vals must have equal length")
        # complex input stays complex even when empty (e.g. an empty halo)
        if np.issubdtype(vals.dtype, np.complexfloating):
            vals = vals.astype(np.complex128)
        else:
            vals = vals.astype(np.float64)
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ValueError("column index out of range")
        if not np.all(np.isfinite(vals)):
            raise ValueError("matrix entries must be finite")

        # coalesce duplicates, drop exact zeros, sort row-major
        if rows.size:
            key = rows * n_cols + cols
            order = np.argsort(key, kind="stable")
            key, rows, cols, vals = key[order], rows[order], cols[order], vals[order]
            uniq, start = np.unique(key, return_index=True)
            vals = np.add.reduceat(vals, start) if uniq.size else vals
            rows, cols = rows[start], cols[start]
            keep = vals != 0
            rows, cols, vals = rows[keep], cols[keep], vals[keep]

        self._set(n_rows, n_cols, rows, cols, vals)
        if bandwidth_hint is not None and self.bandwidth > bandwidth_hint:
            raise ValueError(
                f"effective bandwidth {self.bandwidth} exceeds hint {bandwidth_hint}"
            )

    def _set(self, n_rows, n_cols, rows, cols, vals) -> None:
        """Store coalesced, nonzero, row-major entries and compile the CSR form."""
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.rows, self.cols, self.vals = rows, cols, vals
        for a in (self.rows, self.cols, self.vals):
            a.setflags(write=False)
        self.bandwidth = int(np.max(np.abs(rows - cols))) if rows.size else 0
        indptr = np.zeros(self.n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.n_rows), out=indptr[1:])
        self._csr = _sp.csr_matrix(
            (vals, cols, indptr), shape=(self.n_rows, self.n_cols)
        )

    @classmethod
    def vstack(cls, blocks, diagonal: bool = False) -> "BandedSparseMatrix":
        """The blocks on a zero-padded stack, sharing columns or block diagonal.

        Block i starts at row i L, L the most rows of any block, and with
        `diagonal=True` also at column i L; rows (and columns) past a
        smaller block stay empty. The blocks' entries are reused without
        another sort or coalesce, so every row of the result holds its
        block row's entries in their order and matvec sums them in the same
        order. A single block is returned as it is.
        """
        if len(blocks) == 1:
            return blocks[0]
        width = max(b.n_rows for b in blocks)
        off = width * np.arange(len(blocks))
        out = cls.__new__(cls)
        out._set(
            width * len(blocks),
            width * len(blocks) if diagonal else blocks[0].n_cols,
            np.concatenate([b.rows + r for b, r in zip(blocks, off)]),
            np.concatenate([b.cols + (r if diagonal else 0)
                            for b, r in zip(blocks, off)]),
            np.concatenate([b.vals for b in blocks]),
        )
        return out

    @classmethod
    def from_dense(cls, a) -> "BandedSparseMatrix":
        a = np.asarray(a)
        rows, cols = np.nonzero(a)
        return cls(a.shape[0], a.shape[1], rows, cols, a[rows, cols])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    @property
    def dtype(self):
        return self.vals.dtype

    @property
    def is_complex(self) -> bool:
        return np.issubdtype(self.vals.dtype, np.complexfloating)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape != (self.n_cols,):
            raise ValueError(
                f"matvec dimension mismatch: matrix is {self.shape}, vector has shape {x.shape}"
            )
        return self._csr @ x

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def to_csr(self):
        """The scipy CSR backing matrix (shared, treat as read-only)."""
        return self._csr

    def scaled(self, alpha) -> "BandedSparseMatrix":
        return BandedSparseMatrix(
            self.n_rows, self.n_cols, self.rows, self.cols, alpha * self.vals
        )

    def max_abs_entry(self) -> float:
        """Largest entry magnitude (the rho of the decay bound); 0 if empty."""
        return float(np.max(np.abs(self.vals))) if self.vals.size else 0.0

    def restrict(self, rows: IndexSet, cols: IndexSet) -> "BandedSparseMatrix":
        """Submatrix on the given global row/column sets, reindexed locally.

        Local row k is global row `rows.indices[k]` and local column k is
        global column `cols.indices[k]`, in whatever order the sets list them.

        Entries coupling to columns outside `cols` are dropped; the caller is
        responsible for accounting for them (see `halo`).
        """
        rpos = np.full(self.n_rows, -1, dtype=np.int64)
        rpos[rows.indices] = np.arange(len(rows))
        cpos = np.full(self.n_cols, -1, dtype=np.int64)
        cpos[cols.indices] = np.arange(len(cols))
        keep = (rpos[self.rows] >= 0) & (cpos[self.cols] >= 0)
        return BandedSparseMatrix(
            len(rows), len(cols),
            rpos[self.rows[keep]], cpos[self.cols[keep]], self.vals[keep],
        )

    def halo(self, rows: IndexSet, cols: IndexSet) -> "BandedSparseMatrix":
        """Couplings from `rows` to columns outside `cols`, as a (len(rows), n_cols) matrix.

        Applying the result to a full-length vector yields exactly the terms
        that `restrict(rows, cols)` dropped.
        """
        rpos = np.full(self.n_rows, -1, dtype=np.int64)
        rpos[rows.indices] = np.arange(len(rows))
        inside = np.zeros(self.n_cols, dtype=bool)
        inside[cols.indices] = True
        keep = (rpos[self.rows] >= 0) & ~inside[self.cols]
        return BandedSparseMatrix(
            len(rows), self.n_cols,
            rpos[self.rows[keep]], self.cols[keep], self.vals[keep],
        )

    def __repr__(self) -> str:
        kind = "complex" if self.is_complex else "real"
        return (
            f"BandedSparseMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz}, "
            f"bandwidth={self.bandwidth}, {kind})"
        )
