"""Banded sparse matrices in coordinate form with a compiled row-major kernel.

All discrete operators in this package are stored as coordinate lists
(row, col, value) together with a compiled CSR form used by matvec. The
class also exposes the two scalar quantities that drive the off-diagonal
decay estimates: the largest entry magnitude and the effective bandwidth
max |i - j| over stored entries. `restrict` and `halo` cut a matrix on
the overlapping windows of a `lem.partition.Partition`, given as its
`nodes` and `pads` arrays, straight into their zero-padded (D, L) stack
layout, each in one pass over the window rows; they look entries up by
(window, node), so each window must list distinct nodes, which
`Partition` checks.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as _sp


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

        # coalesce duplicates, drop exact zeros, sort row-major; entries
        # that come distinct and row-major, as `restrict` and `halo` give
        # them, skip the sort and the coalescing
        if rows.size:
            key = rows * n_cols + cols
            if not (key[1:] > key[:-1]).all():
                order = np.argsort(key, kind="stable")
                key, rows, cols, vals = key[order], rows[order], cols[order], vals[order]
                _, start = np.unique(key, return_index=True)
                vals = np.add.reduceat(vals, start)
                rows, cols = rows[start], cols[start]
            keep = vals != 0
            rows, cols, vals = rows[keep], cols[keep], vals[keep]

        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.rows, self.cols, self.vals = rows, cols, vals
        for a in (self.rows, self.cols, self.vals):
            a.setflags(write=False)
        self.bandwidth = int(np.max(np.abs(rows - cols))) if rows.size else 0
        if bandwidth_hint is not None and self.bandwidth > bandwidth_hint:
            raise ValueError(
                f"effective bandwidth {self.bandwidth} exceeds hint {bandwidth_hint}"
            )
        # the index type scipy would store, given up front so that it
        # need not scan the indices for their range
        index = np.int32 if max(self.n_rows, self.n_cols, rows.size) < 2**31 else np.int64
        indptr = np.zeros(self.n_rows + 1, dtype=index)
        np.cumsum(np.bincount(rows, minlength=self.n_rows), out=indptr[1:])
        self._csr = _sp.csr_matrix(
            (vals, cols.astype(index), indptr), shape=(self.n_rows, self.n_cols)
        )

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

    def _stack_rows(self, nodes: np.ndarray, pads: np.ndarray | None):
        """Each entry of the window rows, in stack order: the flattened slot
        of its row, its global column and value, and the slot of its column
        in the same window (-1 outside it). Pad slots have no row."""
        d, width = nodes.shape
        slot = np.arange(d * width)
        if pads is not None:
            slot = slot[~pads.reshape(-1)]
        node = nodes.reshape(-1)[slot]
        indptr = self._csr.indptr
        start, count = indptr[node], indptr[node + 1] - indptr[node]
        owner = np.repeat(np.arange(slot.size), count)  # entry -> its row
        first = np.cumsum(count) - count  # each row's first entry in pos
        pos = np.arange(owner.size) + np.repeat(start - first, count)
        cols = self.cols[pos]
        # the slot of every (window, node) pair, looked up per entry
        where = np.full((d, self.n_cols), -1)
        where[slot // width, node] = slot
        local = where[slot[owner] // width, cols]
        return slot[owner], cols, self.vals[pos], local

    def restrict(self, nodes: np.ndarray, pads: np.ndarray | None = None
                 ) -> "BandedSparseMatrix":
        """diag(A_1 ... A_D) on the zero-padded (D, L) stack of windows.

        Row i of `nodes` lists window M_i and `pads` marks its pad slots
        (None: none), as in `Partition`. A_i, the submatrix on M_i in
        window order, sits at rows and columns i L onwards of the (D L, D L)
        result; pad rows and columns and couplings out of M_i stay empty.
        """
        slot, _, vals, local = self._stack_rows(nodes, pads)
        keep = local >= 0
        return BandedSparseMatrix(nodes.size, nodes.size,
                                  slot[keep], local[keep], vals[keep])

    def halo(self, nodes: np.ndarray, pads: np.ndarray | None = None
             ) -> "BandedSparseMatrix":
        """[H_1; ...; H_D]: row i L + j holds the entries of global row
        `nodes[i, j]` whose column lies outside M_i, at their global
        columns. `restrict` on the stack of u plus `halo` on u is the
        product with u on every window row; pad rows are empty."""
        slot, cols, vals, local = self._stack_rows(nodes, pads)
        out = local < 0
        return BandedSparseMatrix(nodes.size, self.n_cols,
                                  slot[out], cols[out], vals[out])

    def __repr__(self) -> str:
        kind = "complex" if self.is_complex else "real"
        return (
            f"BandedSparseMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz}, "
            f"bandwidth={self.bandwidth}, {kind})"
        )
