"""Tests for the coordinate sparse container: matvec, restriction, scalars."""

import numpy as np
import pytest

from lem.sparse import BandedSparseMatrix, IndexSet


def centered_difference(n, dx=1.0):
    """tridiag(-1, 0, 1)/(2 dx), no wrap."""
    rows, cols, vals = [], [], []
    for i in range(n):
        if i > 0:
            rows.append(i); cols.append(i - 1); vals.append(-1.0 / (2 * dx))
        if i < n - 1:
            rows.append(i); cols.append(i + 1); vals.append(1.0 / (2 * dx))
    return BandedSparseMatrix(n, n, rows, cols, vals)


def periodic_advection(n, u=1.0, dx=1.0):
    """Centered first-derivative advection matrix for du/dt = -u dc/dx, periodic."""
    rows, cols, vals = [], [], []
    for i in range(n):
        rows.append(i); cols.append((i - 1) % n); vals.append(u / (2 * dx))
        rows.append(i); cols.append((i + 1) % n); vals.append(-u / (2 * dx))
    return BandedSparseMatrix(n, n, rows, cols, vals)


class TestIndexSet:
    def test_sorted_unique_enforced(self):
        assert IndexSet([2, 0, 5]).indices.tolist() == [2, 0, 5]  # order kept
        with pytest.raises(ValueError):
            IndexSet([0, 2, 2])
        with pytest.raises(ValueError):
            IndexSet([2, 0, 2])
        with pytest.raises(ValueError):
            IndexSet([-1, 0])
        with pytest.raises(ValueError):
            IndexSet([3, -1])


class TestMatvec:
    def test_centered_difference_unit_pulse(self):
        # frozen by hand: tridiag(-1,0,1)/(2 dx) with dx=1 applied to (0,1,0)
        a = centered_difference(3)
        out = a.matvec(np.array([0.0, 1.0, 0.0]))
        np.testing.assert_allclose(out, [0.5, 0.0, -0.5], rtol=0, atol=0)

    def test_dimension_mismatch_raises(self):
        a = centered_difference(4)
        with pytest.raises(ValueError):
            a.matvec(np.zeros(5))

    def test_linearity(self):
        rng = np.random.default_rng(7)
        a = periodic_advection(40, u=1.3, dx=0.05)
        x, y = rng.standard_normal(40), rng.standard_normal(40)
        al, be = 0.37, -2.11
        lhs = a.matvec(al * x + be * y)
        rhs = al * a.matvec(x) + be * a.matvec(y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * max(1.0, np.max(np.abs(rhs)))

    def test_matches_dense(self):
        rng = np.random.default_rng(11)
        d = rng.standard_normal((6, 6))
        d[np.abs(d) < 0.8] = 0.0
        a = BandedSparseMatrix.from_dense(d)
        x = rng.standard_normal(6)
        np.testing.assert_allclose(a.matvec(x), d @ x, rtol=1e-14, atol=1e-14)

    def test_complex_entries(self):
        a = BandedSparseMatrix(2, 2, [0, 1], [1, 0], [1j, -1j])
        assert a.is_complex
        out = a.matvec(np.array([1.0 + 0j, 2.0 + 0j]))
        np.testing.assert_allclose(out, [2j, -1j])

    @pytest.mark.filterwarnings("error")
    def test_empty_complex_stays_complex(self):
        # a complex operator whose halo is empty (one periodic subdomain)
        a = BandedSparseMatrix(2, 2, [0, 1], [1, 0], [1j, -1j])
        everything = IndexSet([0, 1])
        halo = a.halo(everything, everything)
        assert halo.nnz == 0
        assert halo.is_complex
        assert BandedSparseMatrix(3, 3, [], [], np.zeros(0, complex)).is_complex
        assert not BandedSparseMatrix(3, 3, [], [], []).is_complex


class TestRestrict:
    def test_periodic_block_loses_wrap(self):
        # frozen: restricting the first 4 rows/cols of an 8-node periodic
        # advection matrix keeps only the tridiagonal block, no wrap entries
        a = periodic_advection(8, u=1.0, dx=0.5)
        sub = a.restrict(IndexSet(range(4)), IndexSet(range(4)))
        expected = np.zeros((4, 4))
        for i in range(4):
            if i > 0:
                expected[i, i - 1] = 1.0
            if i < 3:
                expected[i, i + 1] = -1.0
        np.testing.assert_allclose(sub.to_dense(), expected)
        assert sub.bandwidth == 1

    def test_reindexing(self):
        a = periodic_advection(10)
        sub = a.restrict(IndexSet([3, 4, 5]), IndexSet([3, 4, 5]))
        assert sub.shape == (3, 3)
        assert sub.to_dense()[0, 1] == -0.5  # coupling 3 -> 4 moved to (0, 1)

    def test_halo_complements_restrict(self):
        rng = np.random.default_rng(3)
        a = periodic_advection(12, u=0.7, dx=0.1)
        x = rng.standard_normal(12)
        for keep in (IndexSet([2, 3, 4, 5]), IndexSet([5, 3, 2, 4])):
            local = a.restrict(keep, keep)
            halo = a.halo(keep, keep)
            full_rows = a.matvec(x)[keep.indices]
            split = local.matvec(x[keep.indices]) + halo.matvec(x)
            np.testing.assert_allclose(split, full_rows, rtol=1e-14, atol=1e-14)

    def test_restriction_consistency_random(self):
        # restrict then densify == densify then slice, couplings outside dropped
        rng = np.random.default_rng(5)
        d = rng.standard_normal((9, 9))
        a = BandedSparseMatrix.from_dense(d)
        for r, c in ((IndexSet([0, 4, 8]), IndexSet([1, 4, 6])),
                     (IndexSet([8, 0, 4]), IndexSet([6, 1, 4]))):
            np.testing.assert_allclose(
                a.restrict(r, c).to_dense(), d[np.ix_(r.indices, c.indices)]
            )


class TestScalars:
    def test_max_abs_entry_empty(self):
        a = BandedSparseMatrix(3, 3, [], [], [])
        assert a.max_abs_entry() == 0.0
        assert a.bandwidth == 0

    def test_max_abs_entry_scaled_advection(self):
        # frozen stencil arithmetic: u=1, dx=10/400, C=0.5 -> dt = C dx / u,
        # entries of dt*A are +-C/2 = 0.25
        n, u, dx = 400, 1.0, 10.0 / 400
        dt = 0.5 * dx / u
        a = periodic_advection(n, u=u, dx=dx).scaled(dt)
        assert a.max_abs_entry() == pytest.approx(0.25, rel=0, abs=1e-15)

    def test_duplicates_coalesced(self):
        a = BandedSparseMatrix(2, 2, [0, 0], [1, 1], [2.0, 3.0])
        assert a.nnz == 1
        assert a.to_dense()[0, 1] == 5.0

    def test_explicit_zero_dropped(self):
        a = BandedSparseMatrix(3, 3, [0, 2], [2, 0], [0.0, 1.0])
        assert a.nnz == 1
        assert a.bandwidth == 2

    def test_bandwidth_hint_violation(self):
        with pytest.raises(ValueError):
            BandedSparseMatrix(5, 5, [0], [4], [1.0], bandwidth_hint=2)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            BandedSparseMatrix(2, 2, [0], [0], [np.inf])

    def test_immutable(self):
        a = centered_difference(3)
        with pytest.raises(ValueError):
            a.vals[0] = 99.0
