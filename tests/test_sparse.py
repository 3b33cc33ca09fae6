"""Tests for the coordinate sparse container: matvec, restriction, scalars."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lem import Mesh, make_partition
from lem.sparse import BandedSparseMatrix
from partition_reference import reference_windows


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
        halo = a.halo(np.array([[0, 1]]))
        assert halo.nnz == 0
        assert halo.is_complex
        assert BandedSparseMatrix(3, 3, [], [], np.zeros(0, complex)).is_complex
        assert not BandedSparseMatrix(3, 3, [], [], []).is_complex


class TestRestrict:
    def test_periodic_block_loses_wrap(self):
        # frozen: restricting the first 4 rows/cols of an 8-node periodic
        # advection matrix keeps only the tridiagonal block, no wrap entries
        a = periodic_advection(8, u=1.0, dx=0.5)
        sub = a.restrict(np.arange(4)[None])
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
        sub = a.restrict(np.array([[3, 4, 5]]))
        assert sub.shape == (3, 3)
        assert sub.to_dense()[0, 1] == -0.5  # coupling 3 -> 4 moved to (0, 1)

    def test_halo_complements_restrict(self):
        rng = np.random.default_rng(3)
        a = periodic_advection(12, u=0.7, dx=0.1)
        x = rng.standard_normal(12)
        for keep in ([2, 3, 4, 5], [5, 3, 2, 4]):
            keep = np.array(keep)
            local = a.restrict(keep[None])
            halo = a.halo(keep[None])
            full_rows = a.matvec(x)[keep]
            split = local.matvec(x[keep]) + halo.matvec(x)
            np.testing.assert_allclose(split, full_rows, rtol=1e-14, atol=1e-14)
        # two windows on one stack, the second padded: each window row
        # splits alike, and the pad row holds nothing
        nodes = np.array([[2, 3, 4, 5], [11, 0, 1, 0]])
        pads = np.array([[False] * 4, [False, False, True, True]])
        local, halo = a.restrict(nodes, pads), a.halo(nodes, pads)
        assert local.shape == (8, 8) and halo.shape == (8, 12)
        stack = np.where(pads, 0.0, x[nodes]).reshape(-1)
        split = local.matvec(stack) + halo.matvec(x)
        live = ~pads.reshape(-1)
        np.testing.assert_allclose(split[live], a.matvec(x)[nodes.reshape(-1)[live]],
                                   rtol=1e-14, atol=1e-14)
        assert not split[~live].any()

    def test_restriction_consistency_random(self):
        # restrict then densify == densify then slice, couplings outside
        # dropped, in the order the window lists its nodes; block i of a
        # stack of windows sits at rows and columns i L onwards
        rng = np.random.default_rng(5)
        d = rng.standard_normal((9, 9))
        a = BandedSparseMatrix.from_dense(d)
        for r in ([0, 4, 8], [8, 0, 4], [6, 1, 4]):
            np.testing.assert_allclose(
                a.restrict(np.array([r])).to_dense(), d[np.ix_(r, r)])
        nodes = np.array([[0, 4, 8], [6, 1, 4]])
        block = a.restrict(nodes).to_dense()
        for i, r in enumerate(nodes):
            want = np.zeros((3, 6))
            want[:, 3 * i:3 * i + 3] = d[np.ix_(r, r)]
            np.testing.assert_allclose(block[3 * i:3 * i + 3], want)


@st.composite
def stack_cases(draw):
    """A partition (1D periodic with wrapping windows, 1D Dirichlet with
    clipped and padded windows, or 2D column strips), its reference
    windows, a random sparse real or complex operator on its mesh, and a
    state."""
    kind = draw(st.sampled_from(("periodic", "dirichlet", "strips")))
    n_axis = draw(st.integers(4, 30))
    if kind == "strips":
        boundary = draw(st.sampled_from(("periodic", "dirichlet")))
        mesh = Mesh.grid(n_axis, draw(st.integers(4, 5)), 10.0, 5.0,
                         boundary=boundary)
    else:
        boundary = kind
        mesh = Mesh.line(n_axis, 10.0, boundary=boundary)
    d = draw(st.integers(1, min(6, n_axis)))
    b_max = 5
    if boundary == "periodic" and d > 1:
        b_max = min(b_max, n_axis - -(-n_axis // d))
    b = draw(st.integers(0, max(b_max, 0)))
    part = make_partition(mesh, d, b)
    windows = [m_i for m_i, _ in reference_windows(mesh, d, b)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = mesh.n_total
    shape = (n, n)
    complex_ = draw(st.booleans())
    j = rng.standard_normal(shape) * (rng.random(shape) < 0.3)
    u = rng.standard_normal(n)
    if complex_:
        j = j + 1j * rng.standard_normal(shape) * (j != 0)
        u = u + 1j * rng.standard_normal(n)
    return part, windows, j, u


class TestStackExtraction:
    """`restrict` and `halo` on a partition's (D, L) stack against dense
    slices of the operator, and the identity A_i u[M_i] + H_i u = (J u)[M_i]."""

    @settings(max_examples=150, deadline=None)
    @given(stack_cases())
    def test_blocks_halo_and_residual_identity(self, case):
        part, windows, j, u = case
        a = BandedSparseMatrix.from_dense(j)
        local = a.restrict(part.nodes, part.pads)
        halo = a.halo(part.nodes, part.pads)
        d, width, n = part.D, part.width, part.n_total
        assert local.shape == (d * width, d * width)
        assert halo.shape == (d * width, n)
        assert local.is_complex == halo.is_complex == np.iscomplexobj(j)

        # block i is the dense slice on M_i, and nothing else is stored:
        # pad rows and columns and every coupling between windows are empty
        want_local = np.zeros(local.shape, dtype=j.dtype)
        want_halo = np.zeros(halo.shape, dtype=j.dtype)
        for i, m in enumerate(windows):
            at = i * width + np.arange(m.size)
            want_local[np.ix_(at, at)] = j[np.ix_(m, m)]
            exterior = np.ones(n, dtype=bool)
            exterior[m] = False
            want_halo[at] = j[m] * exterior
        assert np.array_equal(local.to_dense(), want_local)
        assert np.array_equal(halo.to_dense(), want_halo)
        if part.pads is not None:
            slots = np.flatnonzero(part.pads.reshape(-1))
            assert not np.isin(local.rows, slots).any()
            assert not np.isin(local.cols, slots).any()
            assert not np.isin(halo.rows, slots).any()

        # the local residual is the global residual restricted
        split = local.matvec(part.to_stack(u).reshape(-1)) + halo.matvec(u)
        whole = part.to_stack(a.matvec(u)).reshape(-1)
        live = np.ones(d * width, dtype=bool) if part.pads is None \
            else ~part.pads.reshape(-1)
        scale = part.to_stack(np.abs(j) @ np.abs(u)).reshape(-1)
        assert np.all(np.abs(split - whole)[live] <= 1e-14 * scale[live])
        assert not split[~live].any()
        if d == 1:
            assert np.array_equal(split, whole)


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

    @settings(max_examples=60, deadline=None)
    @given(n_rows=st.integers(1, 12), n_cols=st.integers(1, 12),
           density=st.floats(0.0, 1.0), complex_=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_row_major_input_skips_the_sort_alike(self, n_rows, n_cols, density,
                                                 complex_, seed):
        # distinct row-major entries (some zero) take the constructor's
        # short path; a shuffled copy with a split duplicate takes the sort
        # and the coalescing, and both store the same arrays bitwise
        rng = np.random.default_rng(seed)
        key = np.flatnonzero(rng.random(n_rows * n_cols) < density)
        rows, cols = key // n_cols, key % n_cols
        vals = rng.standard_normal(key.size) * (rng.random(key.size) < 0.8)
        if complex_:
            vals = vals + 1j * rng.standard_normal(key.size)
        a = BandedSparseMatrix(n_rows, n_cols, rows, cols, vals)
        perm = rng.permutation(key.size)
        b = BandedSparseMatrix(n_rows, n_cols, np.append(rows[perm], rows[:1]),
                               np.append(cols[perm], cols[:1]),
                               np.append(vals[perm], 0.0 * vals[:1]))
        for x, y in zip((a.rows, a.cols, a.vals), (b.rows, b.cols, b.vals)):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        assert np.array_equal(a.to_dense(), b.to_dense())
        # the stored arrays are copies: the inputs stay the caller's
        rows[:] = 0
        assert np.array_equal(a.rows, b.rows)
