"""Exponential and phi-function kernels: dense, Krylov, and decay bounds."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import expm_multiply

from lem import (
    BandedSparseMatrix,
    PhiEvaluator,
    expm_dense,
    iserles_bound,
    phi_action_krylov,
    phi_dense_all,
    phi_k_dense,
    verify_decay,
)
from lem.expm import (KRYLOV_CHECK_EVERY, KRYLOV_M_MAX, _phi_action_krylov,
                      phi_hessenberg_e1)
from lem.models import (
    build_advdiff_2d,
    build_advection_dirichlet_1d,
    build_burgers_1d,
    build_schrodinger_1d,
)


def random_banded(n, half_bw, rng, scale=1.0):
    dense = np.zeros((n, n))
    for off in range(-half_bw, half_bw + 1):
        d = rng.standard_normal(n - abs(off)) * scale
        dense += np.diag(d, off)
    return dense


class TestExpmDense:
    def test_zero_matrix(self):
        assert np.array_equal(expm_dense(np.zeros((4, 4))), np.eye(4))

    def test_rotation_block(self):
        th = 0.7
        a = np.array([[0.0, -th], [th, 0.0]])
        want = np.array([[math.cos(th), -math.sin(th)],
                         [math.sin(th), math.cos(th)]])
        assert np.allclose(expm_dense(a), want, rtol=0, atol=1e-15)

    def test_matches_scipy_random(self):
        rng = np.random.default_rng(42)
        for n in (5, 20, 60):
            a = rng.standard_normal((n, n))
            ours = expm_dense(a)
            ref = scipy.linalg.expm(a)
            assert np.linalg.norm(ours - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_large_norm_scaling_squaring(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((30, 30)) * 50.0
        ours = expm_dense(a)
        ref = scipy.linalg.expm(a)
        assert np.linalg.norm(ours - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_inverse_identity(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((25, 25))
        prod = expm_dense(a) @ expm_dense(-a)
        assert np.linalg.norm(prod - np.eye(25)) <= 1e-10

    def test_complex_skew_hermitian_unitary(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
        h = 0.5 * (h + h.conj().T)
        u = expm_dense(1j * h)
        assert np.linalg.norm(u @ u.conj().T - np.eye(20)) <= 1e-12


class TestPhiDense:
    def test_nilpotent_exact(self):
        # A^3 = 0 truncates every series; entries are exact rationals
        a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        phis = phi_dense_all(a, 3)
        want = [
            np.array([[1, 1, 1 / 2], [0, 1, 1], [0, 0, 1]]),
            np.array([[1, 1 / 2, 1 / 6], [0, 1, 1 / 2], [0, 0, 1]]),
            np.array([[1 / 2, 1 / 6, 1 / 24], [0, 1 / 2, 1 / 6], [0, 0, 1 / 2]]),
            np.array([[1 / 6, 1 / 24, 1 / 120], [0, 1 / 6, 1 / 24], [0, 0, 1 / 6]]),
        ]
        for got, ref in zip(phis, want):
            assert np.allclose(got, ref, rtol=0, atol=1e-15)

    def test_phi_zero_is_expm(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((15, 15))
        assert np.allclose(phi_k_dense(a, 0), expm_dense(a), atol=1e-13)

    def test_phi_at_zero_matrix(self):
        # phi_k(0) = I / k!
        for k in range(4):
            got = phi_k_dense(np.zeros((6, 6)), k)
            assert np.allclose(got, np.eye(6) / math.factorial(k), atol=1e-15)

    def test_recurrence(self):
        # A phi_{k+1}(A) = phi_k(A) - I/k!  for invertible and singular A
        rng = np.random.default_rng(21)
        for n in (10, 50):
            a = rng.standard_normal((n, n))
            a[0, :] = 0.0  # make it singular
            phis = phi_dense_all(a, 3)
            for k in range(3):
                lhs = a @ phis[k + 1]
                rhs = phis[k] - np.eye(n) / math.factorial(k)
                assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_scalar_phi1(self):
        # phi_1(z) = (e^z - 1)/z elementwise on a diagonal matrix
        z = np.array([2.0, -1.0, 0.5])
        got = phi_k_dense(np.diag(z), 1)
        assert np.allclose(np.diag(got), np.expm1(z) / z, atol=1e-14)


def augmented_phis(a, k):
    """[phi_0(A) .. phi_k(A)] from scipy's expm of the explicit (k+1)n matrix
    [[A, I, 0, ...], [0, 0, I, ...], ...]."""
    n = a.shape[0]
    w = np.zeros(((k + 1) * n, (k + 1) * n), dtype=np.promote_types(a.dtype, np.float64))
    w[:n, :n] = a
    for b in range(k):
        w[b * n:(b + 1) * n, (b + 1) * n:(b + 2) * n] = np.eye(n)
    e = scipy.linalg.expm(w)
    return [e[:n, j * n:(j + 1) * n] for j in range(k + 1)]


def assert_blocks_close(got, want, rtol):
    assert len(got) == len(want)
    for j, (g, w) in enumerate(zip(got, want)):
        assert g.shape == w.shape
        assert np.linalg.norm(g - w) <= rtol * np.linalg.norm(w), f"phi_{j}"


class TestStructuredPhi:
    """phi_dense_all against the explicit block-augmented exponential."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 40), k=st.integers(1, 3), complex_=st.booleans(),
           scale=st.floats(1e-3, 3.0), shape=st.sampled_from(["full", "singular", "zero"]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_augmented_oracle(self, n, k, complex_, scale, shape, seed):
        rng = np.random.default_rng(seed)
        a = scale * rng.standard_normal((n, n))
        if complex_:
            a = a + 1j * scale * rng.standard_normal((n, n))
        if shape == "singular":
            a[rng.integers(n), :] = 0.0
        elif shape == "zero":
            a[:] = 0.0
        got = phi_dense_all(a, k)
        assert np.iscomplexobj(got[0]) == complex_
        assert_blocks_close(got, augmented_phis(a, k), 1e-12)

    def test_burgers_jacobian_with_decaying_fill_in(self):
        # the exponential of this banded operator decays super-exponentially
        # off the diagonal, so unpruned squarings fill in with subnormals
        system = build_burgers_1d(400, 10.0, 0.05)
        a = 0.05 * system.jacobian(system.initial).to_dense()
        assert_blocks_close(phi_dense_all(a, 3), augmented_phis(a, 3), 1e-12)

    def test_top_block_row_shape(self):
        a = np.random.default_rng(2).standard_normal((7, 7))
        for k in range(4):
            assert expm_dense(a, k).shape == (7, 7 * (k + 1))
        assert np.array_equal(phi_dense_all(a, 2)[0], expm_dense(a, 2)[:, :7])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            phi_dense_all(1000.0 * np.eye(5), 1)

    def test_non_finite_input_raises(self):
        a = np.eye(4)
        a[1, 2] = np.nan
        for k in (1, 3):
            with pytest.raises(ValueError):
                phi_dense_all(a, k)

    def test_order_out_of_range(self):
        for k in (-1, 4):
            with pytest.raises(ValueError):
                expm_dense(np.eye(3), k)


class TestIserlesBound:
    def test_frozen_values(self):
        assert iserles_bound(0.25, 1, 10) == pytest.approx(
            1.1386768915716966e-12, rel=1e-12)
        assert iserles_bound(1.0, 1, 5) == pytest.approx(
            0.026572210912824502, rel=1e-12)
        assert iserles_bound(2.0, 2, 12) == pytest.approx(
            0.011118897955580605, rel=1e-12)

    def test_against_direct_formula(self):
        # naive evaluation is fine while the tail does not cancel badly
        for rho, s, d in [(1.0, 1, 5), (2.0, 2, 12), (4.8, 2, 40)]:
            x = d / s
            tail = math.exp(x) - sum(x**k / math.factorial(k) for k in range(d))
            direct = (rho * s / d) ** x * tail
            assert iserles_bound(rho, s, d) == pytest.approx(direct, rel=1e-9)

    def test_no_overflow_far_field(self):
        # log-domain evaluation must survive d/s >> 700
        v = iserles_bound(1.0, 1, 2000)
        assert v == 0.0 or v < 1e-300

    def test_monotone_in_rho(self):
        vals = [iserles_bound(r, 1, 8) for r in (0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            iserles_bound(1.0, 1, 0)
        with pytest.raises(ValueError):
            iserles_bound(1.0, 0, 3)
        with pytest.raises(ValueError):
            iserles_bound(-1.0, 1, 3)


class TestKrylov:
    def make_operator(self, n=120, seed=2):
        rng = np.random.default_rng(seed)
        dense = random_banded(n, 2, rng)
        return BandedSparseMatrix.from_dense(dense), dense

    def test_matches_dense(self):
        a, dense = self.make_operator()
        rng = np.random.default_rng(4)
        for k in (1, 2, 3):
            p = phi_k_dense(0.05 * dense, k)
            for _ in range(5):
                v = rng.standard_normal(120)
                w = phi_action_krylov(a, 0.05, v, k, tol=1e-10)
                ref = p @ v
                assert np.linalg.norm(w - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_zero_vector(self):
        a, _ = self.make_operator()
        w = phi_action_krylov(a, 0.1, np.zeros(120), 1)
        assert np.array_equal(w, np.zeros(120))

    def test_happy_breakdown(self):
        # vector supported on an invariant subspace: exact answer in few steps
        dense = np.zeros((40, 40))
        dense[:10, :10] = np.random.default_rng(9).standard_normal((10, 10))
        a = BandedSparseMatrix.from_dense(dense)
        v = np.zeros(40)
        v[:10] = 1.0
        w = phi_action_krylov(a, 0.3, v, 1)
        ref = phi_k_dense(0.3 * dense, 1) @ v
        assert np.linalg.norm(w - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_dimension_cap_warns(self):
        a, _ = self.make_operator(n=200, seed=13)
        v = np.random.default_rng(1).standard_normal(200)
        with pytest.warns(RuntimeWarning):
            phi_action_krylov(a, 5.0, v, 1, tol=1e-14, m_max=8)

    def test_dimension_cap_is_counted(self):
        a, _ = self.make_operator(n=200, seed=13)
        v = np.random.default_rng(1).standard_normal(200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the worker reports, never warns
            _, m_used, converged = _phi_action_krylov(a, 5.0, v, 1, tol=1e-14,
                                                      m_max=8)
        assert (m_used, converged) == (8, False)
        ev = PhiEvaluator.krylov(a, 10.0, order_max=1)  # misses at the defaults
        ev.apply(1, v)
        ev.apply(1, np.zeros(200))  # a zero vector converges trivially
        assert ev.krylov_dims == [KRYLOV_M_MAX, 0]
        assert ev.krylov_misses == 1

    def test_phase_of_vector_is_irrelevant(self):
        # phi(A) (e^{i t} v) = e^{i t} phi(A) v, with the same Arnoldi basis
        # up to the phase: holds only if Gram-Schmidt conjugates the basis
        a = build_schrodinger_1d(200, 10.0, 10.0).linear_matrix
        v = np.random.default_rng(8).standard_normal(200) + 0j
        phase = np.exp(0.7j)
        w, m, _ = _phi_action_krylov(a, 0.005, v, 1)
        w_rot, m_rot, _ = _phi_action_krylov(a, 0.005, phase * v, 1)
        assert m_rot == m
        assert np.linalg.norm(w_rot - phase * w) <= 1e-12 * np.linalg.norm(w)

    def test_evaluator_modes_agree(self):
        a, dense = self.make_operator()
        rng = np.random.default_rng(6)
        ev_d = PhiEvaluator.dense(a, 0.05, order_max=3)
        ev_k = PhiEvaluator.krylov(a, 0.05, order_max=3)
        for k in (1, 3):
            v = rng.standard_normal(120)
            wd = ev_d.apply(k, v)
            wk = ev_k.apply(k, v)
            assert np.linalg.norm(wd - wk) <= 1e-9 * np.linalg.norm(wd)
        assert len(ev_k.krylov_dims) == 2
        assert all(1 <= m <= 60 for m in ev_k.krylov_dims)


def random_hessenberg(m, rng, scale, complex_):
    h = rng.standard_normal((m, m))
    if complex_:
        h = h + 1j * rng.standard_normal((m, m))
    return scale * np.triu(h, -1)


class TestKrylovKernel:
    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 60), k=st.integers(1, 3), complex_=st.booleans(),
           scale=st.floats(1e-3, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_hessenberg_phi_matches_block_augmented(self, m, k, complex_, scale, seed):
        h = random_hessenberg(m, np.random.default_rng(seed), scale, complex_)
        got = phi_hessenberg_e1(h, k)
        want = phi_dense_all(h, k)[k][:, 0]
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 80), r_frac=st.floats(0.05, 1.0),
           m_max=st.integers(1, 60), k=st.integers(1, 3),
           tol=st.sampled_from([1e-4, 1e-8, 1e-10, 1e-13]),
           dt=st.floats(0.01, 2.0), seed=st.integers(0, 2**32 - 1))
    def test_dimension_is_a_checkpoint(self, n, r_frac, m_max, k, tol, dt, seed):
        # v lives on an invariant block of size r: breakdown comes at step r
        rng = np.random.default_rng(seed)
        r = max(1, int(r_frac * n))
        dense = np.zeros((n, n))
        dense[:r, :r] = rng.standard_normal((r, r)) / math.sqrt(r)
        v = np.zeros(n)
        v[:r] = rng.standard_normal(r)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _, m_used, _ = _phi_action_krylov(dense, dt, v, k, tol=tol, m_max=m_max)
        assert 1 <= m_used <= min(r, m_max)
        assert m_used % KRYLOV_CHECK_EVERY == 0 or m_used in (r, m_max)


def augmented_action(a, dt, v, k):
    """phi_k(dt A) v as exp of the (n + k)-sized augmented sparse matrix."""
    n = a.n_rows
    corner = scipy.sparse.csr_matrix(
        (v, (np.arange(n), np.zeros(n, dtype=int))), shape=(n, k))
    shift = scipy.sparse.eye(k, k, 1)
    aug = scipy.sparse.bmat([[dt * a.to_csr(), corner], [None, shift]], format="csc")
    last = np.zeros(n + k, dtype=aug.dtype)
    last[-1] = 1.0
    return expm_multiply(aug, last)[:n]


class TestKrylovOracle:
    """phi_action_krylov against scipy's expm_multiply (Al-Mohy & Higham)."""

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("name", ["advdiff2d", "schrodinger1d"])
    def test_matches_expm_multiply(self, name, k):
        if name == "advdiff2d":
            a, dt = build_advdiff_2d(20, 20, 10.0, 10.0, 1.0, 1e-3).linear_matrix, 0.1
        else:
            a, dt = build_schrodinger_1d(200, 10.0, 10.0).linear_matrix, 0.005
        assert a.is_complex == (name == "schrodinger1d")
        rng = np.random.default_rng(11)
        for _ in range(3):
            v = rng.standard_normal(a.n_rows)
            if a.is_complex:
                v = v + 1j * rng.standard_normal(a.n_rows)
            got = phi_action_krylov(a, dt, v, k)
            want = augmented_action(a, dt, v, k)
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


class TestDecayProfiles:
    @pytest.mark.parametrize("courant", [0.5, 5.0, 20.0])
    def test_no_violations_dirichlet_advection(self, courant):
        system = build_advection_dirichlet_1d(200, 10.0, 1.0)
        dx = system.mesh.dx[0]
        dt = courant * dx / 1.0
        report = verify_decay(system.linear_matrix, dt)
        assert report.s == 1
        assert report.violations == []

    def test_width_monotone_in_courant(self):
        system = build_advection_dirichlet_1d(200, 10.0, 1.0)
        dx = system.mesh.dx[0]
        widths = []
        for courant in (0.5, 5.0, 20.0):
            report = verify_decay(system.linear_matrix, courant * dx)
            widths.append(report.width_at(1e-12))
        assert widths[0] < widths[1] < widths[2]

    def test_cyclic_profile_shape(self):
        from lem import build_advdiff_1d

        system = build_advdiff_1d(64, 10.0, 1.0, 0.02)
        report = verify_decay(system.linear_matrix, 0.05, cyclic=True)
        assert report.cyclic
        assert len(report.rows) == 32  # distances measured around the wrap
        assert report.violations == []  # never flagged in cyclic mode

    def test_size_guard(self):
        big = BandedSparseMatrix(2001, 2001, np.arange(2001),
                                 np.arange(2001), np.ones(2001))
        with pytest.raises(ValueError):
            verify_decay(big, 0.1)
