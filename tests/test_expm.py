"""Exponential and phi-function kernels: dense, Krylov, and decay bounds."""

import math
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.linalg import expm_multiply

import lem.expm
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
from lem.expm import (_THETA13, KRYLOV_CHECK_EVERY, KRYLOV_M_MAX,
                      _phi_action_krylov, phi_hessenberg_e1)
from lem.models import (
    build_advdiff_1d,
    build_advdiff_2d,
    build_advection_dirichlet_1d,
    build_burgers_1d,
    build_porous_1d,
    build_schrodinger_1d,
)
from lem.partition import make_partition


def random_banded(n, half_bw, rng, scale=1.0):
    dense = np.zeros((n, n))
    for off in range(-half_bw, half_bw + 1):
        d = rng.standard_normal(n - abs(off)) * scale
        dense += np.diag(d, off)
    return dense


def mp_expm(a, dps=30):
    """exp(a) in mpmath at `dps` digits, rounded to a's precision: the k = 0
    oracle independent of scipy, whose expm `expm_dense` calls."""
    with mpmath.workdps(dps):
        e = mpmath.expm(mpmath.matrix(a.tolist())).tolist()
    to_num = complex if np.iscomplexobj(a) else float
    return np.array([[to_num(x) for x in row] for row in e])


class TestExpmDense:
    def test_zero_matrix(self):
        assert np.array_equal(expm_dense(np.zeros((4, 4))), np.eye(4))

    def test_rotation_block(self):
        th = 0.7
        a = np.array([[0.0, -th], [th, 0.0]])
        want = np.array([[math.cos(th), -math.sin(th)],
                         [math.sin(th), math.cos(th)]])
        assert np.allclose(expm_dense(a), want, rtol=0, atol=1e-15)

    def test_matches_mpmath_random(self):
        rng = np.random.default_rng(42)
        for n in (5, 20, 30):
            a = rng.standard_normal((n, n))
            ours = expm_dense(a)
            ref = mp_expm(a)
            assert np.linalg.norm(ours - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_large_norm_scaling_squaring(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((30, 30)) * 50.0
        ours = expm_dense(a)
        ref = mp_expm(a)
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

    @pytest.mark.parametrize("dtype, want", [
        (np.float32, np.float64), (np.int64, np.float64), (np.bool_, np.float64),
        (np.float64, np.float64), (np.complex64, np.complex128),
        (np.complex128, np.complex128)])
    def test_result_is_double_precision(self, dtype, want):
        a = np.array([[0, 1], [1, 1]], dtype=dtype)
        for k in range(4):
            assert expm_dense(a, k).dtype == want
            assert expm_dense(np.stack([a, a]), k).dtype == want
        assert expm_dense(np.ones((1, 1), dtype=dtype)).dtype == want

    @pytest.mark.parametrize("a", [1000.0 * np.eye(3), 1000.0 * np.ones((3, 3)),
                                   np.array([[800.0]]), 1000.0 * np.triu(np.ones((4, 4))),
                                   np.stack([np.eye(3), 1000.0 * np.ones((3, 3))])],
                             ids=["diagonal", "dense", "scalar", "triangular", "stack"])
    def test_overflow_raises_without_warning(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                expm_dense(a)

    def test_members_of_every_scipy_branch(self):
        # scipy treats 1 x 1, diagonal and triangular members apart from
        # the rest; in a stack or alone, each keeps its own result
        rng = np.random.default_rng(12)
        g = rng.standard_normal((6, 6))
        g /= np.abs(g).sum(axis=0).max()
        members = [np.diag(rng.standard_normal(6)), np.triu(g), np.tril(g),
                   np.triu(g, -1), g, np.zeros((6, 6))]
        for scale in (1e-3, 3.0, 40.0):
            stack = scale * np.array(members)
            got = expm_dense(stack)
            for member, m in zip(got, stack):
                assert np.array_equal(member, expm_dense(m))
                ref = mp_expm(m)
                assert np.linalg.norm(member - ref) <= 1e-13 * np.linalg.norm(ref)
            ones = stack[:, :1, :1]
            assert np.allclose(expm_dense(ones)[:, 0, 0], np.exp(ones[:, 0, 0]),
                               rtol=1e-14, atol=0)


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


# largest augmented matrix whose oracle exponential is taken in mpmath
# (about 0.35 s at 50 digits); larger ones take scipy's
MPMATH_MAX = 16


def augmented_phis(a, k):
    """[phi_0(A) .. phi_k(A)] from the exponential of the explicit (k+1)n
    matrix [[A, I, 0, ...], [0, 0, I, ...], ...].

    Up to MPMATH_MAX rows that exponential is mpmath's at 50 digits, else
    scipy's. On small matrices of large norm scipy's is not accurate
    enough for the 1e-12 bound: at n=3, k=1, scale 3 (the @example of
    `test_matches_augmented_oracle`) it is off by 1.05e-12 relative to the
    50-digit value, where `phi_dense_all` is off by 1.0e-15.
    """
    n = a.shape[0]
    w = np.zeros(((k + 1) * n, (k + 1) * n), dtype=np.promote_types(a.dtype, np.float64))
    w[:n, :n] = a
    for b in range(k):
        w[b * n:(b + 1) * n, (b + 1) * n:(b + 2) * n] = np.eye(n)
    if len(w) <= MPMATH_MAX:
        with mpmath.workdps(50):
            e = mpmath.expm(mpmath.matrix(w.tolist())).tolist()
        to_num = complex if np.iscomplexobj(w) else float
        e = np.array([[to_num(x) for x in row] for row in e], dtype=w.dtype)
    else:
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
    @example(n=3, k=1, complex_=False, scale=3.0, shape="full", seed=53818)
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

    def test_porous_jacobian_at_workload_step(self):
        # ||dt J||_1 = 96.5: five squarings of the k = 1 build
        system = build_porous_1d(400, 10.0)
        a = 0.005 * system.jacobian(system.initial).to_dense()
        assert math.ceil(math.log2(np.abs(a).sum(axis=0).max() / _THETA13)) == 5
        assert_blocks_close(phi_dense_all(a, 1), augmented_phis(a, 1), 1e-12)

    def test_complex_schrodinger_window(self):
        # the first (wrapping) window of the D = 4, B = 20 split of n = 400,
        # at the step of mu = 2: dt = 2 dx^2 / (1/2)
        system = build_schrodinger_1d(400, 10.0, 10.0, 0.5)
        window = make_partition(system.mesh, 4, 20).nodes[:1]
        dt = 2.0 * system.mesh.dx[0] ** 2 / 0.5
        a = dt * system.linear_matrix.restrict(window).to_dense()
        assert a.shape == (140, 140) and np.iscomplexobj(a)
        assert_blocks_close(phi_dense_all(a, 1), augmented_phis(a, 1), 1e-12)

    @pytest.mark.parametrize("n", [4, 5, 6, 9, 16, 33, 60])
    def test_periodic_band_wraps_onto_itself(self, n):
        # periodic tridiagonal (advection-diffusion, complex Schrodinger)
        # and pentadiagonal (random) operators: their corner entries sit on
        # cyclic diagonals, the band of the Pade polynomials (13 times
        # theirs) wraps around, and at n < 5 their own diagonals meet
        rng = np.random.default_rng(n)
        i = np.arange(n)
        penta = np.zeros((n, n))
        for off in range(-2, 3):
            penta[i, (i + off) % n] += rng.standard_normal(n)
        ops = [(build_advdiff_1d(n, 10.0, 1.0, 0.025).linear_matrix.to_dense(), 60.0),
               (build_schrodinger_1d(n, 10.0, 10.0, 0.5).linear_matrix.to_dense(), 60.0),
               (penta, 20.0)]
        for op, top in ops:
            op = op / np.abs(op).sum(axis=0).max()
            for scale, k in ((0.5, 3), (4.0, 2), (top, 1)):
                a = scale * op
                assert_blocks_close(phi_dense_all(a, k), augmented_phis(a, k), 1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_dirichlet_windows(self, d):
        # the clipped end windows and the interior windows of Dirichlet
        # porous-medium and advection splits, whose Pade bands outgrow the
        # window
        for system in (build_porous_1d(60, 10.0),
                       build_advection_dirichlet_1d(60, 10.0, 1.0)):
            jac = (system.linear_matrix if system.is_linear
                   else system.jacobian(system.initial)).to_dense()
            part = make_partition(system.mesh, d, 6)
            for nodes, size in zip(part.nodes, part.sizes):
                win = nodes[:size]
                op = jac[np.ix_(win, win)]
                op = op / np.abs(op).sum(axis=0).max()
                for scale, k in ((0.5, 3), (4.0, 2), (60.0, 1)):
                    a = scale * op
                    assert_blocks_close(phi_dense_all(a, k), augmented_phis(a, k), 1e-12)

    def test_top_block_row_shape(self):
        a = np.random.default_rng(2).standard_normal((7, 7))
        for k in range(4):
            assert expm_dense(a, k).shape == (7, 7 * (k + 1))
        assert np.array_equal(phi_dense_all(a, 2)[0], expm_dense(a, 2)[:, :7])

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
        ev_d = PhiEvaluator.dense(a, [a.n_rows], 0.05, order_max=3)
        ev_k = PhiEvaluator.krylov(a, 0.05, order_max=3)
        for k in (1, 3):
            v = rng.standard_normal(120)
            wd = ev_d.apply(k, v)
            wk = ev_k.apply(k, v)
            assert np.linalg.norm(wd - wk) <= 1e-9 * np.linalg.norm(wd)
        assert len(ev_k.krylov_dims) == 2
        assert all(1 <= m <= 60 for m in ev_k.krylov_dims)


def block_diagonal(blocks):
    """diag(A_1 ... A_G) of dense blocks on the zero-padded (G, L) stack, L
    the largest block, as `BandedSparseMatrix.restrict` lays it out."""
    width = max(len(b) for b in blocks)
    out = np.zeros((len(blocks) * width,) * 2,
                   dtype=np.result_type(*blocks))
    for i, b in enumerate(blocks):
        out[i * width:i * width + len(b), i * width:i * width + len(b)] = b
    return BandedSparseMatrix.from_dense(out)


# dense operators of sizes 4 and 7, real and complex; pool members 0 and 1
# are equal, so two picks of them share one phi build
_POOL_RNG = np.random.default_rng(29)
OPERATOR_POOL = [random_banded(4, 1, _POOL_RNG)]
OPERATOR_POOL += [OPERATOR_POOL[0].copy(),
                  random_banded(4, 1, _POOL_RNG, scale=3.0),
                  random_banded(7, 2, _POOL_RNG),
                  random_banded(7, 2, _POOL_RNG) + 1j * random_banded(7, 1, _POOL_RNG)]


class TestDistinctBuilds:
    """PhiEvaluator.dense builds phi once per distinct operator."""

    @settings(max_examples=60, deadline=None)
    @given(picks=st.lists(st.integers(0, len(OPERATOR_POOL) - 1), min_size=1,
                          max_size=6),
           order_max=st.integers(1, 3), dt=st.floats(0.01, 2.0),
           seed=st.integers(0, 2**32 - 1))
    @example(picks=[3, 3, 3], order_max=2, dt=0.5, seed=0)
    @example(picks=[4, 4], order_max=1, dt=0.5, seed=0)
    @example(picks=[0, 1, 4, 2, 0], order_max=3, dt=0.5, seed=0)
    def test_one_build_per_distinct_operator(self, picks, order_max, dt, seed):
        # a fresh copy per pick: sharing follows the entries, not identity
        ops = [BandedSparseMatrix.from_dense(OPERATOR_POOL[i]) for i in picks]
        distinct = {0 if i == 1 else i for i in picks}
        calls = []
        build = lem.expm.expm_dense

        def counted(a, k=0):
            calls.append(a.shape)
            return build(a, k)

        a_sum = block_diagonal([OPERATOR_POOL[i].copy() for i in picks])
        with mock.patch.object(lem.expm, "expm_dense", counted):
            ev = PhiEvaluator.dense(a_sum, [a.n_rows for a in ops], dt,
                                    order_max)
        # every call builds a (G, n, n) stack: count the members built
        assert all(len(shape) == 3 for shape in calls)
        assert sum(shape[0] for shape in calls) == len(distinct)
        shared = len(distinct) == 1
        assert ev.stored(0).ndim == (2 if shared else 3)

        rng = np.random.default_rng(seed)
        width = max(a.n_rows for a in ops)
        x = np.zeros((len(ops), width), dtype=complex)
        for i, a in enumerate(ops):
            x[i, :a.n_rows] = (rng.standard_normal(a.n_rows)
                               + 1j * rng.standard_normal(a.n_rows))
        for k in range(1, order_max + 1):
            got = ev.apply(k, x)
            assert got.shape == x.shape
            for i, a in enumerate(ops):
                n = a.n_rows
                phi = phi_dense_all(dt * a.to_dense(), order_max)[k]
                want = phi @ x[i, :n]
                scale = np.abs(phi).sum(axis=1).max() * np.abs(x[i]).max()
                assert np.abs(got[i, :n] - want).max() <= 1e-14 * scale
                assert not np.any(got[i, n:])  # padding stays zero

    def test_single_operator_keeps_views_of_its_build(self):
        a = BandedSparseMatrix.from_dense(OPERATOR_POOL[3])
        ev = PhiEvaluator.dense(a, [7], 0.5, 3)
        want = phi_dense_all(0.5 * a.to_dense(), 3)
        phi_0 = ev.stored(0)
        assert phi_0.shape == (7, 7) and phi_0.base is not None  # not copied
        assert np.array_equal(phi_0, want[0])
        # phi_k climbs on the rows it is given: a vector and the one-row
        # stack of it take the same products
        x = np.random.default_rng(5).standard_normal(7)
        for k in range(1, 4):
            got = ev.apply(k, x)
            assert np.array_equal(got, ev.apply(k, x[None])[0])
            scale = np.abs(want[k]).sum(axis=1).max() * np.abs(x).max()
            assert np.abs(got - want[k] @ x).max() <= 1e-14 * scale
        for k in (1, 4):
            with pytest.raises(ValueError):
                ev.stored(k)
        with pytest.raises(ValueError):
            PhiEvaluator.krylov(a, 0.5, 3).stored(0)


@st.composite
def ladder_stacks(draw):
    """A random banded (G, n, n) stack whose members take 0 to 8 squarings
    at dt = 0.5, real or complex, with a stable spectrum so that nothing
    overflows; the last member may repeat the first."""
    g = draw(st.integers(1, 5))
    n = draw(st.integers(1, 14))
    complex_ = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = []
    for s in draw(st.lists(st.integers(0, 8), min_size=g, max_size=g)):
        m = random_banded(n, draw(st.integers(0, min(3, n - 1))), rng)
        if complex_:
            m = m + 1j * random_banded(n, min(1, n - 1), rng)
        m /= max(np.abs(m).sum(axis=0).max(), 1e-300)
        m -= np.eye(n)  # the spectral abscissa is at most 0
        # 0.5 ||A||_1 = theta_13 2^(s - 1/2): exactly s squarings
        target = _THETA13 * 2.0 ** (s - 0.5) if s else draw(st.floats(0.0, 1.0))
        norm = np.abs(m).sum(axis=0).max()
        stack.append(m * (2 * target / norm) if norm else m)
    if g > 1 and draw(st.booleans()):
        stack[-1] = stack[0]
    return np.array(stack)


class TestPhiLadder:
    """PhiEvaluator.apply climbs phi_k on its vectors up each member's own
    squaring ladder."""

    @settings(max_examples=60, deadline=None)
    @given(stack=ladder_stacks(), k=st.integers(1, 3),
           lead=st.sampled_from([(), (3,), (2, 2)]),
           seed=st.integers(0, 2**32 - 1))
    def test_apply_matches_phi_row_and_own_evaluator(self, stack, k, lead, seed):
        g, n, _ = stack.shape
        dt = 0.5
        ev = PhiEvaluator.dense(block_diagonal(list(stack)), [n] * g, dt, k)
        squarings = lem.expm._phi_squarings(dt * stack)
        assert squarings.max() <= 8
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(lead + (g, n))
        if np.iscomplexobj(stack):
            x = x + 1j * rng.standard_normal(x.shape)
        for j in range(1, k + 1):
            got = ev.apply(j, x)
            assert got.shape == x.shape
            for i, a in enumerate(stack):
                phi = phi_dense_all(dt * a, k)[j]
                want = x[..., i, :] @ phi.T
                scale = np.abs(phi).sum(axis=1).max() * np.abs(x[..., i, :]).max()
                assert np.abs(got[..., i, :] - want).max() <= 1e-14 * scale
                own = PhiEvaluator.dense(BandedSparseMatrix.from_dense(a), [n], dt, k)
                assert np.array_equal(got[..., i:i + 1, :],
                                      own.apply(j, x[..., i:i + 1, :]))
                if j == 1:
                    phi_0 = ev.stored(0)
                    assert np.array_equal(phi_0 if phi_0.ndim == 2 else phi_0[i],
                                          own.stored(0))


def random_hessenberg(m, rng, scale, complex_):
    h = rng.standard_normal((m, m))
    if complex_:
        h = h + 1j * rng.standard_normal((m, m))
    return scale * np.triu(h, -1)


class TestKrylovKernel:
    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 60), k=st.integers(1, 3), complex_=st.booleans(),
           scale=st.floats(1e-3, 3.0), seed=st.integers(0, 2**32 - 1))
    # scipy's expm alone (few squarings) is off by 1.2e-12 here
    @example(m=44, k=1, complex_=False, scale=3.0, seed=726301)
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


# member scales: zero, below theta_13 (no squaring), and three different
# squaring counts for matrices of 1-norm about 1
STACK_SCALES = (0.0, 1e-3, 2.0, 40.0, 300.0)

# a member of subnormal 1-norm beside members that need squarings
SUBNORMAL_STACK = np.array([[[5e-324, 0.0], [0.0, 0.0]],
                            [[-20.0, 20.0], [3.0, 1.0]],
                            [[150.0, -100.0], [50.0, -150.0]]])


@st.composite
def matrix_stacks(draw, hessenberg=False, banded=False):
    """A (G, n, n) stack whose members have their own squaring counts, and
    with `banded`, each its own cyclic band (some members then have zeros
    on diagonals that others use)."""
    g = draw(st.integers(1, 5))
    n = draw(st.integers(1, 12))
    complex_ = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((g, n, n))
    if complex_:
        a = a + 1j * rng.standard_normal((g, n, n))
    if banded:
        d = np.subtract.outer(np.arange(n), np.arange(n)) % n
        widths = draw(st.lists(st.integers(0, n), min_size=g, max_size=g))
        a *= np.minimum(d, n - d) <= np.array(widths)[:, None, None]
    a /= np.abs(a).sum(axis=1).max(axis=1)[:, None, None]
    scales = draw(st.lists(st.sampled_from(STACK_SCALES) | st.floats(0.0, 300.0),
                           min_size=g, max_size=g))
    a *= np.array(scales)[:, None, None]
    return np.triu(a, -1) if hessenberg else a


class TestStackedExponential:
    @settings(max_examples=60, deadline=None)
    @given(matrix_stacks())
    @example(SUBNORMAL_STACK)
    def test_stack_member_is_single_call_bitwise(self, stack):
        got = expm_dense(stack)
        assert got.shape == stack.shape
        for member, a in zip(got, stack):
            assert np.array_equal(member, expm_dense(a))

    @settings(max_examples=60, deadline=None)
    @given(matrix_stacks(hessenberg=True), st.integers(1, 3))
    def test_hessenberg_stack_member_is_single_call_bitwise(self, stack, k):
        got = phi_hessenberg_e1(stack, k)
        assert got.shape == stack.shape[:2]
        for member, h in zip(got, stack):
            assert np.array_equal(member, phi_hessenberg_e1(h, k))

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_every_kind_of_member_in_one_stack(self, complex_):
        # zero, below theta_13 and three squaring counts, side by side
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 9, 9)) + (1j * rng.standard_normal((5, 9, 9))
                                              if complex_ else 0)
        a /= np.abs(a).sum(axis=1).max(axis=1)[:, None, None]
        a *= np.array(STACK_SCALES)[:, None, None]
        got = expm_dense(a)
        assert np.array_equal(got[0], np.eye(9))
        for member, m in zip(got, a):
            assert np.array_equal(member, expm_dense(m))
            ref = mp_expm(m)
            assert np.linalg.norm(member - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_subnormal_norm_takes_no_squaring(self):
        assert np.array_equal(expm_dense(np.array([[5e-324]])), np.eye(1))
        got = expm_dense(SUBNORMAL_STACK)
        for member, m in zip(got, SUBNORMAL_STACK):
            assert np.array_equal(member, expm_dense(m))
            ref = mp_expm(m)
            assert np.linalg.norm(member - ref) <= 1e-12 * np.linalg.norm(ref)

    @settings(max_examples=60, deadline=None)
    @given(matrix_stacks(banded=True), st.integers(1, 3))
    @example(SUBNORMAL_STACK, 1)
    def test_phi_stack_member_is_single_call_bitwise(self, stack, k):
        got = expm_dense(stack, k)
        g, n, _ = stack.shape
        assert got.shape == (g, n, (k + 1) * n)
        for member, a in zip(got, stack):
            assert np.array_equal(member, expm_dense(a, k))


class TestBatchedKrylov:
    """One Arnoldi process over ragged members against G = 1 runs."""

    SIZES = (30, 40, 25, 40, 33)

    def members(self, complex_):
        # an ordinary member, a zero vector, a happy breakdown (v on an
        # invariant block of size 6), an m_max miss, and another ordinary
        rng = np.random.default_rng(17)

        def draw(*shape):
            x = rng.standard_normal(shape)
            return x + 1j * rng.standard_normal(shape) if complex_ else x

        blocks, vecs = [], []
        for i, size in enumerate(self.SIZES):
            dense = random_banded(size, 2, rng, scale=(0.3, 1.0, 1.0, 25.0, 0.5)[i])
            if complex_:
                dense = dense + 1j * random_banded(size, 1, rng, scale=0.2)
            v = draw(size)
            if i == 1:
                v = np.zeros(size, dtype=v.dtype)
            if i == 2:
                dense[:6, 6:] = dense[6:, :6] = 0.0
                v[6:] = 0.0
            blocks.append(BandedSparseMatrix.from_dense(dense))
            vecs.append(v)
        return blocks, vecs

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_members_match_single_runs(self, complex_):
        blocks, vecs = self.members(complex_)
        g, size = len(self.SIZES), max(self.SIZES)
        # block i acts on row i of the zero-padded (G, L) stack
        padded = BandedSparseMatrix(
            g * size, g * size,
            np.concatenate([b.rows + i * size for i, b in enumerate(blocks)]),
            np.concatenate([b.cols + i * size for i, b in enumerate(blocks)]),
            np.concatenate([b.vals for b in blocks]))
        stack = np.zeros((g, size), dtype=vecs[0].dtype)
        for i, v in enumerate(vecs):
            stack[i, :v.size] = v
        got, m_used, converged = _phi_action_krylov(padded, 0.2, stack, 1,
                                                    tol=1e-12, m_max=14)
        singles = [_phi_action_krylov(b, 0.2, v, 1, tol=1e-12, m_max=14)
                   for b, v in zip(blocks, vecs)]
        assert [(m, c) for _, m, c in singles] == list(zip(m_used, converged))
        assert [m for _, m, _ in singles][1:4] == [0, 6, 14]
        assert list(converged) == [True, True, True, False, True]
        for i, (want, _, _) in enumerate(singles):
            scale = max(np.linalg.norm(want), 1e-300)
            assert np.linalg.norm(got[i, :want.size] - want) <= 1e-12 * scale
            assert not np.any(got[i, want.size:])  # padding stays zero

        # the evaluator takes the stack whole, one dimension per member
        ev = PhiEvaluator.krylov(padded, 0.2, order_max=1)
        out = ev.apply(1, stack)
        assert out.shape == stack.shape
        for i, v in enumerate(vecs):
            want, m, _ = _phi_action_krylov(blocks[i], 0.2, v, 1)
            scale = max(np.linalg.norm(want), 1e-300)
            assert np.linalg.norm(out[i, :v.size] - want) <= 1e-12 * scale
            assert not np.any(out[i, v.size:])
            assert ev.krylov_dims[i] == m


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
