"""Time integrators: exponential local/global runs and classical baselines."""

import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lem.expm
from lem import (
    BandedSparseMatrix,
    Mesh,
    PhiEvaluator,
    SemiDiscreteSystem,
    StepperConfig,
    build_advdiff_1d,
    build_burgers_1d,
    build_fv_advection_1d,
    build_porous_1d,
    build_schrodinger_1d,
    expm_dense,
    make_partition,
    run_global,
    run_lem,
    run_reference,
)
from lem.steppers import _StackedStep


def quadratic_system(n=24, seed=5):
    """Small smooth nonlinear system u' = A u + u*u for clean order studies."""
    rng = np.random.default_rng(seed)
    dense = np.zeros((n, n))
    for off in (-1, 0, 1):
        dense += np.diag(rng.standard_normal(n - abs(off)), off)
    dense -= 3.0 * np.eye(n)
    a = BandedSparseMatrix.from_dense(dense)

    def rhs(u, t):
        return a.matvec(u) + u * u

    def jac(u):
        return BandedSparseMatrix.from_dense(dense + np.diag(2.0 * u))

    x = np.arange(n)
    initial = 0.3 * np.sin(2 * np.pi * x / n) + 0.1
    return SemiDiscreteSystem(
        kind="quadratic", mesh=Mesh.line(n, 1.0), rhs=rhs, jacobian=jac,
        initial=initial)


def brute_rk4(system, t_end, dt=1e-4):
    u = system.initial.astype(float).copy()
    steps = round(t_end / dt)
    for s in range(steps):
        t = s * dt
        k1 = system.rhs(u, t)
        k2 = system.rhs(u + dt / 2 * k1, t + dt / 2)
        k3 = system.rhs(u + dt / 2 * k2, t + dt / 2)
        k4 = system.rhs(u + dt * k3, t + dt)
        u = u + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def observed_order(system, method, dts, t_end, u_ref, refresh=1):
    errs = []
    for dt in dts:
        cfg = StepperConfig(method=method, dt=dt, t_end=t_end,
                            jacobian_refresh_every=refresh)
        rep = run_global(system, cfg)
        errs.append(np.linalg.norm(rep.final_state - u_ref)
                    / np.linalg.norm(u_ref))
    return float(np.polyfit(np.log2(dts), np.log2(errs), 1)[0])


class TestConfig:
    def test_step_count(self):
        cfg = StepperConfig(method="ExpEuler", dt=0.1, t_end=3.0)
        assert cfg.n_steps == 30

    def test_rejects_nondivisible(self):
        with pytest.raises(ValueError):
            StepperConfig(method="ExpEuler", dt=0.2, t_end=0.5).n_steps

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            StepperConfig(method="LeapFrog", dt=0.1, t_end=0.2)


class TestLinearExactness:
    def test_exp_euler_is_exact_any_dt(self):
        system = build_advdiff_1d(128, 10.0, 1.0, 0.03)
        u_exact = expm_dense(2.0 * system.linear_matrix.to_dense()) @ system.initial
        for dt in (0.5, 0.1):
            rep = run_global(system, StepperConfig(
                method="ExpEuler", dt=dt, t_end=2.0))
            assert np.max(np.abs(rep.final_state - u_exact)) <= 1e-9

    def test_exprb_variants_reduce_to_exp_euler(self):
        system = build_advdiff_1d(64, 10.0, 1.0, 0.03)
        cfg = lambda m: StepperConfig(method=m, dt=0.1, t_end=0.5)
        base = run_global(system, cfg("ExpEuler")).final_state
        for method in ("ExpRB2", "ExpRB3"):
            got = run_global(system, cfg(method)).final_state
            assert np.max(np.abs(got - base)) <= 1e-11

    def test_exp_euler_rejects_nonlinear(self):
        system = build_burgers_1d(32, 10.0, 0.05)
        with pytest.raises(ValueError):
            run_global(system, StepperConfig(method="ExpEuler", dt=0.01, t_end=0.1))

    def test_semigroup_step_split(self):
        system = build_advdiff_1d(64, 10.0, 1.0, 0.03)
        one = run_global(system, StepperConfig(
            method="ExpEuler", dt=0.2, t_end=0.2)).final_state
        two = run_global(system, StepperConfig(
            method="ExpEuler", dt=0.1, t_end=0.2)).final_state
        assert np.max(np.abs(one - two)) <= 1e-10


class TestDegeneratePartition:
    CASES = [
        ("advdiff", "ExpEuler", lambda: build_advdiff_1d(64, 10.0, 1.0, 0.03), 0.05),
        ("schrodinger", "ExpEuler", lambda: build_schrodinger_1d(64, 10.0), 0.005),
        ("fv", "ExpRB2", lambda: build_fv_advection_1d(64, 10.0, 1.0), 0.05),
        ("burgers", "ExpRB3", lambda: build_burgers_1d(64, 10.0, 0.05), 0.025),
        ("porous", "ExpRB2", lambda: build_porous_1d(64, 10.0), 0.01),
    ]

    @pytest.mark.parametrize("name,method,make,dt", CASES,
                             ids=[c[0] for c in CASES])
    def test_single_domain_equals_global(self, name, method, make, dt):
        system = make()
        cfg = StepperConfig(method=method, dt=dt, t_end=10 * dt,
                            record_trajectory=True)
        part = make_partition(system.mesh, 1, 0)
        r_lem = run_lem(system, part, cfg)
        r_glob = run_global(system, cfg)
        for a, b in zip(r_lem.trajectory, r_glob.trajectory):
            scale = max(1.0, np.max(np.abs(b)))
            assert np.max(np.abs(a - b)) <= 1e-13 * scale


class TestLocalityError:
    def test_error_decreases_with_buffer(self):
        system = build_advdiff_1d(400, 10.0, 1.0, 0.03)
        cfg = StepperConfig(method="ExpEuler", dt=0.1, t_end=3.0)
        u_glob = run_global(system, cfg).final_state
        errs = []
        for b in (5, 10, 14, 18):
            part = make_partition(system.mesh, 8, b)
            u_lem = run_lem(system, part, cfg).final_state
            errs.append(np.max(np.abs(u_lem - u_glob)))
        assert errs[0] > errs[1] > errs[2] > errs[3]
        assert errs[3] <= 1e-6

    @staticmethod
    def overlap_gap(system, cfg, b):
        part = make_partition(system.mesh, 2, b)  # locals are everything
        u_lem = run_lem(system, part, cfg).final_state
        u_glob = run_global(system, cfg).final_state
        return np.max(np.abs(u_lem - u_glob))

    def test_maximal_overlap_recovers_global(self):
        system = build_advdiff_1d(64, 10.0, 1.0, 0.03)
        cfg = StepperConfig(method="ExpEuler", dt=0.1, t_end=0.1)
        assert self.overlap_gap(system, cfg, 32) <= 1e-12

    OVERLAP_CASES = [
        # local ExpRB3 stages, which evaluate the embedded nonlinear rhs
        ("burgers-exprb3", lambda: build_burgers_1d(64, 10.0, 0.05),
         dict(method="ExpRB3", dt=0.025, t_end=0.25), 32),
        # Krylov actions inside run_lem on a clipped Dirichlet mesh
        ("porous-krylov", lambda: build_porous_1d(64, 10.0),
         dict(method="ExpRB2", dt=0.01, t_end=0.1,
              phi_mode="KrylovAction"), 64),
    ]

    @pytest.mark.parametrize("name,make,kwargs,b", OVERLAP_CASES,
                             ids=[c[0] for c in OVERLAP_CASES])
    def test_maximal_overlap_recovers_global_nonlinear(self, name, make,
                                                       kwargs, b):
        cfg = StepperConfig(**kwargs)
        assert self.overlap_gap(make(), cfg, b) <= 1e-12

    def test_krylov_mode_matches_dense(self):
        system = build_advdiff_1d(128, 10.0, 1.0, 0.03)
        part = make_partition(system.mesh, 4, 10)
        dense = run_lem(system, part, StepperConfig(
            method="ExpEuler", dt=0.1, t_end=0.5)).final_state
        kry = run_lem(system, part, StepperConfig(
            method="ExpEuler", dt=0.1, t_end=0.5,
            phi_mode="KrylovAction")).final_state
        assert np.max(np.abs(dense - kry)) <= 1e-8
        rep = run_lem(system, part, StepperConfig(
            method="ExpEuler", dt=0.1, t_end=0.5, phi_mode="KrylovAction"))
        assert rep.krylov_avg_dim > 0


class TestKrylovMisses:
    @staticmethod
    def krylov_cell(dt):
        system = build_advdiff_1d(200, 10.0, 1.0, 0.03)
        part = make_partition(system.mesh, 4, 8)
        return run_lem(system, part, StepperConfig(
            method="ExpEuler", dt=dt, t_end=4.0, phi_mode="KrylovAction"))

    def test_misses_reported_once_per_cell(self):
        rep = self.krylov_cell(2.0)
        assert rep.warnings == [
            "phi_action_krylov: no convergence within m_max=60 "
            "in 3 of 8 applications"]

    def test_concurrent_cells_keep_their_own_warnings(self):
        # cells run side by side, as under run_sweep's cell pool: each
        # report must carry its own misses only, and no run may leave
        # warning filters behind
        filters = list(warnings.filters)
        dts = (2.0, 0.05, 2.0, 0.05)  # non-converging, converging, twice
        sequential = {dt: self.krylov_cell(dt).warnings for dt in set(dts)}
        assert sequential[2.0] and sequential[0.05] == []
        with ThreadPoolExecutor(2) as pool:
            reports = list(pool.map(self.krylov_cell, dts))
        for dt, rep in zip(dts, reports):
            assert rep.warnings == sequential[dt]
        assert warnings.filters == filters


class TestOrders:
    def test_rosenbrock_orders_smooth(self):
        system = quadratic_system()
        t_end = 0.4
        u_ref = brute_rk4(system, t_end)
        dts = (0.1, 0.05, 0.025)
        assert observed_order(system, "ExpRB2", dts, t_end, u_ref) == \
            pytest.approx(2.0, abs=0.3)
        assert observed_order(system, "ExpRB3", dts, t_end, u_ref) == \
            pytest.approx(3.0, abs=0.3)

    def test_classical_orders_smooth(self):
        system = quadratic_system()
        t_end = 0.4
        u_ref = brute_rk4(system, t_end)
        dts = (0.1, 0.05, 0.025)
        assert observed_order(system, "RK2", dts, t_end, u_ref) == \
            pytest.approx(2.0, abs=0.3)
        assert observed_order(system, "RK3", dts, t_end, u_ref) == \
            pytest.approx(3.0, abs=0.3)
        assert observed_order(system, "RK4", dts, t_end, u_ref) == \
            pytest.approx(4.0, abs=0.3)
        assert observed_order(system, "CrankNicolson", dts, t_end, u_ref) == \
            pytest.approx(2.0, abs=0.3)

    def test_stale_jacobian_keeps_exprb2_order(self):
        # refreshing every five steps must not break second order
        system = quadratic_system()
        t_end = 0.4
        u_ref = brute_rk4(system, t_end)
        order = observed_order(system, "ExpRB2", (0.1, 0.05, 0.025),
                               t_end, u_ref, refresh=5)
        assert order == pytest.approx(2.0, abs=0.4)


class TestConservation:
    def test_schrodinger_norm_preserved(self):
        system = build_schrodinger_1d(128, 10.0)
        rep = run_global(system, StepperConfig(
            method="ExpEuler", dt=0.005, t_end=0.5))
        n0 = np.linalg.norm(system.initial)
        assert abs(np.linalg.norm(rep.final_state) - n0) <= 1e-9 * n0

    def test_fv_mass_preserved(self):
        system = build_fv_advection_1d(100, 10.0, 1.0)
        rep = run_global(system, StepperConfig(
            method="ExpRB2", dt=0.05, t_end=1.0))
        assert np.sum(rep.final_state) == pytest.approx(
            np.sum(system.initial), abs=1e-10)


class TestRunReference:
    def test_matches_exponential_exact(self):
        system = build_advdiff_1d(64, 10.0, 1.0, 0.03)
        u_ref = run_reference(system, 1.0, 1e-9)
        u_exact = expm_dense(system.linear_matrix.to_dense()) @ system.initial
        assert np.max(np.abs(u_ref - u_exact)) <= 1e-7

    def test_rejects_loose_tol(self):
        system = build_advdiff_1d(32, 10.0, 1.0, 0.03)
        with pytest.raises(ValueError):
            run_reference(system, 1.0, 1e-4)


class TestReportContents:
    def test_fields_filled(self):
        system = build_advdiff_1d(64, 10.0, 1.0, 0.025)
        part = make_partition(system.mesh, 4, 6)
        rep = run_lem(system, part, StepperConfig(
            method="ExpEuler", dt=0.1, t_end=0.5))
        assert rep.case == system.kind
        assert rep.method == "ExpEuler"
        assert rep.D == 4 and rep.B == 6
        assert rep.courant == pytest.approx(0.64)
        assert rep.dof_updates_per_step == 64 + 2 * 6 * 4
        assert rep.wall_seconds > 0
        assert rep.warnings == []

    def test_trajectory_length(self):
        system = build_advdiff_1d(32, 10.0, 1.0, 0.03)
        rep = run_global(system, StepperConfig(
            method="RK4", dt=0.05, t_end=0.25, record_trajectory=True))
        assert len(rep.trajectory) == 6  # initial plus five steps
        assert np.array_equal(rep.trajectory[0], system.initial)


# ---------------------------------------------------------------------------
# the stacked step against a frozen per-subdomain reference


class _RefCache:
    __slots__ = ("a_loc", "halo", "phi", "g_shift", "idx")

    def __init__(self, a_loc, halo, phi, g_shift, idx):
        self.a_loc = a_loc
        self.halo = halo
        self.phi = phi
        self.g_shift = g_shift
        self.idx = idx


def _ref_build_caches(system, part, u, t_n, cfg):
    if system.is_linear:
        jac = system.linear_matrix
        g_shift = None
    else:
        jac = system.jacobian(u)
        g_shift = system.rhs(u, t_n) - jac.matvec(u)
    order_max = 3 if cfg.method == "ExpRB3" else 1
    caches = []
    for m_i in part.locals:
        idx = m_i.indices
        a_loc = jac.restrict(m_i, m_i)
        halo = jac.halo(m_i, m_i)
        if cfg.phi_mode == "KrylovAction":
            phi = PhiEvaluator.krylov(a_loc, cfg.dt, order_max)
        else:
            phi = PhiEvaluator.dense(a_loc, cfg.dt, order_max)
        caches.append(_RefCache(
            a_loc=a_loc, halo=halo, phi=phi,
            g_shift=None if g_shift is None else g_shift[idx], idx=idx))
    return caches


def _ref_local_step(system, cache, u, t_n, dt, method):
    v = u[cache.idx]
    if method == "ExpRB3" and not system.is_linear:
        def f_loc(w):
            full = u.copy()
            full[cache.idx] = w
            return system.rhs(full, t_n)[cache.idx]

        f_n = f_loc(v)
        u_2 = v + dt * cache.phi.apply(1, f_n)
        dn = f_loc(u_2) - f_n - cache.a_loc.matvec(u_2 - v)
        return u_2 + 2 * dt * cache.phi.apply(3, dn)

    w = cache.a_loc.matvec(v) + cache.halo.matvec(u)
    if cache.g_shift is not None:
        w = w + cache.g_shift
    return v + dt * cache.phi.apply(1, w)


def _ref_gather(part, locals_out, u_next):
    dtype = np.result_type(u_next.dtype, *(v.dtype for v in locals_out))
    out = np.empty(part.n_total, dtype=dtype)
    pos = np.empty(part.n_total, dtype=np.int64)
    for i, v_loc in enumerate(locals_out):
        pos[part.locals[i].indices] = np.arange(len(part.locals[i]))
        d_i = part.interiors[i].indices
        out[d_i] = v_loc[pos[d_i]]
    return out


def reference_run_lem(system, part, cfg):
    """One subdomain at a time, as run_lem stepped before it was stacked."""
    refresh = cfg.refresh_interval(system)
    u = np.array(system.initial, copy=True)
    caches = None
    for s in range(cfg.n_steps):
        t_n = s * cfg.dt
        if caches is None or (refresh is not None and s % refresh == 0):
            caches = _ref_build_caches(system, part, u, t_n, cfg)
        locals_out = [_ref_local_step(system, c, u, t_n, cfg.dt, cfg.method)
                      for c in caches]
        u = _ref_gather(part, locals_out, u)
    return u


@st.composite
def banded_systems(draw):
    """A small random banded system on a 1D or column-split 2D mesh.

    Nonlinear systems add a quadratic term, u' = A u + 0.1 u^2, with
    Jacobian A + 0.2 diag(u).
    """
    dim = draw(st.sampled_from((1, 2)))
    boundary = draw(st.sampled_from(("periodic", "dirichlet")))
    complex_ = draw(st.booleans())
    linear = draw(st.booleans())
    nx = draw(st.integers(8, 40 if dim == 1 else 12))
    if dim == 1:
        mesh = Mesh.line(nx, 10.0, boundary=boundary)
        ny, stride = 1, 1
    else:
        ny = draw(st.integers(4, 5))
        mesh = Mesh.grid(nx, ny, 10.0, 5.0, boundary=boundary)
        stride = ny  # neighbours along the split axis
    n = mesh.n_total
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def draw_vals(size):
        vals = rng.standard_normal(size)
        return vals + 1j * rng.standard_normal(size) if complex_ else vals

    rows, cols, vals = [np.arange(n)], [np.arange(n)], [draw_vals(n) - 2.0]
    for off in (1, 2, stride, 2 * stride) if stride > 1 else (1, 2):
        src = np.arange(n)
        for sign in (1, -1):
            dst = src + sign * off
            keep = (dst >= 0) & (dst < n)
            if boundary == "periodic":
                dst, keep = dst % n, np.ones(n, dtype=bool)
            rows.append(src[keep])
            cols.append(dst[keep])
            vals.append(0.5 * draw_vals(int(keep.sum())))
    a = BandedSparseMatrix(n, n, np.concatenate(rows), np.concatenate(cols),
                           np.concatenate(vals))
    initial = draw_vals(n) * 0.5
    if linear:
        return SemiDiscreteSystem(
            kind="random", mesh=mesh, is_linear=True, linear_matrix=a,
            initial=initial, rhs=lambda u, t: a.matvec(u),
            jacobian=lambda u: a)
    dense = a.to_dense()
    return SemiDiscreteSystem(
        kind="random", mesh=mesh, initial=initial,
        rhs=lambda u, t: a.matvec(u) + 0.1 * u * u,
        jacobian=lambda u: BandedSparseMatrix.from_dense(
            dense + np.diag(0.2 * u)))


@st.composite
def stepping_cases(draw):
    system = draw(banded_systems())
    n_axis = system.mesh.n[0]
    d = draw(st.integers(1, min(8, n_axis)))
    b_max = 6
    if system.mesh.boundary[0] == "periodic" and d > 1:
        b_max = min(b_max, n_axis - -(-n_axis // d))
    part = make_partition(system.mesh, d, draw(st.integers(0, b_max)))
    methods = ("ExpEuler", "ExpRB2", "ExpRB3") if system.is_linear else (
        "ExpRB2", "ExpRB3")
    cfg = StepperConfig(
        method=draw(st.sampled_from(methods)), dt=0.05, t_end=0.2,
        jacobian_refresh_every=2,
        phi_mode=draw(st.sampled_from(("DenseStored", "KrylovAction"))))
    return system, part, cfg


class TestStackedStep:
    @staticmethod
    def recording_krylov():
        """Patch the Krylov worker to log (dimension, converged) per call."""
        log = []
        worker = lem.expm._phi_action_krylov

        def logged(*args, **kwargs):
            result, m_used, converged = worker(*args, **kwargs)
            log.append((m_used, converged))
            return result, m_used, converged
        return log, mock.patch.object(lem.expm, "_phi_action_krylov", logged)

    @settings(max_examples=60, deadline=None)
    @given(stepping_cases())
    def test_matches_per_subdomain_reference(self, case):
        system, part, cfg = case
        log, patch = self.recording_krylov()
        with patch:
            u_ref = reference_run_lem(system, part, cfg)
            ref_log = sorted(log)
            log.clear()
            rep = run_lem(system, part, cfg)
        scale = max(1.0, float(np.max(np.abs(u_ref))))
        assert np.max(np.abs(rep.final_state - u_ref)) <= 1e-12 * scale
        assert sorted(log) == ref_log

        # the runs are slices that tile the flat vector in partition order;
        # each is a maximal sequence of consecutive equal-size subdomains,
        # and a Krylov one has a single member
        step = _StackedStep(system, part, system.initial, 0.0, cfg)
        off = list(part.offsets)
        sizes = [len(m_i) for m_i in part.locals]
        stop, first, run_sizes = 0, 0, []
        for sel, shape, _ in step.runs:
            assert isinstance(sel, slice) and sel.start == stop
            count = shape[0] if len(shape) == 2 else 1
            assert off[first] == sel.start and off[first + count] == sel.stop
            assert sizes[first:first + count] == [shape[-1]] * count
            if cfg.phi_mode == "KrylovAction":
                assert count == 1
            stop, first = sel.stop, first + count
            run_sizes.append(shape[-1])
        assert stop == part.dof_updates_per_step and first == part.D
        if cfg.phi_mode == "DenseStored":
            assert all(a != b for a, b in zip(run_sizes, run_sizes[1:]))

    @settings(max_examples=30, deadline=None)
    @given(stepping_cases())
    def test_single_domain_equals_global_bitwise(self, case):
        system, _, cfg = case
        cfg = StepperConfig(method=cfg.method, dt=cfg.dt, t_end=cfg.t_end,
                            jacobian_refresh_every=2, phi_mode=cfg.phi_mode,
                            record_trajectory=True)
        r_lem = run_lem(system, make_partition(system.mesh, 1, 0), cfg)
        r_glob = run_global(system, cfg)
        for a, b in zip(r_lem.trajectory, r_glob.trajectory):
            assert np.array_equal(a, b)

    def test_groups_are_runs(self):
        # the clipped Dirichlet ends are runs of one on either side of the
        # run of unclipped subdomains
        system = build_porous_1d(64, 10.0)
        part = make_partition(system.mesh, 4, 6)
        step = _StackedStep(system, part, system.initial, 0.0, StepperConfig(
            method="ExpRB2", dt=0.01, t_end=0.01))
        assert [shape for _, shape, _ in step.runs] == [(22,), (2, 28), (22,)]
        assert [(sel.start, sel.stop) for sel, _, _ in step.runs] == [
            (0, 22), (22, 78), (78, 100)]
        assert step.a_sum.shape == (100, 100) and step.halo.shape == (100, 64)
