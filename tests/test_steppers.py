"""Time integrators: exponential local/global runs and classical baselines."""

import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from lem import (
    BandedSparseMatrix,
    Mesh,
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

    def test_reference_method_in_report(self):
        system = build_advdiff_1d(32, 10.0, 1.0, 0.03)
        rep = run_global(system, StepperConfig(
            method="AdaptiveReference", dt=1.0, t_end=1.0))
        assert rep.method == "AdaptiveReference"
        assert rep.wall_seconds > 0


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
