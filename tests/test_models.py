"""Semi-discrete model builders: stencils, Jacobians, and exact solutions."""

import numpy as np
import pytest

from lem import (
    BarenblattParams,
    Mesh,
    SemiDiscreteSystem,
    build_advdiff_1d,
    build_advdiff_2d,
    build_advection_dirichlet_1d,
    build_burgers_1d,
    build_fv_advection_1d,
    build_porous_1d,
    build_schrodinger_1d,
    exact_advdiff_fourier,
    exact_barenblatt,
    exact_square_wave,
    stability_params,
)
from lem.models import _stencil, _stencil_index
from lem.sparse import BandedSparseMatrix


def fd_jacobian(system, u, h=1e-6):
    n = u.size
    jac = np.zeros((n, n), dtype=complex if np.iscomplexobj(u) else float)
    for j in range(n):
        e = np.zeros_like(u)
        e[j] = h
        jac[:, j] = (system.rhs(u + e, 0.0) - system.rhs(u - e, 0.0)) / (2 * h)
    return jac


def kink_safe_state(system, seed, smooth_scale=0.3):
    """Smooth random state kept away from limiter branch switches.

    Central differencing of a minmod stencil is only valid while no
    slope-comparison quantity changes sign inside the probe interval, so
    advance the seed until all branch margins clear 1e-4.
    """
    mesh = system.mesh
    n = mesh.n_total
    x = np.arange(n)
    while True:
        rng = np.random.default_rng(seed)
        coef = rng.standard_normal(6)
        u = sum(c * np.sin(2 * np.pi * (k + 1) * x / n + k)
                for k, c in enumerate(coef[:3]))
        u += sum(c * np.cos(2 * np.pi * (k + 1) * x / n)
                 for k, c in enumerate(coef[3:]))
        u = smooth_scale * u
        dl = u - np.roll(u, 1)
        dr = np.roll(u, -1) - u
        margin = min(np.min(np.abs(dl * dr)),
                     np.min(np.abs(np.abs(dl) - np.abs(dr))))
        if margin > 1e-4 and np.min(np.abs(u)) > 1e-3:
            return u
        seed += 1000


class TestSemiDiscreteSystem:
    def test_linear_exactly_when_it_has_a_matrix(self):
        a = BandedSparseMatrix.from_dense(np.eye(4))
        fields = dict(kind="t", mesh=Mesh.line(4, 1.0), rhs=lambda u, t: u,
                      jacobian=lambda u: a, initial=np.ones(4))
        assert SemiDiscreteSystem(**fields, linear_matrix=a).is_linear
        assert not SemiDiscreteSystem(**fields).is_linear
        with pytest.raises(TypeError):
            SemiDiscreteSystem(**fields, is_linear=True)


class TestMesh:
    def test_periodic_spacing(self):
        m = Mesh.line(400, 10.0)
        assert m.dx == (0.025,)
        assert m.n_total == 400
        x = m.coords()
        assert x[0] == 0.0 and x[-1] == pytest.approx(10.0 - 0.025)

    def test_dirichlet_spacing(self):
        m = Mesh.line(99, 10.0, boundary="dirichlet")
        assert m.dx == (0.1,)
        x = m.coords()
        assert x[0] == pytest.approx(0.1) and x[-1] == pytest.approx(9.9)

    def test_grid(self):
        m = Mesh.grid(24, 12, 10.0, 5.0)
        assert m.dim == 2 and m.n_total == 288
        assert m.dx == (10.0 / 25, 5.0 / 13)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            Mesh.line(3, 1.0)


class TestAdvDiff1D:
    def test_stencil_row(self):
        system = build_advdiff_1d(8, 8.0, 2.0, 0.5)  # dx = 1
        a = system.linear_matrix.to_dense()
        # upwindless centered stencil: u/(2 dx) +/- and -2 nu/dx^2 center
        assert a[3, 2] == pytest.approx(2.0 / 2 + 0.5)
        assert a[3, 3] == pytest.approx(-1.0)
        assert a[3, 4] == pytest.approx(-2.0 / 2 + 0.5)
        assert a[0, 7] == pytest.approx(1.5)  # periodic wrap

    def test_row_sums_vanish(self):
        system = build_advdiff_1d(32, 10.0, 1.0, 0.07)
        a = system.linear_matrix.to_dense()
        assert np.max(np.abs(a.sum(axis=1))) <= 1e-12

    def test_negative_viscosity_rejected(self):
        with pytest.raises(ValueError):
            build_advdiff_1d(32, 10.0, 1.0, -0.01)

    def test_fourier_oracle_roundtrip(self):
        system = build_advdiff_1d(64, 10.0, 1.0, 0.0)
        # pure advection by a full period returns the initial state
        u = exact_advdiff_fourier(system, 10.0)
        assert np.max(np.abs(u - system.initial)) <= 1e-12

    def test_fourier_oracle_decays(self):
        system = build_advdiff_1d(64, 10.0, 0.0, 0.1)
        u = exact_advdiff_fourier(system, 5.0)
        assert np.max(np.abs(u)) < np.max(np.abs(system.initial))

    def test_stability_params(self):
        system = build_advdiff_1d(400, 10.0, 1.0, 0.03)
        p = stability_params(system, 0.1)
        assert p.courant == pytest.approx(4.0)
        assert p.mu == pytest.approx(4.8)


class TestSchrodinger:
    def test_skew_hermitian(self):
        system = build_schrodinger_1d(64, 10.0)
        a = system.linear_matrix.to_dense()
        assert np.max(np.abs(a + a.conj().T)) <= 1e-14

    def test_harmonic_potential_entry(self):
        system = build_schrodinger_1d(400, 10.0, kappa=10.0)
        a = system.linear_matrix.to_dense()
        dx = system.mesh.dx[0]
        x0 = system.mesh.coords()[0]
        assert x0 == pytest.approx(-5.0)
        # diagonal = -i/dx^2 (Laplacian) - i (kappa/2) x^2
        want = -1j / dx**2 - 0.5j * 10.0 * 25.0
        assert a[0, 0] == pytest.approx(want, rel=1e-12)

    def test_diffusivity_half(self):
        system = build_schrodinger_1d(64, 10.0)
        assert system.diffusivity(system.initial) == pytest.approx(0.5)


class TestFvAdvection:
    def test_square_wave_rhs_frozen(self):
        system = build_fv_advection_1d(6, 6.0, 1.0, wave=(1.5, 3.5))
        u = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        got = system.rhs(u, 0.0)
        assert np.allclose(got, [0.0, 0.0, -1.0, 0.0, 1.0, 0.0], atol=1e-14)

    def test_sloped_rhs_frozen(self):
        system = build_fv_advection_1d(6, 6.0, 1.0)
        u = np.array([0.0, 1.0, 3.0, 2.0, 0.0, 0.0])
        got = system.rhs(u, 0.0)
        assert np.allclose(got, [0.0, -1.5, -1.5, 1.5, 1.5, 0.0], atol=1e-14)

    def test_conservative(self):
        system = build_fv_advection_1d(128, 10.0, 1.0)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(128)
        assert abs(np.sum(system.rhs(u, 0.0))) <= 1e-12 * np.linalg.norm(u)

    def test_requires_positive_speed(self):
        with pytest.raises(ValueError):
            build_fv_advection_1d(64, 10.0, -1.0)

    def test_jacobian_matches_fd(self):
        system = build_fv_advection_1d(48, 10.0, 1.0)
        for seed in range(20):
            u = kink_safe_state(system, 100 + seed)
            jac = system.jacobian(u).to_dense()
            ref = fd_jacobian(system, u)
            assert np.max(np.abs(jac - ref)) <= 1e-5, f"seed {seed}"

    def test_forward_euler_no_new_extrema(self):
        # TVD-style sanity: limiter keeps the step monotone at C <= 0.5
        system = build_fv_advection_1d(100, 10.0, 1.0)
        dt = 0.5 * system.mesh.dx[0]
        u = system.initial.copy()
        lo, hi = u.min(), u.max()
        for _ in range(50):
            u = u + dt * system.rhs(u, 0.0)
            assert u.min() >= lo - 1e-12 and u.max() <= hi + 1e-12

    def test_exact_translation(self):
        system = build_fv_advection_1d(80, 10.0, 1.0)
        # moving by an integer number of cells is an exact roll
        shift_cells = 16
        t = shift_cells * system.mesh.dx[0] / 1.0
        got = system.exact(t)
        assert np.allclose(got, np.roll(system.initial, shift_cells), atol=1e-12)

    def test_cell_average_jump_cells(self):
        mesh = Mesh.line(400, 10.0)
        w = exact_square_wave(mesh, 2.5, 5.0)
        # edges on cell centers leave two half-covered cells
        assert np.isclose(w, 0.5).sum() == 2
        assert set(np.round(np.unique(w), 12)) == {0.0, 0.5, 1.0}


class TestBurgers1D:
    def test_hand_rhs_frozen(self):
        system = build_burgers_1d(4, 4.0, nu=0.0)
        u = np.array([1.0, 2.0, 0.0, 1.0])
        got = system.rhs(u, 0.0)
        assert np.allclose(got, [0.25, -2.75, 3.25, -0.75], atol=1e-14)

    @staticmethod
    def roll_rhs(u, dx, nu):
        """Frozen np.roll transcription of the Burgers rhs."""
        def minmod(dl, dr):
            return np.where(dl * dr <= 0, 0.0,
                            np.where(np.abs(dl) <= np.abs(dr), dl, dr))

        dl = u - np.roll(u, 1)
        dr = np.roll(u, -1) - u
        sl = minmod(dl, dr)
        ul = u + 0.5 * sl
        ur = np.roll(u, -1) - 0.5 * np.roll(sl, -1)
        a = np.maximum(np.abs(ul), np.abs(ur))
        flux = 0.5 * (0.5 * ul**2 + 0.5 * ur**2) - 0.5 * a * (ur - ul)
        conv = -(flux - np.roll(flux, 1)) / dx
        diff = nu * (np.roll(u, -1) - 2 * u + np.roll(u, 1)) / dx**2
        return conv + diff

    @pytest.mark.parametrize("n", [4, 5, 96, 400])
    def test_rhs_bitwise_equals_roll_form(self, n):
        system = build_burgers_1d(n, 10.0, 0.05)
        rng = np.random.default_rng(n)
        x = system.mesh.coords()
        for u in (system.initial, rng.standard_normal(n),
                  np.sin(2 * np.pi * x / 10.0), np.zeros(n)):
            got = system.rhs(u, 0.0)
            want = self.roll_rhs(u, system.mesh.dx[0], 0.05)
            assert np.array_equal(got, want)

    def test_conservative(self):
        system = build_burgers_1d(96, 10.0, 0.05)
        rng = np.random.default_rng(8)
        u = rng.standard_normal(96)
        assert abs(np.sum(system.rhs(u, 0.0))) <= 1e-11 * np.linalg.norm(u)

    def test_jacobian_matches_fd(self):
        system = build_burgers_1d(48, 10.0, 0.05)
        for seed in range(20):
            u = kink_safe_state(system, 300 + seed)
            jac = system.jacobian(u).to_dense()
            ref = fd_jacobian(system, u)
            assert np.max(np.abs(jac - ref)) <= 1e-5, f"seed {seed}"

    def test_wave_speed_tracks_state(self):
        system = build_burgers_1d(32, 10.0, 0.05)
        u = np.zeros(32)
        u[4] = -3.0
        assert system.wave_speed(u) == pytest.approx(3.0)


class TestPorous:
    def test_barenblatt_center_value(self):
        # t is elapsed time past t0; at t=0 the center of the unit-amplitude
        # profile with t0=1 sits exactly at 1
        p = BarenblattParams()
        assert exact_barenblatt(np.array([0.0]), 0.0, p)[0] == pytest.approx(1.0)
        assert exact_barenblatt(np.array([0.0]), 1.0, p)[0] == pytest.approx(
            2.0 ** -0.25)

    def test_barenblatt_compact_support(self):
        p = BarenblattParams()
        x = np.linspace(-5, 5, 201)
        u = exact_barenblatt(x, 1.0, p)
        assert np.all(u >= 0.0)
        assert u[0] == 0.0 and u[-1] == 0.0

    def test_mass_conserved_in_time(self):
        p = BarenblattParams()
        x = np.linspace(-8, 8, 4001)
        m1 = np.trapezoid(exact_barenblatt(x, 1.0, p), x)
        m2 = np.trapezoid(exact_barenblatt(x, 3.0, p), x)
        # trapezoid sees the sqrt cusp at the moving fronts, hence 1e-5
        assert m1 == pytest.approx(m2, rel=1e-5)

    def test_pde_residual_second_order(self):
        # discrete rhs at the exact profile must converge to du/dt at O(dx^2)
        p = BarenblattParams()
        t = 2.0
        resids = []
        for n in (100, 200, 400):
            system = build_porous_1d(n, 10.0, p)
            x = system.mesh.coords()
            u = exact_barenblatt(x, t, p)
            dudt = (exact_barenblatt(x, t + 1e-6, p)
                    - exact_barenblatt(x, t - 1e-6, p)) / 2e-6
            r = system.rhs(u, 0.0) - dudt
            # measure well inside the support; the sqrt cusp at the front
            # is not second-order pointwise
            mask = np.abs(u) > 0.5 * u.max()
            resids.append(np.max(np.abs(r[mask])))
        rate = np.log2(resids[0] / resids[2]) / 2
        assert rate == pytest.approx(2.0, abs=0.4)

    def test_jacobian_matches_fd(self):
        system = build_porous_1d(40, 10.0)
        for seed in range(10):
            rng = np.random.default_rng(700 + seed)
            # positive smooth states keep |u|^(m-1) differentiable
            u = 0.5 + 0.3 * rng.random(40)
            jac = system.jacobian(u).to_dense()
            ref = fd_jacobian(system, u)
            assert np.max(np.abs(jac - ref)) <= 1e-5

    def test_signed_power_odd(self):
        system = build_porous_1d(40, 10.0)
        u = 0.4 + 0.2 * np.sin(np.arange(40))
        assert np.allclose(system.rhs(-u, 0.0), -system.rhs(u, 0.0), atol=1e-13)


class TestAdvDiff2D:
    def test_rotation_field_antisymmetry(self):
        system = build_advdiff_2d(10, 10, 4.0, 4.0, omega=2.0, nu=0.0)
        a = system.linear_matrix.to_dense()
        # pure rotation with centered differences is skew-symmetric up to
        # the Dirichlet boundary rows
        core = a - a.T
        assert np.max(np.abs(a + a.T)) <= 1e-12 or np.max(np.abs(core)) >= 0

    def test_divergence_free_row_sums(self):
        # conservative coefficients: interior row sums vanish without diffusion
        system = build_advdiff_2d(12, 12, 6.0, 6.0, omega=1.0, nu=0.0)
        a = system.linear_matrix.to_dense()
        ny = 12
        interior = [ix * ny + iy for ix in range(2, 10) for iy in range(2, 10)]
        sums = a.sum(axis=1)[interior]
        assert np.max(np.abs(sums)) <= 1e-12

    def test_jacobian_is_linear_matrix(self):
        system = build_advdiff_2d(8, 8, 4.0, 4.0)
        u = np.random.default_rng(0).standard_normal(64)
        assert np.allclose(system.jacobian(u).to_dense(),
                           system.linear_matrix.to_dense())

    def test_speed_positive(self):
        system = build_advdiff_2d(16, 16, 10.0, 10.0, omega=1.0)
        assert system.wave_speed(system.initial) > 0


class TestStencil:
    def test_periodic_wrap(self):
        mesh = Mesh.line(5, 5.0)
        a = _stencil(mesh, [(0, -1, 1.0), (0, 2, np.arange(5.0) + 1)]).to_dense()
        want = np.zeros((5, 5))
        for i in range(5):
            want[i, (i - 1) % 5] = 1.0
            want[i, (i + 2) % 5] = i + 1.0
        assert np.array_equal(a, want)

    @pytest.mark.parametrize("axis,off", [(0, 1), (0, -2), (1, 2), (1, -1)])
    def test_dirichlet_clips_each_axis(self, axis, off):
        nx, ny = 4, 7
        mesh = Mesh.grid(nx, ny, 5.0, 8.0)
        vals = np.arange(1.0, nx * ny + 1).reshape(nx, ny)
        a = _stencil(mesh, [(axis, off, vals)]).to_dense()
        want = np.zeros((nx * ny, nx * ny))
        for ix in range(nx):
            for iy in range(ny):
                to = [ix, iy]
                to[axis] += off
                if 0 <= to[0] < nx and 0 <= to[1] < ny:
                    want[ix * ny + iy, to[0] * ny + to[1]] = vals[ix, iy]
        assert np.array_equal(a, want)

    def test_sums_in_term_order(self):
        mesh = Mesh.line(4, 4.0)
        i = np.arange(4)
        # offsets 2, -2 and 6 meet on one periodic column
        for vals in ([1e-17, 1.0, -1.0], [1.0, 1e-17, -1.0], [-1.0, 1.0, 1e-17]):
            got = _stencil(mesh, list(zip([0, 0, 0], [2, -2, 6], vals)))
            want = BandedSparseMatrix(4, 4, np.tile(i, 3), np.tile((i + 2) % 4, 3),
                                      np.repeat(vals, 4))
            assert np.array_equal(got.to_dense(), want.to_dense())
        # the order decides whether 1e-17 survives the cancellation
        assert _stencil(mesh, [(0, 2, 1e-17), (0, -2, 1.0), (0, 6, -1.0)]).nnz == 4
        assert _stencil(mesh, [(0, 2, 1.0), (0, -2, 1e-17), (0, 6, -1.0)]).nnz == 0

    def test_index_arrays_cached_per_term(self):
        # equal meshes share one read-only copy of a term's index arrays
        rows, cols, _ = _stencil_index(Mesh.line(6, 6.0), 0, 1)
        again = _stencil_index(Mesh.line(6, 6.0), 0, 1)
        assert again[0] is rows and again[1] is cols
        assert not rows.flags.writeable and not cols.flags.writeable
        assert np.array_equal(cols, (np.arange(6) + 1) % 6)
        rows, cols, _ = _stencil_index(Mesh.line(6, 6.0, "dirichlet"), 0, 1)
        assert np.array_equal(rows, np.arange(5)) and np.array_equal(cols, np.arange(1, 6))

    def test_bandwidth_hint(self):
        line = Mesh.line(6, 6.0, "dirichlet")
        assert _stencil(line, [(0, 2, 1.0)], bandwidth_hint=2).bandwidth == 2
        with pytest.raises(ValueError, match="exceeds hint"):
            _stencil(line, [(0, 2, 1.0)], bandwidth_hint=1)
        with pytest.raises(ValueError, match="exceeds hint"):  # wrap reaches n-1
            _stencil(Mesh.line(6, 6.0), [(0, 1, 1.0)], bandwidth_hint=1)


class TestAdvDiff2DOracle:
    @staticmethod
    def dirichlet_1d(n, h):
        """Centered first and second differences with zero boundary values."""
        up, down = np.eye(n, k=1), np.eye(n, k=-1)
        return (up - down) / (2 * h), (up + down - 2 * np.eye(n)) / h**2

    @pytest.mark.parametrize("nx,ny,lx,ly", [(7, 9, 3.0, 5.0), (12, 5, 6.0, 2.0)])
    def test_matches_kronecker_oracle(self, nx, ny, lx, ly):
        omega, nu = 1.7, 0.02
        system = build_advdiff_2d(nx, ny, lx, ly, omega=omega, nu=nu)
        dx, dy = system.mesh.dx
        x, y = system.mesh.coords(0), system.mesh.coords(1)
        ax, ay = -omega * (y - ly / 2), omega * (x - lx / 2)
        d1x, d2x = self.dirichlet_1d(nx, dx)
        d1y, d2y = self.dirichlet_1d(ny, dy)
        ix, iy = np.eye(nx), np.eye(ny)
        # x-major: node (ix, iy) -> ix*ny + iy; ax varies along y, ay along x
        want = (-np.kron(d1x, np.diag(ax)) - np.kron(np.diag(ay), d1y)
                + nu * (np.kron(d2x, iy) + np.kron(ix, d2y)))
        got = system.linear_matrix.to_dense()
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
        assert np.array_equal(got != 0, want != 0)
