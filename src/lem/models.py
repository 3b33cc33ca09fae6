"""Semi-discrete test problems: meshes, right-hand sides, Jacobians, exact solutions.

Every builder returns a :class:`SemiDiscreteSystem` carrying the discrete
right-hand side, an analytic Jacobian (banded), initial data, stability
diagnostics, and an exact or reference solution where one is available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .sparse import BandedSparseMatrix

__all__ = [
    "Mesh",
    "SemiDiscreteSystem",
    "StabilityParams",
    "BarenblattParams",
    "build_advdiff_1d",
    "build_advection_dirichlet_1d",
    "build_schrodinger_1d",
    "build_fv_advection_1d",
    "build_burgers_1d",
    "build_porous_1d",
    "build_advdiff_2d",
    "build_burgers_2d",
    "exact_advdiff_fourier",
    "exact_barenblatt",
    "exact_square_wave",
    "stability_params",
]


@dataclass(frozen=True)
class Mesh:
    """Uniform tensor mesh, one or two axes.

    ``dx = extent/n`` on periodic axes; on Dirichlet axes only interior
    nodes are stored, so ``dx = extent/(n+1)`` and the boundary values are
    implicit zeros.
    """

    dim: int
    extents: tuple
    n: tuple
    dx: tuple
    boundary: tuple
    origins: tuple = (0.0,)

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        for tup in (self.extents, self.n, self.dx, self.boundary, self.origins):
            if len(tup) != self.dim:
                raise ValueError("per-axis tuples must have length dim")
        for ax in range(self.dim):
            if self.n[ax] < 4:
                raise ValueError(f"need at least 4 nodes per axis, got {self.n[ax]}")
            if self.boundary[ax] not in ("periodic", "dirichlet"):
                raise ValueError(f"unknown boundary {self.boundary[ax]!r}")
            want = (
                self.extents[ax] / self.n[ax]
                if self.boundary[ax] == "periodic"
                else self.extents[ax] / (self.n[ax] + 1)
            )
            if not math.isclose(self.dx[ax], want, rel_tol=1e-12):
                raise ValueError(
                    f"dx[{ax}]={self.dx[ax]} inconsistent with extent/boundary"
                )

    @classmethod
    def line(cls, n: int, extent: float, boundary: str = "periodic",
             origin: float = 0.0) -> "Mesh":
        dx = extent / n if boundary == "periodic" else extent / (n + 1)
        return cls(1, (extent,), (n,), (dx,), (boundary,), (origin,))

    @classmethod
    def grid(cls, nx: int, ny: int, lx: float, ly: float,
             boundary: str = "dirichlet") -> "Mesh":
        if boundary == "periodic":
            dx, dy = lx / nx, ly / ny
        else:
            dx, dy = lx / (nx + 1), ly / (ny + 1)
        return cls(2, (lx, ly), (nx, ny), (dx, dy),
                   (boundary, boundary), (0.0, 0.0))

    @property
    def n_total(self) -> int:
        total = 1
        for k in self.n:
            total *= k
        return total

    def coords(self, axis: int = 0) -> np.ndarray:
        """Node coordinates along one axis."""
        if self.boundary[axis] == "periodic":
            return self.origins[axis] + self.dx[axis] * np.arange(self.n[axis])
        # interior Dirichlet nodes sit strictly inside the extent
        return self.origins[axis] + self.dx[axis] * (1 + np.arange(self.n[axis]))


@dataclass(frozen=True)
class StabilityParams:
    """Advective Courant number and diffusive stability number."""

    courant: float
    mu: float

    def __post_init__(self):
        if self.courant < 0 or self.mu < 0:
            raise ValueError("stability parameters must be nonnegative")


@dataclass(frozen=True)
class BarenblattParams:
    """Parameters of the self-similar compact-support solution of c_t = (c^m)_xx."""

    m: float = 3.0
    amp: float = 1.0
    t0: float = 1.0

    def __post_init__(self):
        if self.m <= 1:
            raise ValueError("exponent m must exceed 1")
        if self.t0 <= 0:
            raise ValueError("t0 must be positive")
        if self.amp == 0:
            raise ValueError("amplitude must be nonzero")

    @property
    def k(self) -> float:
        return 1.0 / (self.m + 1.0)


@dataclass
class SemiDiscreteSystem:
    """A spatially discretized PDE as an ODE system du/dt = rhs(u, t).

    ``jacobian`` returns the analytic Jacobian of ``rhs`` at a state; for
    linear systems it is the constant matrix ``linear_matrix`` and
    ``rhs(u, t) == linear_matrix @ u + forcing(t)`` exactly.
    ``wave_speed``/``diffusivity`` report the coefficients entering the
    Courant and diffusion numbers, evaluated at a state for nonlinear
    problems.
    """

    kind: str
    mesh: Mesh
    rhs: Callable[[np.ndarray, float], np.ndarray]
    jacobian: Callable[[np.ndarray], BandedSparseMatrix]
    initial: np.ndarray
    is_linear: bool = False
    linear_matrix: Optional[BandedSparseMatrix] = None
    forcing: Optional[Callable[[float], np.ndarray]] = None
    exact: Optional[Callable[[float], np.ndarray]] = None
    wave_speed: Callable[[np.ndarray], float] = lambda u: 0.0
    diffusivity: Callable[[np.ndarray], float] = lambda u: 0.0
    params: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.mesh.n_total


def _gaussian(x: np.ndarray, center: float, sigma: float) -> np.ndarray:
    return np.exp(-((x - center) ** 2) / (2.0 * sigma**2))


def stability_params(system: SemiDiscreteSystem, dt: float,
                     u: Optional[np.ndarray] = None) -> StabilityParams:
    """Courant number C = max|a| dt/dx and diffusion number mu = max nu dt/dx^2.

    The minimum spacing across axes is used, so anisotropic meshes report
    the binding (largest) values. Nonlinear wave speeds are taken from the
    supplied state (default: the initial datum).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    state = system.initial if u is None else u
    h = min(system.mesh.dx)
    c = system.wave_speed(state) * dt / h
    mu = system.diffusivity(state) * dt / h**2
    return StabilityParams(courant=float(c), mu=float(mu))


# ---------------------------------------------------------------------------
# linear 1D problems


def build_advdiff_1d(n: int, L: float, u_adv: float, nu: float,
                     sigma: Optional[float] = None) -> SemiDiscreteSystem:
    """Periodic advection-diffusion c_t + u c_x = nu c_xx, centered differences.

    The Gaussian initial datum has width ``sigma`` (default L/20) centered
    at L/2; the exact solution is available through
    :func:`exact_advdiff_fourier`.
    """
    if nu < 0:
        raise ValueError("diffusivity must be nonnegative")
    mesh = Mesh.line(n, L, "periodic")
    dx = mesh.dx[0]
    idx = np.arange(n)
    left, right = (idx - 1) % n, (idx + 1) % n

    rows = np.concatenate([idx, idx, idx])
    cols = np.concatenate([left, idx, right])
    vals = np.concatenate([
        np.full(n, u_adv / (2 * dx) + nu / dx**2),
        np.full(n, -2 * nu / dx**2),
        np.full(n, -u_adv / (2 * dx) + nu / dx**2),
    ])
    a = BandedSparseMatrix(n, n, rows, cols, vals)

    if sigma is None:
        sigma = L / 20.0
    initial = _gaussian(mesh.coords(), L / 2, sigma)

    system = SemiDiscreteSystem(
        kind="advdiff1d",
        mesh=mesh,
        rhs=lambda u, t: a.matvec(u),
        jacobian=lambda u: a,
        initial=initial,
        is_linear=True,
        linear_matrix=a,
        wave_speed=lambda u: abs(u_adv),
        diffusivity=lambda u: nu,
        params={"u_adv": u_adv, "nu": nu, "sigma": sigma},
    )
    system.exact = lambda t: exact_advdiff_fourier(system, t)
    return system


def build_advection_dirichlet_1d(n: int, L: float, u_adv: float,
                                 sigma: Optional[float] = None) -> SemiDiscreteSystem:
    """Centered advection with homogeneous Dirichlet ends.

    Unlike the periodic variant this matrix is banded in the strict sense
    (bandwidth 1), which is what the off-diagonal decay estimates assume.
    """
    mesh = Mesh.line(n, L, "dirichlet")
    dx = mesh.dx[0]
    idx = np.arange(n)

    rows = np.concatenate([idx[1:], idx[:-1]])
    cols = np.concatenate([idx[:-1], idx[1:]])
    vals = np.concatenate([
        np.full(n - 1, u_adv / (2 * dx)),
        np.full(n - 1, -u_adv / (2 * dx)),
    ])
    a = BandedSparseMatrix(n, n, rows, cols, vals, bandwidth_hint=1)

    if sigma is None:
        sigma = L / 20.0
    initial = _gaussian(mesh.coords(), L / 2, sigma)

    return SemiDiscreteSystem(
        kind="advection_dirichlet1d",
        mesh=mesh,
        rhs=lambda u, t: a.matvec(u),
        jacobian=lambda u: a,
        initial=initial,
        is_linear=True,
        linear_matrix=a,
        wave_speed=lambda u: abs(u_adv),
        diffusivity=lambda u: 0.0,
        params={"u_adv": u_adv, "sigma": sigma},
    )


def build_schrodinger_1d(n: int, L: float, kappa: float = 10.0,
                         sigma: Optional[float] = None) -> SemiDiscreteSystem:
    """Free Schroedinger equation with harmonic potential on [-L/2, L/2].

    i psi_t = -(1/2) psi_xx + (kappa/2) x^2 psi, periodic. The system matrix
    (i/2) D2 - i (kappa/2) diag(x^2) is skew-Hermitian, so the discrete
    2-norm of the state is conserved by the exact flow.
    """
    mesh = Mesh.line(n, L, "periodic", origin=-L / 2)
    dx = mesh.dx[0]
    x = mesh.coords()
    idx = np.arange(n)
    left, right = (idx - 1) % n, (idx + 1) % n

    rows = np.concatenate([idx, idx, idx])
    cols = np.concatenate([left, idx, right])
    vals = np.concatenate([
        np.full(n, 0.5j / dx**2),
        -1j / dx**2 - 0.5j * kappa * x**2,
        np.full(n, 0.5j / dx**2),
    ])
    a = BandedSparseMatrix(n, n, rows, cols, vals)

    if sigma is None:
        sigma = L / 20.0
    initial = _gaussian(x, 0.0, sigma).astype(complex)

    return SemiDiscreteSystem(
        kind="schrodinger1d",
        mesh=mesh,
        rhs=lambda u, t: a.matvec(u),
        jacobian=lambda u: a,
        initial=initial,
        is_linear=True,
        linear_matrix=a,
        wave_speed=lambda u: 0.0,
        diffusivity=lambda u: 0.5,
        params={"kappa": kappa, "sigma": sigma},
    )


# ---------------------------------------------------------------------------
# monotonized finite volume machinery (1D)


def _minmod(dl: np.ndarray, dr: np.ndarray) -> np.ndarray:
    return np.where(dl * dr <= 0, 0.0,
                    np.where(np.abs(dl) <= np.abs(dr), dl, dr))


def _minmod_branch(dl: np.ndarray, dr: np.ndarray):
    """Active-branch selectors for the minmod derivative.

    Returns boolean masks (use_dl, use_dr); both False on the zero branch.
    Ties |dl| == |dr| take the first argument, mirroring _minmod.
    """
    live = dl * dr > 0
    use_dl = live & (np.abs(dl) <= np.abs(dr))
    use_dr = live & ~use_dl
    return use_dl, use_dr


def exact_square_wave(mesh: Mesh, lo: float, hi: float,
                      shift: float = 0.0) -> np.ndarray:
    """Cell averages of the periodic indicator of [lo, hi], translated by shift.

    Cell j is centered at x_j with width dx, so edges that land on cell
    centers produce exact 0.5 cells. Translating by an integer number of
    cells reproduces a roll of the untranslated averages.
    """
    if mesh.dim != 1 or mesh.boundary[0] != "periodic":
        raise ValueError("square wave needs a periodic 1D mesh")
    L = mesh.extents[0]
    dx = mesh.dx[0]
    x = mesh.coords()
    a, b = x - dx / 2, x + dx / 2
    lo, hi = lo + shift, hi + shift
    if not 0 < hi - lo < L:
        raise ValueError("wave must have width in (0, L)")
    width = hi - lo
    lo -= L * math.floor(lo / L)  # wrap into [0, L), keep the width
    hi = lo + width
    out = np.zeros(mesh.n[0])
    for k in (-1, 0, 1):
        out += np.clip(np.minimum(b, hi + k * L) - np.maximum(a, lo + k * L),
                       0.0, None)
    return out / dx


def build_fv_advection_1d(n: int, L: float, u_adv: float = 1.0,
                          wave: tuple = None) -> SemiDiscreteSystem:
    """Second-order monotonized finite volume advection, minmod limiter.

    The limiter makes the semi-discretization nonlinear even though the PDE
    is linear. The initial datum is the cell-averaged square wave on
    [L/4, L/2] by default; ``exact(t)`` is its exact translation.
    """
    if u_adv <= 0:
        raise ValueError("wave speed must be positive (upwind from the left)")
    mesh = Mesh.line(n, L, "periodic")
    dx = mesh.dx[0]
    if wave is None:
        wave = (L / 4, L / 2)
    lo, hi = wave

    def rhs(u, t=0.0):
        dl = u - np.roll(u, 1)
        dr = np.roll(u, -1) - u
        flux = u + 0.5 * _minmod(dl, dr)  # interface value at j+1/2, u_adv > 0
        return -(flux - np.roll(flux, 1)) * (u_adv / dx)

    def jacobian(u):
        dl = u - np.roll(u, 1)
        dr = np.roll(u, -1) - u
        use_dl, use_dr = _minmod_branch(dl, dr)
        idx = np.arange(n)

        # dF_{j+1/2}/du as three stencil weights on (j-1, j, j+1)
        wm = np.where(use_dl, -0.5, 0.0)
        wc = 1.0 + np.where(use_dl, 0.5, 0.0) - np.where(use_dr, 0.5, 0.0)
        wp = np.where(use_dr, 0.5, 0.0)

        # rhs_i = -(F_i - F_{i-1}) * u_adv/dx; columns wrap periodically
        s = -u_adv / dx
        rows = np.concatenate([idx] * 6)
        cols = np.concatenate([
            (idx - 1) % n, idx, (idx + 1) % n,
            (idx - 2) % n, (idx - 1) % n, idx,
        ])
        vals = np.concatenate([
            s * wm, s * wc, s * wp,
            -s * np.roll(wm, 1), -s * np.roll(wc, 1), -s * np.roll(wp, 1),
        ])
        return BandedSparseMatrix(n, n, rows, cols, vals)

    initial = exact_square_wave(mesh, lo, hi)

    system = SemiDiscreteSystem(
        kind="fv_advection1d",
        mesh=mesh,
        rhs=rhs,
        jacobian=jacobian,
        initial=initial,
        wave_speed=lambda u: abs(u_adv),
        diffusivity=lambda u: 0.0,
        params={"u_adv": u_adv, "wave": (lo, hi)},
    )
    system.exact = lambda t: exact_square_wave(mesh, lo, hi, shift=u_adv * t)
    return system


def build_burgers_1d(n: int, L: float, nu: float = 0.05,
                     sigma: Optional[float] = None) -> SemiDiscreteSystem:
    """Viscous Burgers equation c_t + (c^2/2)_x = nu c_xx, periodic.

    The convective flux uses minmod-limited reconstruction with a local
    Lax-Friedrichs interface flux; diffusion is centered. The Jacobian is
    assembled analytically from the active limiter and wave-speed branches.
    """
    if nu < 0:
        raise ValueError("diffusivity must be nonnegative")
    mesh = Mesh.line(n, L, "periodic")
    dx = mesh.dx[0]
    if sigma is None:
        sigma = L / 20.0
    initial = _gaussian(mesh.coords(), L / 2, sigma)

    def _states(w):
        """Interface states at j+1/2, j = -1..n-1, of the ghost-padded w."""
        d = w[1:] - w[:-1]                     # d[j + 1] = u_j - u_{j-1}
        sl = _minmod(d[:-1], d[1:])            # slopes of u_{-1}..u_n
        ul = w[1:-2] + 0.5 * sl[:-1]           # left state at interface j+1/2
        ur = w[2:-1] - 0.5 * sl[1:]            # right state
        return ul, ur

    def rhs(u, t=0.0):
        w = np.concatenate((u[-2:], u, u[:2]))  # w[j + 2] = u_j, periodic
        ul, ur = _states(w)
        a = np.maximum(np.abs(ul), np.abs(ur))
        flux = 0.5 * (0.5 * ul**2 + 0.5 * ur**2) - 0.5 * a * (ur - ul)
        conv = -(flux[1:] - flux[:-1]) / dx
        diff = nu * (w[3:-1] - 2 * w[2:-2] + w[1:-3]) / dx**2
        return conv + diff

    def jacobian(u):
        dl = u - np.roll(u, 1)
        dr = np.roll(u, -1) - u
        use_dl, use_dr = _minmod_branch(dl, dr)
        ul, ur = _states(np.concatenate((u[-2:], u, u[:2])))
        ul, ur = ul[1:], ur[1:]
        a = np.maximum(np.abs(ul), np.abs(ur))

        # reconstruction weights: ul_j = u_j + 0.5*minmod(dl_j, dr_j)
        lm = np.where(use_dl, -0.5, 0.0)
        lc = 1.0 + np.where(use_dl, 0.5, 0.0) - np.where(use_dr, 0.5, 0.0)
        lp = np.where(use_dr, 0.5, 0.0)
        # ur_j = u_{j+1} - 0.5*minmod(dl_{j+1}, dr_{j+1}); weights on (j, j+1, j+2)
        rm = 0.5 * np.where(np.roll(use_dl, -1), 1.0, 0.0)
        rc = 1.0 - 0.5 * np.where(np.roll(use_dl, -1), 1.0, 0.0) \
            + 0.5 * np.where(np.roll(use_dr, -1), 1.0, 0.0)
        rp = -0.5 * np.where(np.roll(use_dr, -1), 1.0, 0.0)

        # |.| derivative of the local wave speed; ties take the left state
        from_left = np.abs(ul) >= np.abs(ur)
        da_dul = np.where(from_left, np.sign(ul), 0.0)
        da_dur = np.where(~from_left, np.sign(ur), 0.0)

        # flux = (ul^2 + ur^2)/4 - a*(ur - ul)/2
        jump = ur - ul
        dphi_dul = 0.5 * ul + 0.5 * a - 0.5 * jump * da_dul
        dphi_dur = 0.5 * ur - 0.5 * a - 0.5 * jump * da_dur

        idx = np.arange(n)
        # dF/du columns: via ul on (j-1, j, j+1) and ur on (j, j+1, j+2)
        f_cols = [(idx - 1) % n, idx, (idx + 1) % n, idx, (idx + 1) % n,
                  (idx + 2) % n]
        f_vals = [dphi_dul * lm, dphi_dul * lc, dphi_dul * lp,
                  dphi_dur * rm, dphi_dur * rc, dphi_dur * rp]

        rows, cols, vals = [], [], []
        for c_arr, v_arr in zip(f_cols, f_vals):
            # conv_i = -(F_i - F_{i-1})/dx
            rows.append(idx)
            cols.append(c_arr)
            vals.append(-v_arr / dx)
            rows.append((idx + 1) % n)
            cols.append(c_arr)
            vals.append(v_arr / dx)

        rows.append(idx); cols.append((idx - 1) % n)
        vals.append(np.full(n, nu / dx**2))
        rows.append(idx); cols.append(idx)
        vals.append(np.full(n, -2 * nu / dx**2))
        rows.append(idx); cols.append((idx + 1) % n)
        vals.append(np.full(n, nu / dx**2))

        return BandedSparseMatrix(n, n, np.concatenate(rows),
                                  np.concatenate(cols), np.concatenate(vals))

    return SemiDiscreteSystem(
        kind="burgers1d",
        mesh=mesh,
        rhs=rhs,
        jacobian=jacobian,
        initial=initial,
        wave_speed=lambda u: float(np.max(np.abs(u))) if len(u) else 0.0,
        diffusivity=lambda u: nu,
        params={"nu": nu, "sigma": sigma},
    )


def exact_barenblatt(x: np.ndarray, t: float,
                     p: BarenblattParams = BarenblattParams()) -> np.ndarray:
    """Self-similar compact-support solution of c_t = (c^m)_xx."""
    tau = t + p.t0
    core = p.amp**2 - p.k * (p.m - 1) * np.abs(x) ** 2 / (2 * p.m * tau ** (2 * p.k))
    return tau ** (-p.k) * np.clip(core, 0.0, None) ** (1.0 / (p.m - 1))


def build_porous_1d(n: int, L: float,
                    p: BarenblattParams = BarenblattParams()) -> SemiDiscreteSystem:
    """Porous medium equation c_t = (c^m)_xx on [-L/2, L/2], Dirichlet ends.

    Centered differences on c^m; the signed power |c|^(m-1) c keeps the
    scheme defined through transient negative undershoots. Initial data and
    exact solution come from the self-similar profile, whose support must
    stay inside the domain.
    """
    mesh = Mesh.line(n, L, "dirichlet", origin=-L / 2)
    dx = mesh.dx[0]
    x = mesh.coords()
    m = p.m

    def power(c):
        return np.abs(c) ** (m - 1) * c

    def rhs(u, t=0.0):
        w = power(u)
        out = -2 * w
        out[:-1] += w[1:]
        out[1:] += w[:-1]
        return out / dx**2  # boundary values of c^m are zero

    def jacobian(u):
        d = m * np.abs(u) ** (m - 1)
        idx = np.arange(n)
        rows = np.concatenate([idx, idx[:-1], idx[1:]])
        cols = np.concatenate([idx, idx[1:], idx[:-1]])
        vals = np.concatenate([-2 * d, d[1:], d[:-1]]) / dx**2
        return BandedSparseMatrix(n, n, rows, cols, vals, bandwidth_hint=1)

    system = SemiDiscreteSystem(
        kind="porous1d",
        mesh=mesh,
        rhs=rhs,
        jacobian=jacobian,
        initial=exact_barenblatt(x, 0.0, p),
        wave_speed=lambda u: 0.0,
        diffusivity=lambda u: float(m * np.max(np.abs(u)) ** (m - 1)),
        params={"m": p.m, "amp": p.amp, "t0": p.t0},
    )
    system.exact = lambda t: exact_barenblatt(x, t, p)
    return system


# ---------------------------------------------------------------------------
# 2D problems (x-major flattening: node (ix, iy) -> ix*ny + iy)


def build_advdiff_2d(nx: int, ny: int, lx: float, ly: float,
                     omega: float = 1.0, nu: float = 1e-3,
                     sigma: Optional[float] = None) -> SemiDiscreteSystem:
    """Solid-body rotation with diffusion, homogeneous Dirichlet boundary.

    Velocity (-omega*(y - yc), omega*(x - xc)) about the domain center is
    divergence free; conservative centered differences keep the advection
    rows summing to zero on interior stencils. The Gaussian initial datum
    sits at quarter-domain radius so it stays clear of the boundary while
    rotating.
    """
    if nu < 0:
        raise ValueError("diffusivity must be nonnegative")
    mesh = Mesh.grid(nx, ny, lx, ly)
    dx, dy = mesh.dx
    x, y = mesh.coords(0), mesh.coords(1)
    xc, yc = lx / 2, ly / 2
    ax = -omega * (y - yc)   # depends on y only
    ay = omega * (x - xc)    # depends on x only

    def flat(ix, iy):
        return ix * ny + iy

    rows, cols, vals = [], [], []

    def add(r, c, v):
        if v != 0.0:
            rows.append(r)
            cols.append(c)
            vals.append(v)

    for ix in range(nx):
        for iy in range(ny):
            r = flat(ix, iy)
            # -d/dx(ax c): centered, Dirichlet zero outside
            if ix + 1 < nx:
                add(r, flat(ix + 1, iy), -ax[iy] / (2 * dx))
            if ix - 1 >= 0:
                add(r, flat(ix - 1, iy), ax[iy] / (2 * dx))
            if iy + 1 < ny:
                add(r, flat(ix, iy + 1), -ay[ix] / (2 * dy))
            if iy - 1 >= 0:
                add(r, flat(ix, iy - 1), ay[ix] / (2 * dy))
            # nu * 5-point Laplacian
            add(r, r, -2 * nu / dx**2 - 2 * nu / dy**2)
            if ix + 1 < nx:
                add(r, flat(ix + 1, iy), nu / dx**2)
            if ix - 1 >= 0:
                add(r, flat(ix - 1, iy), nu / dx**2)
            if iy + 1 < ny:
                add(r, flat(ix, iy + 1), nu / dy**2)
            if iy - 1 >= 0:
                add(r, flat(ix, iy - 1), nu / dy**2)

    n_tot = nx * ny
    a = BandedSparseMatrix(n_tot, n_tot, np.array(rows), np.array(cols),
                           np.array(vals, dtype=float))

    if sigma is None:
        sigma = min(lx, ly) / 20.0
    gx = _gaussian(x, xc + lx / 4, sigma)
    gy = _gaussian(y, yc, sigma)
    initial = np.outer(gx, gy).reshape(-1)

    speed = float(max(np.max(np.abs(ax)), np.max(np.abs(ay))))

    return SemiDiscreteSystem(
        kind="advdiff2d",
        mesh=mesh,
        rhs=lambda u, t: a.matvec(u),
        jacobian=lambda u: a,
        initial=initial,
        is_linear=True,
        linear_matrix=a,
        wave_speed=lambda u: speed,
        diffusivity=lambda u: nu,
        params={"omega": omega, "nu": nu, "sigma": sigma},
    )


def build_burgers_2d(nx: int, ny: int, lx: float, ly: float,
                     nu: float = 0.05, anisotropy: float = 1.0,
                     sigma: Optional[float] = None) -> SemiDiscreteSystem:
    """Two dimensional Burgers equation on an anisotropic periodic mesh.

    c_t + (c^2/2)_x + (c^2/2)_y = nu lap(c) with the 1D monotonized flux
    machinery applied per axis. ``anisotropy`` = dx/dy must match the mesh
    spacings implied by (lx, ly, nx, ny); vertical Courant numbers exceed
    horizontal ones by that factor for equal velocities.
    """
    if nu < 0:
        raise ValueError("diffusivity must be nonnegative")
    if anisotropy < 1:
        raise ValueError("anisotropy must be >= 1 (dy is the fine spacing)")
    mesh = Mesh.grid(nx, ny, lx, ly, boundary="periodic")
    dx, dy = mesh.dx
    if not math.isclose(dy, dx / anisotropy, rel_tol=1e-9):
        raise ValueError(
            f"mesh spacings dx={dx}, dy={dy} inconsistent with anisotropy "
            f"{anisotropy} (need dy = dx/anisotropy)")

    if sigma is None:
        sigma = min(lx, ly) / 10.0
    x, y = mesh.coords(0), mesh.coords(1)
    initial = np.outer(_gaussian(x, lx / 2, sigma),
                       _gaussian(y, ly / 2, sigma)).reshape(-1)

    def _axis_conv(field2d, h, axis):
        u = field2d
        dl = u - np.roll(u, 1, axis=axis)
        dr = np.roll(u, -1, axis=axis) - u
        sl = _minmod(dl, dr)
        ul = u + 0.5 * sl
        ur = np.roll(u, -1, axis=axis) - 0.5 * np.roll(sl, -1, axis=axis)
        a = np.maximum(np.abs(ul), np.abs(ur))
        flux = 0.25 * (ul**2 + ur**2) - 0.5 * a * (ur - ul)
        return -(flux - np.roll(flux, 1, axis=axis)) / h

    def rhs(u, t=0.0):
        f = u.reshape(nx, ny)
        out = _axis_conv(f, dx, 0) + _axis_conv(f, dy, 1)
        out += nu * ((np.roll(f, -1, 0) - 2 * f + np.roll(f, 1, 0)) / dx**2
                     + (np.roll(f, -1, 1) - 2 * f + np.roll(f, 1, 1)) / dy**2)
        return out.reshape(-1)

    def _axis_jac_terms(f, h, axis):
        """Stencil weights of the per-axis convective term, shifted indices."""
        dl = f - np.roll(f, 1, axis=axis)
        dr = np.roll(f, -1, axis=axis) - f
        use_dl, use_dr = _minmod_branch(dl, dr)
        sl = _minmod(dl, dr)
        ul = f + 0.5 * sl
        ur = np.roll(f, -1, axis=axis) - 0.5 * np.roll(sl, -1, axis=axis)
        a = np.maximum(np.abs(ul), np.abs(ur))

        lm = np.where(use_dl, -0.5, 0.0)
        lc = 1.0 + np.where(use_dl, 0.5, 0.0) - np.where(use_dr, 0.5, 0.0)
        lp = np.where(use_dr, 0.5, 0.0)
        rm = 0.5 * np.where(np.roll(use_dl, -1, axis=axis), 1.0, 0.0)
        rc = 1.0 - 0.5 * np.where(np.roll(use_dl, -1, axis=axis), 1.0, 0.0) \
            + 0.5 * np.where(np.roll(use_dr, -1, axis=axis), 1.0, 0.0)
        rp = -0.5 * np.where(np.roll(use_dr, -1, axis=axis), 1.0, 0.0)

        from_left = np.abs(ul) >= np.abs(ur)
        da_dul = np.where(from_left, np.sign(ul), 0.0)
        da_dur = np.where(~from_left, np.sign(ur), 0.0)
        jump = ur - ul
        dphi_dul = 0.5 * ul + 0.5 * a - 0.5 * jump * da_dul
        dphi_dur = 0.5 * ur - 0.5 * a - 0.5 * jump * da_dur

        # dF/du at interface j+1/2: offsets along axis -1..+2
        return {
            -1: dphi_dul * lm,
            0: dphi_dul * lc + dphi_dur * rm,
            1: dphi_dul * lp + dphi_dur * rc,
            2: dphi_dur * rp,
        }, h

    def jacobian(u):
        f = u.reshape(nx, ny)
        base = np.arange(nx * ny).reshape(nx, ny)
        rows_l, cols_l, vals_l = [], [], []

        for axis, h in ((0, dx), (1, dy)):
            terms, _ = _axis_jac_terms(f, h, axis)
            for off, w in terms.items():
                col = np.roll(base, -off, axis=axis)
                # conv_i picks up -F_i/h and +F_{i-1}/h
                rows_l.append(base.ravel())
                cols_l.append(col.ravel())
                vals_l.append((-w / h).ravel())
                rows_l.append(np.roll(base, -1, axis=axis).ravel())
                cols_l.append(col.ravel())
                vals_l.append((w / h).ravel())
            # centered diffusion along this axis
            for off, coef in ((-1, nu / h**2), (0, -2 * nu / h**2),
                              (1, nu / h**2)):
                rows_l.append(base.ravel())
                cols_l.append(np.roll(base, -off, axis=axis).ravel())
                vals_l.append(np.full(nx * ny, coef))

        return BandedSparseMatrix(nx * ny, nx * ny, np.concatenate(rows_l),
                                  np.concatenate(cols_l), np.concatenate(vals_l))

    return SemiDiscreteSystem(
        kind="burgers2d",
        mesh=mesh,
        rhs=rhs,
        jacobian=jacobian,
        initial=initial,
        wave_speed=lambda u: float(np.max(np.abs(u))) if len(u) else 0.0,
        diffusivity=lambda u: nu,
        params={"nu": nu, "anisotropy": anisotropy, "sigma": sigma},
    )


# ---------------------------------------------------------------------------
# exact solutions


def exact_advdiff_fourier(system: SemiDiscreteSystem, t: float) -> np.ndarray:
    """Exact periodic advection-diffusion solution via the Fourier series
    of the initial datum, truncated at mesh resolution."""
    if system.kind != "advdiff1d":
        raise ValueError("Fourier solution applies to constant-coefficient "
                         "periodic advection-diffusion only")
    L = system.mesh.extents[0]
    n = system.mesh.n[0]
    u_adv = system.params["u_adv"]
    nu = system.params["nu"]
    k = np.fft.fftfreq(n, d=1.0 / n)  # integer mode numbers
    omega = 2 * np.pi * k / L
    factor = np.exp((-1j * omega * u_adv - nu * omega**2) * t)
    return np.real(np.fft.ifft(np.fft.fft(system.initial) * factor))
