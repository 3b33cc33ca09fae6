"""Semi-discrete test problems: meshes, right-hand sides, Jacobians, exact solutions.

Every builder returns a :class:`SemiDiscreteSystem` carrying the discrete
right-hand side, an analytic Jacobian (banded), initial data, stability
diagnostics, and an exact or reference solution where one is available.

Two kernels are shared by every model. :func:`_stencil` assembles each
matrix from (axis, offset, per-node values) terms. The limited-flux kernel
(:func:`_pad`, :func:`_states`, :func:`_llf` and :func:`_flux_terms`) works
on a periodic 1D array with two ghost nodes at each end, and serves the
finite-volume advection and Burgers models. 2D nodes are flattened
x-major: node (ix, iy) is ``ix*ny + iy``. No operator reaches further than
two nodes along an axis: the stencil radius is 2, the ghost layers of
:func:`_pad`.
"""

from __future__ import annotations

import functools
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

    ``jacobian`` returns the analytic Jacobian of ``rhs`` at a state. A
    system is linear exactly when it has a ``linear_matrix``: the Jacobian
    is then that constant matrix and ``rhs(u, t) == linear_matrix @ u``.
    ``wave_speed``/``diffusivity`` report the coefficients entering the
    Courant and diffusion numbers, evaluated at a state for nonlinear
    problems.
    """

    kind: str
    mesh: Mesh
    rhs: Callable[[np.ndarray, float], np.ndarray]
    jacobian: Callable[[np.ndarray], BandedSparseMatrix]
    initial: np.ndarray
    linear_matrix: Optional[BandedSparseMatrix] = None
    exact: Optional[Callable[[float], np.ndarray]] = None
    wave_speed: Callable[[np.ndarray], float] = lambda u: 0.0
    diffusivity: Callable[[np.ndarray], float] = lambda u: 0.0
    params: dict = field(default_factory=dict)

    @property
    def is_linear(self) -> bool:
        return self.linear_matrix is not None

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
# shared kernels: stencil assembly and the minmod-limited flux


def _stencil(mesh: Mesh, terms,
             bandwidth_hint: Optional[int] = None) -> BandedSparseMatrix:
    """The matrix of the stencil terms on the mesh nodes.

    Each term (axis, offset, values) puts ``values[node]`` at (node, node +
    offset along axis); ``values`` is a scalar or an array of the mesh
    shape. Periodic axes wrap; on Dirichlet axes entries whose column
    leaves the mesh are dropped. Entries at one position reach the
    coalescing sum of :class:`BandedSparseMatrix` in term order. The row
    and column indices of a term come from :func:`_stencil_index`, so an
    assembly only gathers the values.
    """
    rows, cols, vals = [], [], []
    for axis, off, v in terms:
        r, c, keep = _stencil_index(mesh, axis, off)
        rows.append(r)
        cols.append(c)
        vals.append(np.broadcast_to(v, mesh.n)[keep].ravel())
    return BandedSparseMatrix(mesh.n_total, mesh.n_total, np.concatenate(rows),
                              np.concatenate(cols), np.concatenate(vals),
                              bandwidth_hint=bandwidth_hint)


@functools.lru_cache(maxsize=64)
def _stencil_index(mesh: Mesh, axis: int, off: int):
    """(rows, cols, keep) of one :func:`_stencil` term, cached per mesh:
    the nodes and their neighbours ``off`` along ``axis``, both read-only,
    and the index of the nodes kept (all on a periodic axis)."""
    shape = mesh.n
    node = np.arange(mesh.n_total).reshape(shape)
    keep = [slice(None)] * mesh.dim
    if mesh.boundary[axis] == "dirichlet":  # rows whose column is inside
        keep[axis] = slice(max(0, -off), max(0, shape[axis] - off))
    keep = tuple(keep)
    rows = node[keep].ravel()
    cols = np.roll(node, -off, axis)[keep].ravel()
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols, keep


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


def _pad(u: np.ndarray) -> np.ndarray:
    """u with two periodic ghost layers at each end of axis 0: w[j + 2] = u_j."""
    return np.concatenate((u[-2:], u, u[:2]))


def _states(w: np.ndarray):
    """Limited left/right states at interfaces j+1/2, j = -1..n-1, of the padded w."""
    d = w[1:] - w[:-1]                     # d[j + 1] = u_j - u_{j-1}
    sl = _minmod(d[:-1], d[1:])            # slopes of u_{-1}..u_n
    ul = w[1:-2] + 0.5 * sl[:-1]           # left state at interface j+1/2
    ur = w[2:-1] - 0.5 * sl[1:]            # right state
    return ul, ur


def _llf(ul: np.ndarray, ur: np.ndarray) -> np.ndarray:
    """Local Lax-Friedrichs flux of c^2/2 between the states ul and ur."""
    a = np.maximum(np.abs(ul), np.abs(ur))
    return 0.5 * (0.5 * ul**2 + 0.5 * ur**2) - 0.5 * a * (ur - ul)


def _llf_partials(ul: np.ndarray, ur: np.ndarray):
    """dF/d(ul) and dF/d(ur) of :func:`_llf` on the active wave-speed branch."""
    a = np.maximum(np.abs(ul), np.abs(ur))
    # |.| derivative of the local wave speed; ties take the left state
    from_left = np.abs(ul) >= np.abs(ur)
    da_dul = np.where(from_left, np.sign(ul), 0.0)
    da_dur = np.where(~from_left, np.sign(ur), 0.0)
    jump = ur - ul
    return (0.5 * ul + 0.5 * a - 0.5 * jump * da_dul,
            0.5 * ur - 0.5 * a - 0.5 * jump * da_dur)


def _flux_terms(w: np.ndarray, h: float, dfl, dfr=None) -> list:
    """:func:`_stencil` terms of -(F_{j+1/2} - F_{j-1/2})/h on the padded w.

    F is a flux of the :func:`_states` of w, given by its partials ``dfl``
    = dF/du_l and ``dfr`` = dF/du_r at the interfaces j+1/2, j = 0..n-1
    (``dfr`` None: F does not depend on u_r). u_l at j+1/2 has weights on
    nodes (j-1, j, j+1) and u_r on (j, j+1, j+2); each weight enters row j
    with -dF/h, then row j+1 with +dF/h.
    """
    d = w[1:] - w[:-1]
    use_dl, use_dr = _minmod_branch(d[:-1], d[1:])   # nodes -1..n
    hl = np.where(use_dl, 0.5, 0.0)
    hr = np.where(use_dr, 0.5, 0.0)
    # u_l = u_j + slope_j/2 and u_r = u_{j+1} - slope_{j+1}/2
    parts = [(-1, dfl, -hl[1:-1]), (0, dfl, 1.0 + hl[1:-1] - hr[1:-1]),
             (1, dfl, hr[1:-1])]
    if dfr is not None:
        parts += [(0, dfr, hl[2:]), (1, dfr, 1.0 - hl[2:] + hr[2:]),
                  (2, dfr, -hr[2:])]
    terms = []
    for off, df, weight in parts:
        q = df * weight / h
        terms += [(0, off, -q), (0, off - 1, np.roll(q, 1))]
    return terms


def _burgers_axis(w: np.ndarray, h: float, nu: float) -> np.ndarray:
    """Burgers rhs on the padded w: limited LLF convection plus centered
    diffusion."""
    flux = _llf(*_states(w))
    conv = -(flux[1:] - flux[:-1]) / h
    return conv + nu * (w[3:-1] - 2 * w[2:-2] + w[1:-3]) / h**2


def _burgers_axis_terms(f: np.ndarray, h: float, nu: float) -> list:
    """:func:`_stencil` terms of the Jacobian of ``_burgers_axis(_pad(f))``."""
    w = _pad(f)
    ul, ur = _states(w)
    return _flux_terms(w, h, *_llf_partials(ul[1:], ur[1:])) + [
        (0, -1, nu / h**2), (0, 0, -2 * nu / h**2), (0, 1, nu / h**2)]


# ---------------------------------------------------------------------------
# linear 1D problems


def _linear_system(kind: str, mesh: Mesh, a: BandedSparseMatrix,
                   initial: np.ndarray, speed: float, nu: float,
                   params: dict) -> SemiDiscreteSystem:
    """du/dt = a u with a constant wave speed and diffusivity."""
    return SemiDiscreteSystem(
        kind=kind, mesh=mesh, rhs=lambda u, t: a.matvec(u),
        jacobian=lambda u: a, initial=initial, linear_matrix=a,
        wave_speed=lambda u: speed,
        diffusivity=lambda u: nu, params=params)


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
    a = _stencil(mesh, [(0, -1, u_adv / (2 * dx) + nu / dx**2),
                        (0, 0, -2 * nu / dx**2),
                        (0, 1, -u_adv / (2 * dx) + nu / dx**2)])

    if sigma is None:
        sigma = L / 20.0
    initial = _gaussian(mesh.coords(), L / 2, sigma)

    system = _linear_system("advdiff1d", mesh, a, initial, abs(u_adv), nu,
                            {"u_adv": u_adv, "nu": nu, "sigma": sigma})
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
    a = _stencil(mesh, [(0, -1, u_adv / (2 * dx)), (0, 1, -u_adv / (2 * dx))],
                 bandwidth_hint=1)

    if sigma is None:
        sigma = L / 20.0
    initial = _gaussian(mesh.coords(), L / 2, sigma)

    return _linear_system("advection_dirichlet1d", mesh, a, initial,
                          abs(u_adv), 0.0, {"u_adv": u_adv, "sigma": sigma})


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
    a = _stencil(mesh, [(0, -1, 0.5j / dx**2),
                        (0, 0, -1j / dx**2 - 0.5j * kappa * x**2),
                        (0, 1, 0.5j / dx**2)])

    if sigma is None:
        sigma = L / 20.0
    initial = _gaussian(x, 0.0, sigma).astype(complex)

    return _linear_system("schrodinger1d", mesh, a, initial, 0.0, 0.5,
                          {"kappa": kappa, "sigma": sigma})


# ---------------------------------------------------------------------------
# monotonized finite volume problems (1D)


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

    # upwind flux F = u_adv * u_l (u_adv > 0); both rhs and Jacobian scale
    # by u_adv/dx in one product, hence dF/du_l = u_adv/dx with h = 1
    def rhs(u, t=0.0):
        ul, _ = _states(_pad(u))
        return -(ul[1:] - ul[:-1]) * (u_adv / dx)

    def jacobian(u):
        return _stencil(mesh, _flux_terms(_pad(u), 1.0, u_adv / dx))

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

    return SemiDiscreteSystem(
        kind="burgers1d",
        mesh=mesh,
        rhs=lambda u, t=0.0: _burgers_axis(_pad(u), dx, nu),
        jacobian=lambda u: _stencil(mesh, _burgers_axis_terms(u, dx, nu)),
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
        q = d / dx**2
        return _stencil(mesh, [(0, -1, np.roll(q, 1)), (0, 0, -2 * d / dx**2),
                               (0, 1, np.roll(q, -1))], bandwidth_hint=1)

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
    ax = -omega * (y - yc)            # depends on y only
    ay = omega * (x - xc)[:, None]    # depends on x only
    # -d/dx(ax c) - d/dy(ay c) centered, plus nu * 5-point Laplacian
    a = _stencil(mesh, [
        (0, 1, -ax / (2 * dx) + nu / dx**2), (0, -1, ax / (2 * dx) + nu / dx**2),
        (1, 1, -ay / (2 * dy) + nu / dy**2), (1, -1, ay / (2 * dy) + nu / dy**2),
        (0, 0, -2 * nu / dx**2 - 2 * nu / dy**2),
    ])

    if sigma is None:
        sigma = min(lx, ly) / 20.0
    gx = _gaussian(x, xc + lx / 4, sigma)
    gy = _gaussian(y, yc, sigma)
    initial = np.outer(gx, gy).reshape(-1)

    speed = float(max(np.max(np.abs(ax)), np.max(np.abs(ay))))

    return _linear_system("advdiff2d", mesh, a, initial, speed, nu,
                          {"omega": omega, "nu": nu, "sigma": sigma})


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
