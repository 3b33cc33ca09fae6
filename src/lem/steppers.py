"""Time integrators: exponential (global and subdomain-local) and classical.

`run_lem` is the one exponential driver: a sequential loop that, per step,
advances every subdomain with `_local_step` on data frozen at t_n and
gathers the interiors. `run_global` runs exponential methods through it on
the one-subdomain partition, so both share one step formula.

Linear systems are advanced exactly per step, nonlinear systems through
their Jacobian linearization. Freezing policy: the Jacobian and its phi
matrices are rebuilt every ``jacobian_refresh_every`` steps (never, for
linear systems). Between rebuilds the order-2 exponential Rosenbrock path
propagates the frozen quasi-linearization exactly, so steps there cost one
stored-matrix application and no right-hand-side evaluation; the order-3
path keeps evaluating the nonlinear remainder each step, which its
correction stage needs. At every rebuild point the order-2 step coincides
with the Rosenbrock-Euler formula u + dt*phi_1(dt J)F(u), and with
``jacobian_refresh_every=1`` both methods are the standard schemes of
orders 2 and 3.

Krylov applications that reach m_max unconverged are counted per run and
reported as one `RunReport.warnings` entry; the drivers install no
warning filters.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.sparse import identity as sp_identity
from scipy.sparse.linalg import splu

from .expm import PhiEvaluator
from .models import SemiDiscreteSystem, stability_params
from .partition import Partition, gather_overwrite, make_partition
from .reports import RunReport

__all__ = [
    "StepperConfig",
    "run_lem",
    "run_global",
    "run_reference",
]

_EXP_METHODS = ("ExpEuler", "ExpRB2", "ExpRB3")
_CLASSICAL_METHODS = ("RK2", "RK3", "RK4", "CrankNicolson")
_ALL_METHODS = _EXP_METHODS + _CLASSICAL_METHODS + ("AdaptiveReference",)
_PHI_MODES = ("DenseStored", "KrylovAction")


@dataclass(frozen=True)
class StepperConfig:
    """Integration settings for one run."""

    method: str
    dt: float
    t_end: float
    jacobian_refresh_every: Optional[int] = None  # None: never (linear) / 5
    phi_mode: str = "DenseStored"
    reference_tol: float = 1e-9
    record_trajectory: bool = False

    def __post_init__(self):
        if self.method not in _ALL_METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.jacobian_refresh_every is not None and self.jacobian_refresh_every < 1:
            raise ValueError("refresh interval must be at least 1")
        if self.phi_mode not in _PHI_MODES:
            raise ValueError(f"unknown phi mode {self.phi_mode!r}")

    @property
    def n_steps(self) -> int:
        steps = round(self.t_end / self.dt)
        if steps < 1 or not math.isclose(steps * self.dt, self.t_end,
                                         rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError(
                f"dt={self.dt} does not divide t_end={self.t_end} evenly")
        return steps

    def refresh_interval(self, system: SemiDiscreteSystem) -> Optional[int]:
        if system.is_linear:
            return None  # constant Jacobian, phi built once
        return self.jacobian_refresh_every if self.jacobian_refresh_every else 5


# ---------------------------------------------------------------------------
# LEM driver


class _LocalCache:
    """Per-subdomain frozen data: restricted Jacobian, exterior couplings,
    phi evaluator, and the affine shift of the quasi-linearization."""

    __slots__ = ("a_loc", "halo", "phi", "g_shift", "idx")

    def __init__(self, a_loc, halo, phi, g_shift, idx):
        self.a_loc = a_loc
        self.halo = halo
        self.phi = phi
        self.g_shift = g_shift
        self.idx = idx


def _build_caches(system: SemiDiscreteSystem, part: Partition, u: np.ndarray,
                  t_n: float, cfg: StepperConfig) -> List[_LocalCache]:
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
        caches.append(_LocalCache(
            a_loc=a_loc, halo=halo, phi=phi,
            g_shift=None if g_shift is None else g_shift[idx], idx=idx))
    return caches


def _local_step(system: SemiDiscreteSystem, cache: _LocalCache,
                u: np.ndarray, t_n: float, dt: float, method: str) -> np.ndarray:
    v = u[cache.idx]
    b = cache.halo.matvec(u)
    if system.forcing is not None:
        b = b + system.forcing(t_n)[cache.idx]

    if method == "ExpRB3" and not system.is_linear:
        # stages evaluate the true local rhs with exterior frozen at t_n
        def f_loc(w):
            full = u.copy()
            full[cache.idx] = w
            return system.rhs(full, t_n)[cache.idx]

        f_n = f_loc(v)
        u_2 = v + dt * cache.phi.apply(1, f_n)
        dn = f_loc(u_2) - f_n - cache.a_loc.matvec(u_2 - v)
        return u_2 + 2 * dt * cache.phi.apply(3, dn)

    # ExpEuler on linear systems; ExpRB2 propagates the frozen
    # quasi-linearization, whose affine shift g_shift was set at refresh
    w = cache.a_loc.matvec(v) + b
    if cache.g_shift is not None:
        w = w + cache.g_shift
    return v + dt * cache.phi.apply(1, w)


def run_lem(system: SemiDiscreteSystem, part: Partition,
            cfg: StepperConfig) -> RunReport:
    """Advance the system with one exponential step per subdomain per step.

    Per step: restrict to each M_i with exterior data frozen at t_n, take
    the local exponential step, then gather keeping interiors only.
    Jacobian and phi caches are rebuilt every refresh interval (for linear
    systems: built once, first step). Krylov dimensions and misses are
    harvested from the outgoing caches at each rebuild.
    """
    if cfg.method not in _EXP_METHODS:
        raise ValueError(f"run_lem supports {_EXP_METHODS}, got {cfg.method!r}")
    if part.n_total != system.n:
        raise ValueError("partition size does not match the system")
    if cfg.method == "ExpEuler" and not system.is_linear:
        raise ValueError("exponential Euler needs a linear system; "
                         "use an exponential Rosenbrock method")

    steps = cfg.n_steps
    refresh = cfg.refresh_interval(system)
    u = np.array(system.initial, copy=True)
    trajectory = [u.copy()] if cfg.record_trajectory else None
    caches: Optional[List[_LocalCache]] = None
    dims: List[int] = []
    misses = 0

    def harvest():
        nonlocal misses
        for c in caches or ():
            dims.extend(c.phi.krylov_dims)
            misses += c.phi.krylov_misses

    t_start = time.perf_counter()
    for s in range(steps):
        t_n = s * cfg.dt
        if caches is None or (refresh is not None and s % refresh == 0):
            harvest()
            caches = _build_caches(system, part, u, t_n, cfg)
        locals_out = [_local_step(system, c, u, t_n, cfg.dt, cfg.method)
                      for c in caches]
        u = gather_overwrite(part, locals_out, u)
        if trajectory is not None:
            trajectory.append(u.copy())
    wall = time.perf_counter() - t_start

    harvest()
    captured: List[str] = []
    if misses:
        captured.append(
            f"phi_action_krylov: no convergence within "
            f"m_max={caches[0].phi.krylov_m_max} in {misses} of "
            f"{len(dims)} applications")
    sp = stability_params(system, cfg.dt)
    return RunReport(
        case=system.kind, method=cfg.method, D=part.D, B=part.b_nominal,
        courant=sp.courant, mu=sp.mu, dt=cfg.dt, wall_seconds=wall,
        dof_updates_per_step=part.dof_updates_per_step,
        final_state=u, krylov_avg_dim=float(np.mean(dims)) if dims else float("nan"),
        warnings=captured, trajectory=trajectory,
    )


# ---------------------------------------------------------------------------
# global (single-domain) runs, classical comparison methods


def _rk_tableau_step(system, u, t, dt, method):
    f = system.rhs
    if method == "RK2":  # Heun
        k1 = f(u, t)
        k2 = f(u + dt * k1, t + dt)
        return u + dt / 2 * (k1 + k2)
    if method == "RK3":  # Kutta's third-order rule
        k1 = f(u, t)
        k2 = f(u + dt / 2 * k1, t + dt / 2)
        k3 = f(u - dt * k1 + 2 * dt * k2, t + dt)
        return u + dt / 6 * (k1 + 4 * k2 + k3)
    k1 = f(u, t)
    k2 = f(u + dt / 2 * k1, t + dt / 2)
    k3 = f(u + dt / 2 * k2, t + dt / 2)
    k4 = f(u + dt * k3, t + dt)
    return u + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def _run_classical(system: SemiDiscreteSystem, cfg: StepperConfig) -> RunReport:
    steps = cfg.n_steps
    refresh = cfg.refresh_interval(system)
    u = np.array(system.initial, copy=True)
    trajectory = [u.copy()] if cfg.record_trajectory else None
    captured: List[str] = []
    solver = None
    stalled = 0
    worst_resid = 0.0

    t_start = time.perf_counter()
    for s in range(steps):
        t_n = s * cfg.dt
        if cfg.method == "CrankNicolson":
            if solver is None or (refresh is not None and s % refresh == 0):
                jac = (system.linear_matrix if system.is_linear
                       else system.jacobian(u))
                lhs = (sp_identity(system.n, dtype=jac.dtype, format="csc")
                       - 0.5 * cfg.dt * jac.to_csr().tocsc())
                solver = splu(lhs)
            f_n = system.rhs(u, t_n)
            if system.is_linear:
                # trapezoidal: (I - dt/2 A) u+ = u + dt/2 (A u + g_n) + dt/2 g_{n+1}
                rhs_vec = u + 0.5 * cfg.dt * f_n
                if system.forcing is not None:
                    rhs_vec = rhs_vec + 0.5 * cfg.dt * system.forcing(t_n + cfg.dt)
                u = solver.solve(rhs_vec)
            else:
                # modified Newton with the frozen factorization; judged by
                # the residual, since limiter kinks can cycle harmlessly at
                # the 1e-10 level. A stale factorization can also fail to
                # contract outright, in which case refactor once and retry.
                scale = 1.0 + float(np.max(np.abs(u)))
                for attempt in range(2):
                    v = u + cfg.dt * f_n
                    resid_inf = np.inf
                    for _ in range(50):
                        resid = v - u - 0.5 * cfg.dt * (
                            f_n + system.rhs(v, t_n + cfg.dt))
                        resid_inf = float(np.max(np.abs(resid)))
                        if resid_inf <= 1e-10 * scale:
                            break
                        v = v + solver.solve(-resid)
                    if resid_inf <= 1e-8 * scale or attempt == 1:
                        break
                    lhs = (sp_identity(system.n, format="csc")
                           - 0.5 * cfg.dt * system.jacobian(u).to_csr().tocsc())
                    solver = splu(lhs)
                if resid_inf > 1e-8 * scale:
                    stalled += 1
                    worst_resid = max(worst_resid, resid_inf)
                u = v
        else:
            u = _rk_tableau_step(system, u, t_n, cfg.dt, cfg.method)
        if trajectory is not None:
            trajectory.append(u.copy())
    wall = time.perf_counter() - t_start
    if stalled:
        captured.append(
            f"CrankNicolson Newton stalled at {stalled} of {steps} steps "
            f"(worst residual {worst_resid:.2e})")

    sp = stability_params(system, cfg.dt)
    return RunReport(
        case=system.kind, method=cfg.method, D=1, B=0,
        courant=sp.courant, mu=sp.mu, dt=cfg.dt, wall_seconds=wall,
        dof_updates_per_step=system.n, final_state=u,
        warnings=captured, trajectory=trajectory,
    )


def run_global(system: SemiDiscreteSystem, cfg: StepperConfig) -> RunReport:
    """Single-domain run: exponential methods via the degenerate partition,
    classical methods via their usual update formulas."""
    if cfg.method in _EXP_METHODS:
        part = make_partition(system.mesh, 1, 0)
        return run_lem(system, part, cfg)
    if cfg.method == "AdaptiveReference":
        t_start = time.perf_counter()
        u_end = run_reference(system, cfg.t_end, cfg.reference_tol)
        wall = time.perf_counter() - t_start
        sp = stability_params(system, cfg.dt)
        return RunReport(
            case=system.kind, method=cfg.method, D=1, B=0,
            courant=sp.courant, mu=sp.mu, dt=cfg.dt, wall_seconds=wall,
            dof_updates_per_step=system.n, final_state=u_end,
        )
    return _run_classical(system, cfg)


def run_reference(system: SemiDiscreteSystem, t_end: float,
                  tol: float = 1e-9) -> np.ndarray:
    """Adaptive reference solution of the same semi-discretization.

    Integrates with an embedded Runge-Kutta 5(4) pair under proportional-
    integral step control, then re-runs at tol/10 and demands agreement
    within 10*tol of the reference scale; disagreement or step-size
    failure raises.
    """
    if tol > 1e-6:
        raise ValueError("reference tolerance must be at most 1e-6")

    def ivp_rhs(t, y):
        return system.rhs(y, t)

    y0 = np.asarray(system.initial)
    scale = float(np.max(np.abs(y0))) or 1.0

    def solve(rtol):
        sol = solve_ivp(ivp_rhs, (0.0, t_end), y0, method="RK45",
                        rtol=rtol, atol=rtol * 1e-3 * scale, dense_output=False)
        if not sol.success:
            raise RuntimeError(f"reference solver failed: {sol.message}")
        return sol.y[:, -1]

    u_ref = solve(tol)
    u_check = solve(tol / 10)
    diff = float(np.max(np.abs(u_ref - u_check)))
    if diff > 10 * tol * max(scale, float(np.max(np.abs(u_ref)))):
        raise RuntimeError(
            f"reference solution not self-consistent: tol/10 re-run moved "
            f"the state by {diff:.3e}")
    return u_check
