"""Time integrators: exponential (global and subdomain-local) and classical.

`run_lem` is the one exponential driver. Per step it advances all
subdomains at once on data frozen at t_n and gathers the interiors: the
local states are one flat vector, the residual is two sparse matvecs (the
block-diagonal local operators and the stacked exterior couplings), each
run of consecutive equal-size subdomains takes one batched phi product
(Krylov subdomains one Arnoldi action each), and one scatter keeps the
interiors. `run_global` runs exponential methods through it on the
one-subdomain partition, so both share one step formula.

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
from itertools import groupby
from typing import List, Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.sparse import identity as sp_identity
from scipy.sparse.linalg import splu

from .expm import KRYLOV_M_MAX, PhiEvaluator
from .models import SemiDiscreteSystem, stability_params
from .partition import Partition, gather_overwrite, make_partition
from .reports import RunReport
from .sparse import BandedSparseMatrix

__all__ = [
    "StepperConfig",
    "run_lem",
    "run_global",
    "run_reference",
]

_EXP_METHODS = ("ExpEuler", "ExpRB2", "ExpRB3")
_CLASSICAL_METHODS = ("RK2", "RK3", "RK4", "CrankNicolson")
_ALL_METHODS = _EXP_METHODS + _CLASSICAL_METHODS
_PHI_MODES = ("DenseStored", "KrylovAction")


@dataclass(frozen=True)
class StepperConfig:
    """Integration settings for one run."""

    method: str
    dt: float
    t_end: float
    jacobian_refresh_every: Optional[int] = None  # None: never (linear) / 5
    phi_mode: str = "DenseStored"
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


class _StackedStep:
    """Every subdomain's data frozen at one rebuild, stacked for one step.

    The local states live on one flat vector, the M_i concatenated in
    partition order (`Partition.flat_locals`). `a_sum` is diag(A_1 ... A_D)
    acting on it and `halo` the stacked exterior couplings [H_1; ...; H_D]
    acting on the global state, both built from each subdomain's own
    `restrict`/`halo` rows, so `a_sum v + halo u` equals every local
    A_i v_i + H_i u bitwise. A run is a maximal sequence of consecutive
    DenseStored subdomains of equal size, and shares one stacked evaluator;
    a run of one, and every Krylov subdomain, keeps its own. The runs tile
    the flat vector in partition order. A `runs` entry is (slice of the
    flat vector, shape of the evaluator's input, evaluator).
    """

    __slots__ = ("system", "part", "dt", "method", "a_sum", "halo", "g_shift",
                 "runs")

    def __init__(self, system: SemiDiscreteSystem, part: Partition,
                 u: np.ndarray, t_n: float, cfg: StepperConfig):
        if system.is_linear:
            jac = system.linear_matrix
            g_shift = None
        else:
            jac = system.jacobian(u)
            g_shift = system.rhs(u, t_n) - jac.matvec(u)
        order_max = 3 if cfg.method == "ExpRB3" else 1
        krylov = cfg.phi_mode == "KrylovAction"
        a_locs, halos, phis = [], [], []
        for m_i in part.locals:
            a_loc = jac.restrict(m_i, m_i)
            a_locs.append(a_loc)
            halos.append(jac.halo(m_i, m_i))
            if krylov:
                phis.append(PhiEvaluator.krylov(a_loc, cfg.dt, order_max))
            else:
                phis.append(PhiEvaluator.dense(a_loc, cfg.dt, order_max))
        self.system, self.part = system, part
        self.dt, self.method = cfg.dt, cfg.method
        self.a_sum = BandedSparseMatrix.vstack(a_locs, diagonal=True)
        self.halo = BandedSparseMatrix.vstack(halos)
        self.g_shift = None if g_shift is None else g_shift[part.flat_locals]

        # runs of consecutive equal-size dense subdomains; a Krylov
        # subdomain is a run of one
        off = part.offsets
        self.runs = []
        for _, ids in groupby(range(part.D), key=lambda i: i if krylov
                              else len(part.locals[i])):
            ids = list(ids)
            lo, hi = ids[0], ids[-1] + 1
            sel, size = slice(off[lo], off[hi]), len(part.locals[lo])
            if hi - lo == 1:
                self.runs.append((sel, (size,), phis[lo]))
            else:
                self.runs.append((sel, (hi - lo, size),
                                  PhiEvaluator.stacked(phis[lo:hi])))

    @property
    def evaluators(self) -> List[PhiEvaluator]:
        return [phi for _, _, phi in self.runs]

    def phi(self, k: int, x: np.ndarray) -> np.ndarray:
        """phi_k(dt A_i) x_i on every subdomain, x flat as `flat_locals`."""
        out = [phi.apply(k, x[sel].reshape(shape)).reshape(-1)
               for sel, shape, phi in self.runs]
        return out[0] if len(out) == 1 else np.concatenate(out)

    def advance(self, u: np.ndarray, t_n: float) -> np.ndarray:
        """One step of every subdomain from u at t_n, as one flat vector."""
        system, dt, idx = self.system, self.dt, self.part.flat_locals
        v = u[idx]
        if self.method == "ExpRB3" and not system.is_linear:
            # stages evaluate the true local rhs with exterior frozen at t_n;
            # at the local states u[idx] that is the global rhs restricted
            f_n = system.rhs(u, t_n)[idx]
            u_2 = v + dt * self.phi(1, f_n)
            f_2 = np.empty_like(u_2)
            off = self.part.offsets
            for i, m_i in enumerate(self.part.locals):
                full = u.copy()
                full[m_i.indices] = u_2[off[i]:off[i + 1]]
                f_2[off[i]:off[i + 1]] = system.rhs(full, t_n)[m_i.indices]
            dn = f_2 - f_n - self.a_sum.matvec(u_2 - v)
            return u_2 + 2 * dt * self.phi(3, dn)

        # ExpEuler on linear systems; ExpRB2 propagates the frozen
        # quasi-linearization, whose affine shift g_shift was set at refresh
        w = self.a_sum.matvec(v) + self.halo.matvec(u)
        if self.g_shift is not None:
            w = w + self.g_shift
        return v + dt * self.phi(1, w)


def run_lem(system: SemiDiscreteSystem, part: Partition,
            cfg: StepperConfig) -> RunReport:
    """Advance the system with one exponential step per subdomain per step.

    Per step: take every subdomain's local exponential step on M_i with
    exterior data frozen at t_n, all at once on the flat local vector
    (`_StackedStep`), then gather keeping interiors only. The stacked step
    is rebuilt every refresh interval (for linear systems: built once,
    first step). Krylov dimensions and misses are harvested from the
    outgoing step's evaluators at each rebuild.
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
    step: Optional[_StackedStep] = None
    dims: List[int] = []
    misses = 0

    def harvest():
        nonlocal misses
        for phi in step.evaluators if step else ():
            dims.extend(phi.krylov_dims)
            misses += phi.krylov_misses

    t_start = time.perf_counter()
    for s in range(steps):
        t_n = s * cfg.dt
        if step is None or (refresh is not None and s % refresh == 0):
            harvest()
            step = _StackedStep(system, part, u, t_n, cfg)
        u = gather_overwrite(part, step.advance(u, t_n), u)
        if trajectory is not None:
            trajectory.append(u.copy())
    wall = time.perf_counter() - t_start

    harvest()
    captured: List[str] = []
    if misses:
        captured.append(
            f"phi_action_krylov: no convergence within "
            f"m_max={KRYLOV_M_MAX} in {misses} of "
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
                # trapezoidal: (I - dt/2 A) u+ = u + dt/2 A u
                u = solver.solve(u + 0.5 * cfg.dt * f_n)
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
