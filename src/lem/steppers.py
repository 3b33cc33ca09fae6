"""Time integrators: exponential (global and subdomain-local) and classical.

`run_lem` is the one stepping loop. Per step it advances all subdomains at
once on data frozen at t_n and gathers the interiors: the local states are
one zero-padded (D, L) stack, row i on window M_i (`Partition.to_stack`),
and one gather keeps the interiors. Dense phi is built once per
distinct local operator: phi_0 is stored, and phi_k climbs the squaring
ladder that built phi_0 on the vectors it is applied to. With dense phi, an
ExpEuler or ExpRB2 step is, between rebuilds, an affine map of the old
state, so it is composed once per rebuild: a step is one sparse matvec
that reads every window and its exterior couplings, and one product with
the composed propagators P_i = [phi_0(dt A_i) | dt phi_1(dt A_i) E_i]
(one gemm when every window shares P_i, else one batched product; at D=1
the one-row stack times phi_0), plus the ExpRB2 shift. ExpRB3 on
nonlinear systems and Krylov phi step the residual instead: sparse
matvecs of the block-diagonal local operators (and, for Krylov, of the
stacked exterior couplings) and phi applications on the stack; Krylov
phi is one Arnoldi process with every subdomain a member. RK4 and
Crank-Nicolson step the whole mesh through the same loop on the
one-subdomain partition, and `run_global` is `run_lem` on that partition
for every method, so all methods share one loop, one timer and one report.

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

Krylov applications that reach m_max unconverged and Crank-Nicolson steps
whose Newton iteration stalls are counted per run, and each reported as
one `RunReport.warnings` entry; the drivers install no warning filters.
A final state that is not finite raises FloatingPointError.
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

from .expm import KRYLOV_M_MAX, PhiEvaluator, stack_product
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
_CLASSICAL_METHODS = ("RK4", "CrankNicolson")
_ALL_METHODS = _EXP_METHODS + _CLASSICAL_METHODS
_PHI_MODES = ("DenseStored", "KrylovAction")
# the loosest tolerance an adaptive reference run may be asked for
_REFERENCE_TOL_MAX = 1e-6


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
# the stepping loop and its step objects


class _StackedStep:
    """Every subdomain's data frozen at one rebuild, stacked for one step.

    The local states live on the zero-padded (D, L) stack of `Partition`,
    row i on M_i in window order. A rebuild cuts the frozen Jacobian J
    once on that stack: `a_sum` is diag(A_1 ... A_D) acting on the
    flattened stack and `halo` [H_1; ...; H_D] acting on the global state
    (`BandedSparseMatrix.restrict`/`halo`). `phi_eval` is one evaluator
    for all subdomains, built from `a_sum`. A step takes one of two forms.

    Composed (DenseStored phi, every method but ExpRB3 on a nonlinear
    system). Between rebuilds the step of subdomain i,
    v_i + dt phi_1(dt A_i)(A_i v_i + H_i u + g_i), is an affine map of the
    old state: phi_0(dt A_i) v_i + dt phi_1(dt A_i) E_i h_i + c_i, with
    v_i = u[M_i], h_i the exterior couplings H_i u at the window's edge
    rows (the rows that have any), E_i the unit columns at those rows and
    c_i = dt phi_1(dt A_i) g_i the ExpRB2 shift (none on linear systems).
    `gather` is one sparse matrix that reads [v_i, h_i] of every window
    into row i of a (D, L + e) stack, e the most edge rows of any window:
    the window's nodes, then its `halo` edge rows. `prop` holds
    P_i = [phi_0(dt A_i) | dt phi_1(dt A_i) E_i], zero-padded like the
    stack: one (L, L + e) matrix when every window shares its phi and its
    edge rows, applied as one gemm, else a (D, L, L + e) stack applied as
    one batched product. The edge columns and c_i come from one
    `PhiEvaluator.apply` of phi_1 at the rebuild, after which the step
    drops `phi_eval` and its squaring ladder, so a step costs one sparse
    matvec and one product. At D=1 there is no exterior: P is phi_0 itself
    and the stack is the one row u.

    Residual (ExpRB3 on a nonlinear system, whose correction stage needs
    the nonlinear remainder, and KrylovAction, which stores no phi):
    a_sum v + halo u equals every local A_i v_i + H_i u bitwise, and
    each phi_k application is one call on the stack. ExpRB3 reads neither
    `halo` nor the affine shift g, so it builds neither. DenseStored
    `phi_eval` builds phi once per distinct block of `a_sum`, KrylovAction
    runs every subdomain as one member of one Arnoldi process on `a_sum`.
    """

    __slots__ = ("system", "part", "dt", "stage3", "phi_eval", "gather",
                 "prop", "shift", "a_sum", "halo", "g_shift")

    def __init__(self, system: SemiDiscreteSystem, part: Partition,
                 u: np.ndarray, t_n: float, cfg: StepperConfig):
        # ExpRB3 is ExpEuler on linear systems: its phi_3 stage runs, and
        # phi_3 is built, only on nonlinear ones
        self.stage3 = cfg.method == "ExpRB3" and not system.is_linear
        jac = system.linear_matrix if system.is_linear else system.jacobian(u)
        # the affine shift of the frozen quasi-linearization; the ExpRB3
        # stages evaluate the nonlinear rhs instead
        g_shift = (None if system.is_linear or self.stage3
                   else system.rhs(u, t_n) - jac.matvec(u))
        order_max = 3 if self.stage3 else 1
        self.system, self.part, self.dt = system, part, cfg.dt
        a_sum = jac.restrict(part.nodes, part.pads)
        halo = None if self.stage3 else jac.halo(part.nodes, part.pads)
        self.prop = None

        if cfg.phi_mode == "DenseStored":
            self.phi_eval = PhiEvaluator.dense(a_sum, part.sizes, cfg.dt,
                                               order_max)
            if not self.stage3:
                self._compose(halo, g_shift)
                return
        else:
            self.phi_eval = PhiEvaluator.krylov(a_sum, cfg.dt, order_max)
        self.a_sum, self.halo = a_sum, halo
        self.g_shift = (None if g_shift is None
                        else part.to_stack(g_shift).reshape(-1))

    def _compose(self, halo: BandedSparseMatrix,
                 g_shift: Optional[np.ndarray]) -> None:
        """Set `gather`, `prop` and `shift` of the composed step, then drop
        `phi_eval`, whose squaring ladder the step no longer reads."""
        part, dt, phi = self.part, self.dt, self.phi_eval
        self.prop, self.gather, self.shift = phi.stored(0), None, None
        self.phi_eval = None
        g = None if g_shift is None else part.to_stack(g_shift)
        if part.D == 1:  # the window is the whole mesh, with no exterior
            if g is not None:
                self.shift = dt * phi.apply(1, g)
            return
        d, width = part.D, part.width
        # the edge rows (window rows with exterior couplings), and the rank
        # of each among the edge rows of its window
        edge = np.zeros(d * width, dtype=bool)
        edge[halo.rows] = True
        edge = edge.reshape(d, width)
        rank = np.cumsum(edge, axis=1) - 1
        e = int(edge.sum(axis=1).max())
        start = (width + e) * np.arange(d)[:, None]  # row i of the gather
        # the window's values (unit entries, zero at the pads, which the
        # constructor drops), then its edge couplings
        ones = (np.ones(d * width) if part.pads is None
                else 1.0 - part.pads.reshape(-1))
        self.gather = BandedSparseMatrix(
            d * (width + e), part.n_total,
            np.concatenate(((start + np.arange(width)).reshape(-1),
                            (start + width + rank).reshape(-1)[halo.rows])),
            np.concatenate((part.nodes.reshape(-1), halo.cols)),
            np.concatenate((ones, halo.vals)))

        # slot j of window i is the unit vector at its j-th edge row; one
        # phi_1 application serves them and the shift's row
        units = np.zeros((e, d, width))
        i, j = np.nonzero(edge)
        units[rank[i, j], i, j] = 1.0
        cols = dt * phi.apply(1, units if g is None else np.concatenate((g[None], units)))
        if g is not None:
            self.shift, cols = cols[0], cols[1:]
        if self.prop.ndim == 2 and np.all(edge == edge[0]):
            cols = cols[:, 0]  # one P for every window
        edge_cols = np.moveaxis(cols, 0, -1)
        self.prop = np.concatenate(
            (np.broadcast_to(self.prop, edge_cols.shape[:-1] + (width,)),
             edge_cols), axis=-1)

    def advance(self, u: np.ndarray, t_n: float) -> np.ndarray:
        """One step of every subdomain from u at t_n, as the flattened
        (D, L) stack of their new local states."""
        part = self.part
        if self.prop is not None:
            x = (part.to_stack(u) if self.gather is None  # D=1: no exterior
                 else self.gather.matvec(u).reshape(part.D, -1))
            y = stack_product(self.prop, x)
            return (y if self.shift is None else y + self.shift).reshape(-1)

        system, dt, phi = self.system, self.dt, self.phi_eval
        v = part.to_stack(u)
        if self.stage3:
            # stages evaluate the true local rhs with exterior frozen at t_n;
            # at the local states v that is the global rhs restricted
            f_n = part.to_stack(system.rhs(u, t_n))
            u_2 = v + dt * phi.apply(1, f_n)
            f_2 = np.zeros_like(u_2)
            for i, size in enumerate(part.sizes):
                m, full = part.nodes[i, :size], u.copy()
                full[m] = u_2[i, :size]
                f_2[i, :size] = system.rhs(full, t_n)[m]
            dn = f_2 - f_n - self.a_sum.matvec(
                (u_2 - v).reshape(-1)).reshape(v.shape)
            return (u_2 + 2 * dt * phi.apply(3, dn)).reshape(-1)

        # KrylovAction: ExpEuler on linear systems; ExpRB2 propagates the
        # frozen quasi-linearization, whose affine shift g_shift was set at
        # refresh
        w = self.a_sum.matvec(v.reshape(-1)) + self.halo.matvec(u)
        if self.g_shift is not None:
            w = w + self.g_shift
        return (v + dt * phi.apply(1, w.reshape(v.shape))).reshape(-1)


class _ClassicalStep:
    """One RK4 or Crank-Nicolson step of the whole mesh, the classical
    counterpart of `_StackedStep` on the one-subdomain partition.

    Crank-Nicolson factors I - dt/2 J at the rebuild (RK4 freezes nothing);
    on nonlinear systems `stalls` lists the final residual of every step
    whose modified Newton iteration stalled.
    """

    __slots__ = ("system", "dt", "solver", "stalls")

    def __init__(self, system: SemiDiscreteSystem, part: Partition,
                 u: np.ndarray, t_n: float, cfg: StepperConfig):
        self.system, self.dt, self.stalls = system, cfg.dt, []
        self.solver = None
        if cfg.method == "CrankNicolson":
            self.factor(system.linear_matrix if system.is_linear
                        else system.jacobian(u))

    def factor(self, jac: BandedSparseMatrix) -> None:
        """Set `solver` to the LU factors of I - dt/2 J."""
        self.solver = splu(sp_identity(jac.n_rows, dtype=jac.dtype, format="csc")
                           - 0.5 * self.dt * jac.to_csr().tocsc())

    def advance(self, u: np.ndarray, t_n: float) -> np.ndarray:
        """One step of the whole mesh from u at t_n."""
        system, dt, f = self.system, self.dt, self.system.rhs
        if self.solver is None:
            k1 = f(u, t_n)
            k2 = f(u + dt / 2 * k1, t_n + dt / 2)
            k3 = f(u + dt / 2 * k2, t_n + dt / 2)
            k4 = f(u + dt * k3, t_n + dt)
            return u + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        f_n = f(u, t_n)
        if system.is_linear:
            # trapezoidal: (I - dt/2 A) u+ = u + dt/2 A u
            return self.solver.solve(u + 0.5 * dt * f_n)
        # modified Newton with the frozen factorization; judged by the
        # residual, since limiter kinks can cycle harmlessly at the 1e-10
        # level. A stale factorization can also fail to contract outright,
        # in which case refactor once and retry.
        scale = 1.0 + float(np.max(np.abs(u)))
        for attempt in range(2):
            v = u + dt * f_n
            resid_inf = np.inf
            for _ in range(50):
                resid = v - u - 0.5 * dt * (f_n + f(v, t_n + dt))
                resid_inf = float(np.max(np.abs(resid)))
                if resid_inf <= 1e-10 * scale:
                    break
                v = v + self.solver.solve(-resid)
            if resid_inf <= 1e-8 * scale or attempt == 1:
                break
            self.factor(system.jacobian(u))
        if resid_inf > 1e-8 * scale:
            self.stalls.append(resid_inf)
        return v


def run_lem(system: SemiDiscreteSystem, part: Partition,
            cfg: StepperConfig) -> RunReport:
    """Advance the system, one step of every subdomain per step.

    Per step: take every subdomain's local exponential step on M_i with
    exterior data frozen at t_n, all at once on the (D, L) stack of local
    states (`_StackedStep`), then gather keeping interiors only; RK4 and
    Crank-Nicolson (`_ClassicalStep`) need the one-subdomain partition.
    The step is rebuilt every refresh interval (for linear systems: built
    once, first step), and its Krylov misses or Newton stalls harvested.
    """
    if part.n_total != system.n:
        raise ValueError("partition size does not match the system")
    classical = cfg.method in _CLASSICAL_METHODS
    if classical and part.D != 1:
        raise ValueError(f"{cfg.method} steps the whole mesh and needs the "
                         f"one-subdomain partition, got D={part.D}")
    if cfg.method == "ExpEuler" and not system.is_linear:
        raise ValueError("exponential Euler needs a linear system; "
                         "use an exponential Rosenbrock method")

    steps = cfg.n_steps
    refresh = cfg.refresh_interval(system)
    make_step = _ClassicalStep if classical else _StackedStep
    u = np.array(system.initial, copy=True)
    trajectory = [u.copy()] if cfg.record_trajectory else None
    dims: List[int] = []
    stalls: List[float] = []
    misses = 0

    def harvest():
        nonlocal misses
        if classical:
            stalls.extend(step.stalls)
        elif step.phi_eval is not None:  # a composed step drops its phi
            dims.extend(step.phi_eval.krylov_dims)
            misses += step.phi_eval.krylov_misses

    t_start = time.perf_counter()
    step = make_step(system, part, u, 0.0, cfg)
    for s in range(steps):
        t_n = s * cfg.dt
        if s and refresh is not None and s % refresh == 0:
            harvest()
            step = None  # frees the old step's phi before the next is built
            step = make_step(system, part, u, t_n, cfg)
        u = gather_overwrite(part, step.advance(u, t_n))
        if trajectory is not None:
            trajectory.append(u.copy())
    wall = time.perf_counter() - t_start

    harvest()
    if not np.isfinite(u).all():
        raise FloatingPointError(
            f"{cfg.method} state is not finite after {steps} steps")
    captured: List[str] = []
    if misses:
        captured.append(
            f"phi_action_krylov: no convergence within "
            f"m_max={KRYLOV_M_MAX} in {misses} of "
            f"{len(dims)} applications")
    if stalls:
        captured.append(
            f"CrankNicolson Newton stalled at {len(stalls)} of {steps} steps "
            f"(worst residual {max(stalls):.2e})")
    sp = stability_params(system, cfg.dt)
    return RunReport(
        case=system.kind, method=cfg.method, D=part.D, B=part.b_nominal,
        courant=sp.courant, mu=sp.mu, dt=cfg.dt, wall_seconds=wall,
        dof_updates_per_step=part.dof_updates_per_step,
        final_state=u, krylov_avg_dim=float(np.mean(dims)) if dims else float("nan"),
        warnings=captured, trajectory=trajectory,
    )


def run_global(system: SemiDiscreteSystem, cfg: StepperConfig) -> RunReport:
    """Any method on the whole mesh: `run_lem` on the one-subdomain partition."""
    return run_lem(system, make_partition(system.mesh, 1, 0), cfg)


def run_reference(system: SemiDiscreteSystem, t_end: float,
                  tol: float = 1e-9) -> np.ndarray:
    """Adaptive reference solution of the same semi-discretization.

    Integrates with an embedded Runge-Kutta 5(4) pair under proportional-
    integral step control, then re-runs at tol/10 and demands agreement
    within 10*tol of the reference scale; disagreement or step-size
    failure raises.
    """
    if tol > _REFERENCE_TOL_MAX:
        raise ValueError(
            f"reference tolerance must be at most {_REFERENCE_TOL_MAX:g}")

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
