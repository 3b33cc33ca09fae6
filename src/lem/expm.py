"""Dense matrix exponentials, phi-functions, Krylov actions and decay bounds.

The local exponential method needs three flavors of exponential machinery:

* `expm_dense` - scaling and squaring with a diagonal Pade approximant of
  order 13, scaling until the 1-norm of the scaled matrix is at most
  theta_13 = 5.37 (Al-Mohy & Higham, SIMAX 2009).
* `phi_k_dense` / `phi_dense_all` - the entire-function family
  phi_0(z) = exp(z), phi_k(z) = (phi_{k-1}(z) - 1/(k-1)!)/z, evaluated for a
  full matrix argument as the top block row of exp(W), with
  W = [[A, I, 0, ...], [0, J_k kron I]], which stays well defined for
  singular arguments. `expm_dense(a, k)` never forms the (k + 1) n matrix
  W: every power, Pade polynomial, solve and squaring of W keeps the form
  [[X, Y_1 ... Y_k], [0, T kron I]] (`_Block`), so each costs n x n by
  n x (k + 1) n work. Squaring that form is the phi-function doubling of
  Skaflestad & Wright (APNUM 2009). Before each squaring, entries below
  eps^2 times the largest are dropped, since their subnormal fill-in would
  slow the squarings several times over.
* `phi_action_krylov` - Arnoldi approximation of phi_k(dt A) v for large
  sparse operators, with a residual-style stopping estimate. The basis is
  built by block classical Gram-Schmidt with one reorthogonalization pass,
  and phi_k(dt H_m) e_1 comes from one exponential of the (m + k)-sized
  matrix [[H_m, e_1, 0], [0, J_k]] (`phi_hessenberg_e1`). That exponential
  and the stopping test run only every KRYLOV_CHECK_EVERY steps, at happy
  breakdown and at m_max, as in phipm (Niesen & Wright, TOMS 2012) and
  KIOPS (Gaudreault, Rainwater & Tokman, JCP 2018).

`iserles_bound` and `verify_decay` implement the rigorous super-exponential
bound on the off-diagonal entries of exp(B) for banded B: with d = |i - j|,
s the bandwidth and rho the largest entry magnitude,

    |exp(B)_{i,j}| <= (rho s / d)^(d/s) * [e^(d/s) - sum_{k<d} (d/s)^k / k!].
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from lem.sparse import BandedSparseMatrix

# numerator coefficients of the order-13 diagonal Pade approximant to exp
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)

# largest 1-norm at which the order-13 Pade approximant has backward error
# at most the unit roundoff (Al-Mohy & Higham, SIMAX 2009, Table 3.1)
_THETA13 = 5.371920351148152

# before each squaring of a phi build, entries below this times the largest
# one are set to zero, so that decaying fill-in never turns subnormal
_DROP = np.finfo(float).eps ** 2

# Arnoldi steps between Krylov convergence tests (each test costs one dense
# exponential of size m + k)
KRYLOV_CHECK_EVERY = 4

# Krylov stopping tolerance (relative to ||v||) and dimension cap
KRYLOV_TOL = 1e-10
KRYLOV_M_MAX = 60


class _Block:
    """[[X, Y_1 ... Y_k], [0, T kron I]], stored as its top block row and T.

    `f` is the n x (k + 1) n row [X, Y_1, ..., Y_k] and `t` the k x k
    scalar matrix T. Sums, scalar multiples, products and solves of such
    matrices keep the form, so a product costs one n x n by n x (k + 1) n
    matmul and a solve one LU of the n x n block.
    """

    __slots__ = ("f", "t")

    def __init__(self, f: np.ndarray, t: np.ndarray):
        self.f = f
        self.t = t

    def _mix(self, t: np.ndarray) -> np.ndarray:
        """[Y_1 ... Y_k] (t kron I): column block j is sum_i t[i, j] Y_i."""
        n, k = self.f.shape[0], self.t.shape[0]
        y = self.f[:, n:].reshape(n, k, n)
        return np.matmul(t.T, y).reshape(n, k * n)

    def __matmul__(self, other: "_Block") -> "_Block":
        n = self.f.shape[0]
        f = self.f[:, :n] @ other.f
        f[:, n:] += self._mix(other.t)
        return _Block(f, self.t @ other.t)

    def __add__(self, other: "_Block") -> "_Block":
        return _Block(self.f + other.f, self.t + other.t)

    def __sub__(self, other: "_Block") -> "_Block":
        return _Block(self.f - other.f, self.t - other.t)

    def __rmul__(self, c: float) -> "_Block":
        return _Block(c * self.f, c * self.t)

    def solve(self, rhs: "_Block") -> "_Block":
        """self^{-1} rhs: X^{-1} [R_X, R_Y - Y (S kron I)] with S = T^{-1} R_T."""
        n = self.f.shape[0]
        s = np.linalg.solve(self.t, rhs.t)
        g = rhs.f.copy()
        g[:, n:] -= self._mix(s)
        return _Block(np.linalg.solve(self.f[:, :n], g), s)


def _pade13(b, ident):
    """(U, V) of the order-13 Pade approximant (V - U)^{-1} (V + U) to exp(b).

    `b` and `ident` are both ndarrays or both `_Block`s.
    """
    b2 = b @ b
    b4 = b2 @ b2
    b6 = b2 @ b4
    c = _PADE13
    u = b @ (
        b6 @ (c[13] * b6 + c[11] * b4 + c[9] * b2)
        + c[7] * b6 + c[5] * b4 + c[3] * b2 + c[1] * ident
    )
    v = (
        b6 @ (c[12] * b6 + c[10] * b4 + c[8] * b2)
        + c[6] * b6 + c[4] * b4 + c[2] * b2 + c[0] * ident
    )
    return u, v


def expm_dense(a: np.ndarray, k: int = 0) -> np.ndarray:
    """exp(A) for k = 0, else the top block row [phi_0(A), ..., phi_k(A)].

    For 1 <= k <= 3 this is the n x (k + 1) n top block row of exp(W), with
    W = [[A, I, 0, ...], [0, J_k kron I]] and J_k the k x k upper shift; it
    is well defined for singular A. W is never formed: the Pade 13 scaling
    and squaring runs on `_Block`s, and before each squaring the entries
    below eps^2 times the largest are set to zero. The scaling brings
    ||W||_1 = max(||A||_1, 1) (||A||_1 for k = 0) to at most theta_13,
    where the approximant's backward error is at most the unit roundoff.
    Raises ValueError on a non-square or non-finite input and OverflowError
    on overflow.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expm_dense expects a square matrix")
    if not 0 <= k <= 3:
        raise ValueError("phi order must be between 0 and 3")
    if not np.all(np.isfinite(a)):
        raise ValueError("expm_dense: non-finite entries in input")
    n = a.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=a.dtype)

    norm = float(np.max(np.sum(np.abs(a), axis=0)))
    if k:
        norm = max(norm, 1.0)
    elif norm == 0.0:
        return np.eye(n, dtype=np.result_type(a.dtype, np.float64))
    squarings = max(0, math.ceil(math.log2(norm / _THETA13)))
    scale = 2.0 ** squarings

    if k == 0:
        b = a / scale
        u, v = _pade13(b, np.eye(n, dtype=b.dtype))
        r = np.linalg.solve(v - u, v + u)
        for _ in range(squarings):
            r = r @ r
    else:
        ident = np.zeros((n, (k + 1) * n), dtype=np.promote_types(a.dtype, np.float64))
        ident[:, :n] = np.eye(n)
        w = np.zeros_like(ident)  # top block row [A, I, 0, ...] of W
        w[:, :n] = a
        w[:, n:2 * n] = np.eye(n)
        b = _Block(w / scale, np.eye(k, k=1) / scale)
        u, v = _pade13(b, _Block(ident, np.eye(k)))
        blk = (v - u).solve(v + u)
        for _ in range(squarings):
            mag = np.abs(blk.f)
            blk.f[mag < _DROP * mag.max()] = 0.0
            blk = blk @ blk
        r = blk.f
    if not np.all(np.isfinite(r)):
        raise OverflowError("expm_dense: overflow during squaring phase")
    return r


def phi_dense_all(a: np.ndarray, k_max: int) -> list[np.ndarray]:
    """[phi_0(A), ..., phi_{k_max}(A)]: the n x n blocks of expm_dense(a, k_max)."""
    e = expm_dense(a, k_max)
    n = e.shape[0]
    return [e[:, j * n:(j + 1) * n] for j in range(k_max + 1)]


def phi_k_dense(a: np.ndarray, k: int) -> np.ndarray:
    """phi_k(A) for 0 <= k <= 3 as a dense matrix."""
    return phi_dense_all(a, k)[k]


def _as_matvec(a):
    if isinstance(a, BandedSparseMatrix):
        return a.matvec, a.n_rows, a.is_complex
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("operator must be square")
    return (lambda x: arr @ x), arr.shape[0], np.issubdtype(arr.dtype, np.complexfloating)


def phi_hessenberg_e1(h: np.ndarray, k: int) -> np.ndarray:
    """phi_k(H) e_1 from one exponential of an (m + k)-sized augmented matrix.

    exp of [[H, e_1, 0, ...], [0, J_k]], with J_k the k x k upper shift,
    carries phi_j(H) e_1 in its column m + j - 1, so the first m entries of
    its last column are phi_k(H) e_1 (Sidje, Expokit, TOMS 1998). One
    column is all a Krylov step needs, and this exponential costs about
    (m + k)^3 where `expm_dense(h, k)` costs (k + 1) m^3.
    """
    h = np.asarray(h)
    m = h.shape[0]
    w = np.zeros((m + k, m + k), dtype=np.promote_types(h.dtype, np.float64))
    w[:m, :m] = h
    w[0, m] = 1.0
    w[np.arange(m, m + k - 1), np.arange(m + 1, m + k)] = 1.0
    return expm_dense(w)[:m, -1]


def phi_action_krylov(a, dt: float, v: np.ndarray, k: int,
                      tol: float = KRYLOV_TOL,
                      m_max: int = KRYLOV_M_MAX) -> np.ndarray:
    """Arnoldi approximation of phi_k(dt A) v without forming phi_k(dt A).

    Builds an orthonormal basis V_m of the Krylov space of dt*A by
    classical Gram-Schmidt with one full reorthogonalization pass, and
    returns ||v|| V_m phi_k(dt H_m) e_1, with phi_k(dt H_m) e_1 taken from
    `phi_hessenberg_e1`. The stopping estimate
    |beta * h_{m+1,m} * (phi_k(dt H_m) e_1)_m| <= tol*beta is tested only at
    checkpoints: every KRYLOV_CHECK_EVERY-th step, at happy breakdown
    (result exact) and at m_max. The dimension used can therefore exceed the
    first step at which the estimate holds by less than KRYLOV_CHECK_EVERY.
    Hitting m_max raises a warning and returns the best available
    approximation.
    """
    result, _, converged = _phi_action_krylov(a, dt, v, k, tol=tol, m_max=m_max)
    if not converged:
        warnings.warn(
            f"phi_action_krylov: no convergence within m_max={m_max}",
            RuntimeWarning,
        )
    return result


def _phi_action_krylov(a, dt: float, v: np.ndarray, k: int,
                       tol: float = KRYLOV_TOL, m_max: int = KRYLOV_M_MAX):
    """phi_action_krylov worker: (result, Krylov dimension used, converged).

    It never warns; hitting m_max without meeting the tolerance returns
    converged=False, and the caller decides how to report it.
    """
    if k not in (1, 2, 3):
        raise ValueError("phi_action_krylov supports k in {1, 2, 3}")
    matvec, n, op_complex = _as_matvec(a)
    v = np.asarray(v)
    if v.shape != (n,):
        raise ValueError("vector length does not match operator size")
    dtype = np.complex128 if (op_complex or np.issubdtype(v.dtype, np.complexfloating)) else np.float64

    beta = float(np.linalg.norm(v))
    if beta == 0.0:
        return np.zeros(n, dtype=dtype), 0, True

    vv = np.zeros((m_max + 1, n), dtype=dtype)
    h = np.zeros((m_max + 1, m_max), dtype=dtype)
    vv[0] = v / beta
    h_max = 0.0  # running max |entry| of H_m, subdiagonal included
    y = None
    m_used = m_max
    converged = False
    for m in range(1, m_max + 1):
        w = dt * matvec(vv[m - 1])
        basis = vv[:m]
        # block classical Gram-Schmidt, two passes, coefficients conj(V) w
        c1 = (basis @ w.conj()).conj()
        w = w - c1 @ basis
        c2 = (basis @ w.conj()).conj()
        w = w - c2 @ basis
        h[:m, m - 1] = c1 + c2
        h_max = max(h_max, float(np.max(np.abs(h[:m, m - 1]))))
        hnext = float(np.linalg.norm(w))
        if hnext <= 1e-14 * max(1.0, h_max):
            # happy breakdown: Krylov space is invariant, result exact
            y = phi_hessenberg_e1(h[:m, :m], k)
            m_used, converged = m, True
            break
        h[m, m - 1] = hnext
        h_max = max(h_max, hnext)
        vv[m] = w / hnext
        if m % KRYLOV_CHECK_EVERY == 0 or m == m_max:
            y = phi_hessenberg_e1(h[:m, :m], k)
            if beta * hnext * abs(y[m - 1]) <= tol * beta:
                m_used, converged = m, True
                break
    result = beta * (vv[:m_used].T @ y)
    return result, m_used, converged


@dataclass
class PhiEvaluator:
    """phi_k applications behind one interface, dense-cached or Krylov.

    DenseStored mode precomputes phi_1..phi_{order_max}(dt A) once and applies
    them by matrix-vector products. `stacked` joins the stored matrices of
    several equal-size operators along a leading batch axis, so one `apply`
    serves all of them. KrylovAction mode runs an Arnoldi iteration per
    application of one vector at KRYLOV_TOL, recording its dimension in
    `krylov_dims` and counting applications that hit KRYLOV_M_MAX
    unconverged in `krylov_misses`.
    Both evaluate the same mathematical object.
    """

    mode: str
    dt: float
    order_max: int
    _op: object = field(repr=False, default=None)
    _cached: list = field(repr=False, default=None)
    krylov_dims: list = field(repr=False, default_factory=list)
    krylov_misses: int = 0

    @classmethod
    def dense(cls, a, dt: float, order_max: int) -> "PhiEvaluator":
        dense_a = a.to_dense() if isinstance(a, BandedSparseMatrix) else np.asarray(a)
        phis = phi_dense_all(dt * dense_a, order_max)
        return cls(mode="DenseStored", dt=dt, order_max=order_max, _cached=phis)

    @classmethod
    def krylov(cls, a, dt: float, order_max: int) -> "PhiEvaluator":
        return cls(mode="KrylovAction", dt=dt, order_max=order_max, _op=a)

    @classmethod
    def stacked(cls, members: list) -> "PhiEvaluator":
        """One DenseStored evaluator for equal-size DenseStored `members`,
        whose phi_k is the (G, m, m) stack of the members' phi_k."""
        first = members[0]
        cached = [None] + [np.stack([e._cached[k] for e in members])
                           for k in range(1, first.order_max + 1)]
        return cls(mode="DenseStored", dt=first.dt, order_max=first.order_max,
                   _cached=cached)

    def apply(self, k: int, vec: np.ndarray) -> np.ndarray:
        """phi_k(dt A) vec. DenseStored: `vec` of shape (..., m), batched
        against a stack of phi_k; KrylovAction: one vector of length m."""
        if not 1 <= k <= self.order_max:
            raise ValueError(f"phi order {k} outside configured range 1..{self.order_max}")
        if self.mode == "DenseStored":
            return (self._cached[k] @ vec[..., None])[..., 0]
        result, m_used, converged = _phi_action_krylov(self._op, self.dt, vec, k)
        self.krylov_dims.append(m_used)
        self.krylov_misses += not converged
        return result


def iserles_bound(rho: float, s: int, d: int) -> float:
    """Rigorous bound on |exp(B)_{i,j}| for s-banded B with max entry rho, d = |i-j|.

    Evaluates (rho s / d)^(d/s) * [e^(d/s) - sum_{k<d} (d/s)^k / k!] with the
    bracket computed as the tail sum_{k>=d} (d/s)^k / k! in log space, which
    avoids both the catastrophic cancellation of the literal difference and
    overflow of e^(d/s) at large d.
    """
    if d < 1:
        raise ValueError("distance d must be at least 1 (diagonal excluded)")
    if s < 1:
        raise ValueError("bandwidth s must be at least 1")
    if rho < 0:
        raise ValueError("entry bound rho must be nonnegative")
    if rho == 0.0:
        return 0.0
    x = d / s
    log_prefactor = x * (math.log(rho) + math.log(s) - math.log(d))
    # tail sum_{k>=d} x^k/k! = (x^d/d!) * sum_{j>=0} prod_{i<=j} x/(d+i)
    log_lead = d * math.log(x) - math.lgamma(d + 1)
    series = 1.0
    term = 1.0
    i = 1
    while term > 1e-20 * series:
        term *= x / (d + i)
        series += term
        i += 1
    log_bound = log_prefactor + log_lead + math.log(series)
    if log_bound > 700.0:
        return math.inf
    return math.exp(log_bound)


@dataclass
class DecayProfileRow:
    distance: int
    max_abs: float
    bound: float
    violated: bool


@dataclass
class DecayReport:
    """Per-distance decay profile of a matrix exponential vs the banded bound."""

    rho: float
    s: int
    cyclic: bool
    noise_floor: float
    rows: list[DecayProfileRow]

    @property
    def violations(self) -> list[DecayProfileRow]:
        return [r for r in self.rows if r.violated]

    def width_at(self, threshold: float) -> int:
        """Largest distance whose max entry magnitude still exceeds threshold."""
        hits = [r.distance for r in self.rows if r.max_abs > threshold]
        return max(hits) if hits else 0


def verify_decay(a: BandedSparseMatrix, dt: float, cyclic: bool = False) -> DecayReport:
    """Compare the entries of exp(dt A) per off-diagonal distance with the bound.

    The bound applies to banded matrices; with `cyclic=True` distances are
    measured around the periodic wrap and the profile is reported without
    asserting the bound (the banded theorem does not cover circulant
    structure). Entries below the dense-arithmetic noise floor
    64 eps max|exp(dt A)| cannot be distinguished from zero and are never
    flagged. Guarded to n <= 2000.
    """
    if a.n_rows != a.n_cols:
        raise ValueError("verify_decay expects a square operator")
    n = a.n_rows
    if n > 2000:
        raise ValueError("verify_decay is limited to n <= 2000 (dense exponential)")
    b = a.scaled(dt)
    rho = b.max_abs_entry()
    s = max(1, b.bandwidth if not cyclic else _cyclic_bandwidth(b))
    e = expm_dense(b.to_dense())
    abs_e = np.abs(e)
    floor = 64.0 * np.finfo(float).eps * float(abs_e.max())

    rows = []
    max_d = n // 2 if cyclic else n - 1
    for d in range(1, max_d + 1):
        if cyclic:
            m1 = np.max(np.abs(np.diagonal(e, d))) if d < n else 0.0
            m2 = np.max(np.abs(np.diagonal(e, -(n - d)))) if d < n else 0.0
            m3 = np.max(np.abs(np.diagonal(e, -d)))
            m4 = np.max(np.abs(np.diagonal(e, n - d))) if d < n else 0.0
            max_abs = float(max(m1, m2, m3, m4))
        else:
            max_abs = float(max(np.max(np.abs(np.diagonal(e, d))),
                                np.max(np.abs(np.diagonal(e, -d)))))
        bound = iserles_bound(rho, s, d)
        violated = (not cyclic) and (max_abs > bound + floor)
        rows.append(DecayProfileRow(d, max_abs, bound, violated))
    return DecayReport(rho=rho, s=s, cyclic=cyclic, noise_floor=floor, rows=rows)


def _cyclic_bandwidth(a: BandedSparseMatrix) -> int:
    if not a.nnz:
        return 0
    d = np.abs(a.rows - a.cols)
    return int(np.max(np.minimum(d, a.n_rows - d)))
