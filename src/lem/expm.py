"""Dense matrix exponentials, phi-functions, Krylov actions and decay bounds.

The local exponential method needs three flavors of exponential machinery:

* `expm_dense` - scaling and squaring with a diagonal Pade approximant of
  order 13, scaling until the 1-norm of the scaled matrix is at most
  theta_13 = 5.37 (Al-Mohy & Higham, SIMAX 2009). It also takes a
  (G, n, n) stack, each member scaled and squared as often as it needs
  alone, so that one call serves many small matrices.
* `phi_k_dense` / `phi_dense_all` - the entire-function family
  phi_0(z) = exp(z), phi_k(z) = (phi_{k-1}(z) - 1/(k-1)!)/z, evaluated for a
  full matrix argument as the top block row of exp(W), with
  W = [[A, I, 0, ...], [0, J_k kron I]], which stays well defined for
  singular arguments. `expm_dense(a, k)` never forms the (k + 1) n matrix
  W: every power, Pade polynomial, solve and squaring of W keeps the form
  [[X, Y_1 ... Y_k], [0, T kron I]] (`_Block`), so each costs n x n by
  n x (k + 1) n work, and writes into a fixed set of n x (k + 1) n
  buffers allocated once per call. The Pade solve inverts the n x n block
  X once (LU, then the inverse from it) and applies it as one product.
  Squaring that form is the phi-function doubling of Skaflestad & Wright
  (APNUM 2009). Before each squaring, entries below eps^2 times the
  largest are dropped, since their subnormal fill-in would slow the
  squarings several times over. `PhiEvaluator.dense` builds the stored
  phi_0 ... phi_k of a block-diagonal operator once per distinct block.
* `phi_action_krylov` - Arnoldi approximation of phi_k(dt A) v for large
  sparse operators, with a residual-style stopping estimate. The basis is
  built by block classical Gram-Schmidt with one reorthogonalization pass,
  and phi_k(dt H_m) e_1 comes from one exponential of the (m + k)-sized
  matrix [[H_m, e_1, 0], [0, J_k]] (`phi_hessenberg_e1`). That exponential
  and the stopping test run only every KRYLOV_CHECK_EVERY steps, at happy
  breakdown and at m_max, as in phipm (Niesen & Wright, TOMS 2012) and
  KIOPS (Gaudreault, Rainwater & Tokman, JCP 2018). The one Arnoldi
  worker, `_phi_action_krylov`, runs a zero-padded (G, L) stack of
  independent members of a block-diagonal operator at once: one matvec
  per step, stacked inner products, norms and Hessenberg matrices, and one
  stacked exponential for all members at a checkpoint. A single vector is
  the stack of one. `PhiEvaluator.krylov` serves the zero-padded stack of
  a local step's subdomains that way.

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
import scipy.linalg

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
    scalar matrix T. Products, sums and solves of such matrices keep the
    form, so a product costs one n x n by n x (k + 1) n matmul and a solve
    one n x n inverse and one such matmul. Every operation writes its row
    with `out=` into an n x (k + 1) n buffer the caller owns (`f` of
    `out` and of `scratch`); only the k x k T parts are allocated.
    """

    __slots__ = ("f", "t")

    def __init__(self, f: np.ndarray, t: np.ndarray | None = None):
        self.f = f
        self.t = t

    def _mix(self, t: np.ndarray, scratch: "_Block") -> np.ndarray:
        """[Y_1 ... Y_k] (t kron I), written into `scratch`: column block j
        is sum_i t[i, j] Y_i."""
        n, k = self.f.shape[0], self.t.shape[0]
        mixed = scratch.f.reshape(-1)[:k * n * n].reshape(n, k, n)
        np.matmul(t.T, self.f[:, n:].reshape(n, k, n), out=mixed)
        return mixed.reshape(n, k * n)

    def product(self, other: "_Block", out: "_Block", scratch: "_Block") -> "_Block":
        """out = self @ other."""
        n = self.f.shape[0]
        np.matmul(self.f[:, :n], other.f, out=out.f)
        out.f[:, n:] += self._mix(other.t, scratch)
        out.t = self.t @ other.t
        return out

    def scaled(self, c: float, out: "_Block") -> "_Block":
        """out = c self."""
        np.multiply(self.f, c, out=out.f)
        out.t = c * self.t
        return out

    def add(self, terms, scratch: "_Block") -> "_Block":
        """self += c_1 B_1 + c_2 B_2 + ..., added left to right, for the
        (c, B_i) pairs of `terms`; B_i None stands for the identity."""
        for c, blk in terms:
            if blk is None:
                # the diagonal of X in the contiguous row f
                self.f.reshape(-1)[::self.f.shape[1] + 1] += c
                self.t = self.t + c * np.eye(len(self.t))
            else:
                self.f += blk.scaled(c, scratch).f
                self.t = self.t + scratch.t
        return self

    def solve(self, rhs: "_Block", out: "_Block") -> "_Block":
        """out = self^{-1} rhs = X^{-1} [R_X, R_Y - Y (S kron I)], with
        S = T^{-1} R_T; overwrites `rhs`."""
        n = self.f.shape[0]
        s = np.linalg.solve(self.t, rhs.t)
        rhs.f[:, n:] -= self._mix(s, out)
        x_inv = scipy.linalg.inv(self.f[:, :n], check_finite=False)
        np.matmul(x_inv, rhs.f, out=out.f)
        out.t = s
        return out


def _pade13(b, ident):
    """(U, V) of the order-13 Pade approximant (V - U)^{-1} (V + U) to exp(b)."""
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
    and squaring runs on `_Block`s (`_phi_row`), and before each squaring
    the entries below eps^2 times the largest are set to zero. The scaling
    brings ||W||_1 = max(||A||_1, 1) (||A||_1 for k = 0) to at most
    theta_13, where the approximant's backward error is at most the unit
    roundoff. For k = 0, `a` may also be a (G, n, n) stack (`_expm_stack`);
    member i of the result equals `expm_dense(a[i])` bitwise.
    Raises ValueError on a non-square or non-finite input and OverflowError
    on overflow.
    """
    a = np.asarray(a)
    if a.ndim not in (2, 2 + (k == 0)) or a.shape[-1] != a.shape[-2]:
        raise ValueError("expm_dense expects a square matrix "
                         "(or, for k = 0, a stack of them)")
    if not 0 <= k <= 3:
        raise ValueError("phi order must be between 0 and 3")
    if not np.isfinite(a).all():
        raise ValueError("expm_dense: non-finite entries in input")
    n = a.shape[-1]
    if a.size == 0:
        return np.zeros(a.shape, dtype=a.dtype)

    if k == 0:
        r = _expm_stack(a.reshape(-1, n, n)).reshape(a.shape)
    else:
        r = _phi_row(a, k)
    if not np.isfinite(r).all():
        raise OverflowError("expm_dense: overflow during squaring phase")
    return r


def _phi_row(a: np.ndarray, k: int) -> np.ndarray:
    """The top block row of exp(W) for `expm_dense(a, k)`, 1 <= k <= 3.

    Every product, Pade sum, solve and squaring writes into seven
    n x (k + 1) n buffers allocated once per call. Six of them are one
    allocation, freed whole at return, which the C allocator keeps for the
    next call instead of handing it back to the system (whose fresh pages
    would fault in again). The seventh, allocated alone, holds the Pade
    term P and then the result: the solve writes into it or into b6,
    whichever makes the last squaring end there, so the returned row keeps
    no scratch alive.
    """
    n = a.shape[0]
    norm = max(float(np.max(np.sum(np.abs(a), axis=0))), 1.0)
    squarings = max(0, math.ceil(math.log2(norm / _THETA13)))
    scale = 2.0 ** squarings
    dtype = np.promote_types(a.dtype, np.float64)
    b, b2, b4, b6, s, tmp = (_Block(f) for f in np.empty((6, n, (k + 1) * n), dtype))
    p = _Block(np.empty((n, (k + 1) * n), dtype))
    # b = W / scale, from W's top block row [A, I, 0, ...]
    b.f[:, n:] = 0.0
    np.divide(a, scale, out=b.f[:, :n])
    b.f.reshape(-1)[n::(k + 1) * n + 1] = 1.0 / scale  # diagonal of I / scale
    b.t = np.eye(k, k=1) / scale

    # the order-13 Pade approximant, term by term in the order of `_pade13`
    c = _PADE13
    b.product(b, b2, tmp)
    b2.product(b2, b4, tmp)
    b2.product(b4, b6, tmp)
    b6.scaled(c[13], s).add([(c[11], b4), (c[9], b2)], tmp)
    b6.product(s, p, tmp).add([(c[7], b6), (c[5], b4), (c[3], b2), (c[1], None)], tmp)
    u = b.product(p, s, tmp)
    b6.scaled(c[12], p).add([(c[10], b4), (c[8], b2)], tmp)
    v = b6.product(p, b, tmp).add([(c[6], b6), (c[4], b4), (c[2], b2), (c[0], None)], tmp)
    np.subtract(v.f, u.f, out=b4.f)
    b4.t = v.t - u.t
    np.add(v.f, u.f, out=b2.f)
    b2.t = v.t + u.t
    first, second = (p, b6) if squarings % 2 == 0 else (b6, p)
    blk, spare = b4.solve(b2, first), second

    mag = tmp.f.real  # |F| in the scratch buffer, free between products
    drop = np.empty(mag.shape, dtype=bool)
    for _ in range(squarings):
        np.abs(blk.f, out=mag)
        np.less(mag, _DROP * mag.max(), out=drop)
        np.copyto(blk.f, 0.0, where=drop)
        blk, spare = blk.product(blk, spare, tmp), blk
    return blk.f


def _expm_stack(a: np.ndarray) -> np.ndarray:
    """exp of every member of a (G, n, n) stack, in one batched Pade 13.

    Each member is scaled by its own 2^-s, with s the fewest squarings that
    bring its 1-norm to at most theta_13, and squaring j runs only on the
    members with s > j. Every product and solve is one BLAS or LAPACK call
    per member with that member's operands alone, so a member's result
    does not depend on the rest of the stack. Zero members give I exactly.
    """
    norms = np.abs(a).sum(axis=1).max(axis=1).tolist()
    squarings = [math.ceil(math.log2(x / _THETA13)) if x > _THETA13 else 0
                 for x in norms]
    b = a / np.array([2.0 ** s for s in squarings]).reshape(-1, 1, 1)
    n = a.shape[-1]
    u, v = _pade13(b, np.eye(n, dtype=b.dtype))
    r = np.linalg.solve(v - u, v + u)
    fewest = min(squarings)
    for j in range(max(squarings)):
        if j < fewest:
            r = r @ r
        else:
            todo = np.array(squarings) > j
            r[todo] = r[todo] @ r[todo]
    if not all(norms):
        r[np.array(norms) == 0] = np.eye(n)
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
    """(matvec, size, complex?, Frobenius norm) of a square operator."""
    if isinstance(a, BandedSparseMatrix):
        return a.matvec, a.n_rows, a.is_complex, float(_norms(a.vals))
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("operator must be square")
    return ((lambda x: arr @ x), arr.shape[0],
            np.issubdtype(arr.dtype, np.complexfloating), float(_norms(arr.reshape(-1))))


def phi_hessenberg_e1(h: np.ndarray, k: int) -> np.ndarray:
    """phi_k(H) e_1 from one exponential of an (m + k)-sized augmented matrix.

    exp of [[H, e_1, 0, ...], [0, J_k]], with J_k the k x k upper shift,
    carries phi_j(H) e_1 in its column m + j - 1, so the first m entries of
    its last column are phi_k(H) e_1 (Sidje, Expokit, TOMS 1998). One
    column is all a Krylov step needs, and this exponential costs about
    (m + k)^3 where `expm_dense(h, k)` costs (k + 1) m^3. `h` may be a
    (G, m, m) stack, which takes one stacked exponential; member i of the
    result equals `phi_hessenberg_e1(h[i], k)` bitwise.
    """
    h = np.asarray(h)
    m = h.shape[-1]
    w = np.zeros(h.shape[:-2] + (m + k, m + k),
                 dtype=np.promote_types(h.dtype, np.float64))
    w[..., :m, :m] = h
    w[..., 0, m] = 1.0
    w[..., np.arange(m, m + k - 1), np.arange(m + 1, m + k)] = 1.0
    return expm_dense(w)[..., :m, -1]


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

    `v` is one vector, or a (G, L) stack of G members for a block-diagonal
    `a` that acts on the flattened stack and keeps the members apart. A
    member shorter than L is zero-padded, and `a` must keep its padding
    zero, so every basis vector keeps zeros there. All members run one
    Arnoldi process: one matvec per step, and per-member inner products,
    norms and Hessenberg matrices as stacked matmuls. Every member keeps
    the rules of phi_action_krylov (checkpoints, breakdown threshold,
    m_max), and the tests of all members at a checkpoint take a single
    stacked `phi_hessenberg_e1`. The members that stop at a step are taken
    out of the stack, which is copied once then, so every step runs on
    whole arrays. The per-member breakdown caps are taken from H only at
    steps where some hnext is small enough for a breakdown to be possible.

    For a stack, the dimensions and flags are (G,) arrays in member order.
    It never warns; hitting m_max without meeting the tolerance returns
    converged=False, and the caller decides how to report it.
    """
    if k not in (1, 2, 3):
        raise ValueError("phi_action_krylov supports k in {1, 2, 3}")
    matvec, n, op_complex, op_norm = _as_matvec(a)
    v = np.asarray(v)
    if v.ndim not in (1, 2) or v.size != n or (v.ndim == 1 and v.shape != (n,)):
        raise ValueError("vector length does not match operator size")
    dtype = np.complex128 if (op_complex or np.issubdtype(v.dtype, np.complexfloating)) else np.float64
    x = v[None] if v.ndim == 1 else v
    g_all, size = x.shape
    result = np.zeros((g_all, size), dtype=dtype)
    m_used = np.zeros(g_all, dtype=np.int64)
    converged = np.ones(g_all, dtype=bool)
    # every |entry| of H_m is at most ||dt A||_2 <= |dt| ||A||_F, up to
    # rounding, so no member can break down while its hnext exceeds this
    suspect = 1e-14 * max(1.0, 2.0 * abs(dt) * op_norm)

    beta = _norms(x)
    vv = np.zeros((g_all, m_max + 1, size), dtype=dtype)
    h = np.zeros((g_all, m_max + 1, m_max), dtype=dtype)
    live = beta > 0
    vv[:, 0] = x / np.where(live, beta, 1.0)[:, None]
    ids = np.arange(g_all)  # member held by each slot of the stack
    spread = None  # set once a member has stopped: the matvec input
    keep = None if live.all() else live  # zero vectors stop at m = 0
    for m in range(1, m_max + 1):
        if keep is not None:  # take the stopped members out of the stack
            if not keep.any():
                break
            ids, vv, h, beta = ids[keep], vv[keep], h[keep], beta[keep]
            keep = None
            if spread is None:
                spread = np.zeros((g_all, size), dtype=dtype)
        if spread is None:
            w = matvec(vv[:, m - 1].reshape(-1))
        else:  # the operator still sees every member; stopped ones idle
            spread[ids] = vv[:, m - 1]
            w = matvec(spread.reshape(-1)).reshape(g_all, size)[ids]
        w = dt * w.reshape(-1, size, 1)
        basis = vv[:, :m]
        basis_t = basis.transpose(0, 2, 1)
        # block classical Gram-Schmidt, two passes, coefficients conj(V) w
        c1 = (basis @ w.conj()).conj()
        w -= basis_t @ c1
        c2 = (basis @ w.conj()).conj()
        w -= basis_t @ c2
        w = w[:, :, 0]
        hnext = _norms(w)
        h[:, :m, m - 1] = (c1 + c2)[:, :, 0]
        h[:, m, m - 1] = hnext
        # happy breakdown (the Krylov space is invariant, the result exact)
        # when hnext <= 1e-14 max(1, max |entry of H_m|). Taking hnext into
        # that max too leaves the outcome unchanged, as the max is >= 1.
        broke = None
        if float(hnext.min()) <= suspect:
            cap = np.maximum(1.0, np.abs(h[:, :m + 1, :m]).max(axis=(1, 2)))
            broke = hnext <= 1e-14 * cap
            if not broke.any():
                broke = None
        np.divide(w, (hnext if broke is None else np.where(broke, 1.0, hnext))[:, None],
                  out=vv[:, m])
        checkpoint = m % KRYLOV_CHECK_EVERY == 0 or m == m_max
        if not checkpoint and broke is None:
            continue
        test = slice(None) if checkpoint else broke  # the members tested now
        y = phi_hessenberg_e1(h[test, :m, :m], k)
        ok = beta[test] * hnext[test] * np.abs(y[:, m - 1]) <= tol * beta[test]
        if broke is not None:
            ok |= broke[test]
        stop = ok if m < m_max else np.ones_like(ok)
        count = np.count_nonzero(stop)
        if not count:
            continue
        if count == ids.size:  # every member stops: all tested, all stop
            sel = slice(None)
        else:
            sel = np.flatnonzero(stop) if checkpoint else np.flatnonzero(broke)[stop]
            y, ok = y[stop], ok[stop]
        result[ids[sel]] = beta[sel, None] * (y[:, None, :] @ vv[sel, :m])[:, 0]
        m_used[ids[sel]] = m
        converged[ids[sel]] = ok
        if count == ids.size:
            break
        keep = np.ones(ids.size, dtype=bool)
        keep[sel] = False
    if v.ndim == 1:
        return result[0], int(m_used[0]), bool(converged[0])
    return result, m_used, converged


def _norms(w: np.ndarray) -> np.ndarray:
    """2-norms of the rows of a (G, L) stack, one BLAS dot product each."""
    return np.sqrt(np.vecdot(w, w).real)


def stack_product(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """p_i x_i for every row x_i of the (..., G, L) stack x: one gemm when p
    is one matrix shared by every row, else one batched product with the
    (G, M, L) stack p."""
    if p.ndim == 2:
        return x @ p.T
    return (p @ x[..., None])[..., 0]


@dataclass
class PhiEvaluator:
    """phi_k applications behind one interface, dense-cached or Krylov.

    Both modes take one operator A = diag(A_1 ... A_G) on a zero-padded
    (G, L) stack (`BandedSparseMatrix.restrict`). DenseStored mode
    precomputes phi_0..phi_{order_max}(dt A_i), one `expm_dense` build per
    distinct block, and applies them to the (G, L) stack. When every A_i
    is the same matrix, entry k of `_cached` is that one phi_k, an L x L
    view into its build, applied to the whole stack as one gemm.
    Otherwise it is a (G, L, L) stack of the phi_k(dt A_i), each
    zero-padded to L, applied as one batched product. phi_0 = exp(dt A_i)
    is kept for callers that compose a step from the stored matrices
    (`stored`); `apply` takes k >= 1. KrylovAction mode runs one Arnoldi
    process per application at KRYLOV_TOL, every block one member. The
    dimension of every member is appended to `krylov_dims`, and members
    that hit KRYLOV_M_MAX unconverged are counted in `krylov_misses`.
    """

    mode: str
    dt: float
    order_max: int
    _op: object = field(repr=False, default=None)
    _cached: object = field(repr=False, default=None)
    krylov_dims: list = field(repr=False, default_factory=list)
    krylov_misses: int = 0

    @classmethod
    def dense(cls, a: BandedSparseMatrix, sizes, dt: float,
              order_max: int) -> "PhiEvaluator":
        """DenseStored evaluator of the block-diagonal `a` = diag(A_1 ... A_G).

        Block i, of size `sizes[i]`, sits at rows and columns i L onwards,
        as `BandedSparseMatrix.restrict` lays it out. Blocks with equal
        size and entries share one build, from the block scattered into a
        dense matrix once. Entry k of the stored sequence,
        0 <= k <= order_max, is phi_k(dt A) itself when all blocks are one
        A, else the (G, L, L) zero-padded stack of the phi_k(dt A_i).
        """
        g = len(sizes)
        width = a.n_rows // g
        block, row, col = a.rows // width, a.rows % width, a.cols % width
        bounds = np.searchsorted(block, np.arange(g + 1)).tolist()
        built, keys = {}, []
        for i, n in enumerate(sizes):
            s = slice(bounds[i], bounds[i + 1])
            keys.append((n, row[s].tobytes(), col[s].tobytes(), a.vals[s].tobytes()))
            if keys[-1] not in built:
                dense = np.zeros((n, n), dtype=a.dtype)
                dense[row[s], col[s]] = dt * a.vals[s]
                built[keys[-1]] = phi_dense_all(dense, order_max)
        if len(built) == 1:
            (cached,) = built.values()
        else:
            cached = np.zeros((order_max + 1, g, width, width),
                              dtype=np.result_type(*(p[0] for p in built.values())))
            for i, key in enumerate(keys):
                cached[:, i, :key[0], :key[0]] = built[key]
        return cls(mode="DenseStored", dt=dt, order_max=order_max, _cached=cached)

    @classmethod
    def krylov(cls, a, dt: float, order_max: int) -> "PhiEvaluator":
        return cls(mode="KrylovAction", dt=dt, order_max=order_max, _op=a)

    def stored(self, k: int) -> np.ndarray:
        """The stored phi_k(dt A), 0 <= k <= order_max (DenseStored only):
        one L x L matrix when every operator is one A, else the (G, L, L)
        zero-padded stack (shared, treat as read-only)."""
        if self.mode != "DenseStored":
            raise ValueError("only DenseStored mode stores phi matrices")
        if not 0 <= k <= self.order_max:
            raise ValueError(f"phi order {k} outside stored range 0..{self.order_max}")
        return self._cached[k]

    def apply(self, k: int, vec: np.ndarray) -> np.ndarray:
        """phi_k(dt A) vec, in the shape of `vec`: one vector (of a single
        operator), or a (G, L) stack with one row per operator (DenseStored)
        or per member of a block-diagonal operator (KrylovAction), each row
        zero-padded past its operator's size. DenseStored applies the
        stored phi_k with `stack_product`, and also takes leading axes,
        (..., G, L), each (G, L) slice applied alike."""
        if not 1 <= k <= self.order_max:
            raise ValueError(f"phi order {k} outside configured range 1..{self.order_max}")
        if self.mode == "DenseStored":
            return stack_product(self._cached[k], vec)
        result, m_used, converged = _phi_action_krylov(
            self._op, self.dt, vec.reshape(-1, vec.shape[-1]), k)
        self.krylov_dims.extend(m_used.tolist())
        self.krylov_misses += int(np.count_nonzero(~converged))
        return result.reshape(vec.shape)


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
