"""Dense matrix exponentials, phi-functions, Krylov actions and decay bounds.

The local exponential method needs three flavors of exponential machinery:

* `expm_dense` - exp(A) is `scipy.linalg.expm` (Al-Mohy & Higham, SIMAX
  2009) of A / 2^s, squared s times, with s the fewest squarings that
  bring ||A||_1 to theta_9 = 2.10 (`_expm`), of one matrix or of each
  member of a (G, n, n) stack.
* `phi_k_dense` / `phi_dense_all` - the entire-function family
  phi_0(z) = exp(z), phi_k(z) = (phi_{k-1}(z) - 1/(k-1)!)/z, evaluated for a
  full matrix argument as the top block row of exp(W), with
  W = [[A, I, 0, ...], [0, J_k kron I]], which stays well defined for
  singular arguments. `expm_dense(a, k)` never forms the (k + 1) n matrix
  W. It is the one in-house exponential: scaling and squaring with the
  diagonal Pade approximant of order 13, scaled until the 1-norm of W is
  at most theta_13 = 5.37. Block j of the top row of a polynomial in W
  is itself a polynomial in A, the j-th intermediate of Horner's rule,
  and functions of a banded operator stay banded (Iserles, BIT 2000). So
  the Pade numerator and denominator rows come from one Horner pass on
  A's diagonals, stored cyclically (offset mod n) so that periodic
  corners, clipped windows and tiny n all come out exact
  (`_horner_rows`). Only the n x n inverse of the denominator, one
  n x n by n x (k + 1) n product and the squarings are dense BLAS: about
  (2 + 2 (k + 1)(1 + s)) n^3 flops for s squarings, where forming the
  Pade polynomials by six dense block-row products would take
  (2 + 2 (k + 1)(7 + s)) n^3. Squaring keeps the
  block form [[X, Y_1 ... Y_k], [0, T kron I]] (`_square`), the
  phi-function doubling of Skaflestad & Wright (APNUM 2009); before each
  squaring, entries below eps^2 times the largest are dropped, since
  their subnormal fill-in would slow the squarings several times over.
  A (G, n, n) stack takes one Horner pass and one batched inverse, then
  each member is squared as often as it needs alone.
  `PhiEvaluator.dense` builds the stored phi_0 ... phi_k of every distinct
  block of a block-diagonal operator in one stacked call per block size.
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

# largest 1-norms at which the order-9 and order-13 Pade approximants have
# backward error at most the unit roundoff (Al-Mohy & Higham, SIMAX 2009,
# Table 3.1)
_THETA9 = 2.097847961257068
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


def expm_dense(a: np.ndarray, k: int = 0) -> np.ndarray:
    """exp(A) for k = 0, else the top block row [phi_0(A), ..., phi_k(A)].

    For k = 0 this is `scipy.linalg.expm` of a scaled A, then squared
    (`_expm`). For 1 <= k <= 3 it is the n x (k + 1) n top block
    row of exp(W), with W = [[A, I, 0, ...], [0, J_k kron I]] and J_k the
    k x k upper shift; it is well defined for singular A. W is never
    formed (`_phi_row`): the Pade 13 polynomials come from a Horner pass
    on A's diagonals, and only the denominator inverse, one product and
    the squarings are dense. `a` may also be a (G, n, n) stack, for which
    the result is (G, n, (k + 1) n); member i of the result equals
    `expm_dense(a[i], k)` bitwise. The result is float64 or complex128.
    Raises ValueError on a non-square or non-finite input and OverflowError
    on overflow.
    """
    a = np.asarray(a)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError("expm_dense expects a square matrix or a stack of them")
    if not 0 <= k <= 3:
        raise ValueError("phi order must be between 0 and 3")
    if not np.isfinite(a).all():
        raise ValueError("expm_dense: non-finite entries in input")
    n = a.shape[-1]
    if a.size == 0:
        return np.zeros(a.shape[:-1] + ((k + 1) * n,), dtype=a.dtype)

    stack = a.reshape(-1, n, n)
    r = _expm(stack) if k == 0 else _phi_row(stack, k)
    r = r.reshape(a.shape[:-1] + (-1,))
    if not np.isfinite(r).all():
        raise OverflowError("expm_dense: overflow during squaring phase")
    return r


def _squarings(norms: np.ndarray, theta: float) -> list:
    """Per member, the fewest squarings s that bring its norm to at most theta."""
    return [math.ceil(math.log2(x / theta)) if x > theta else 0
            for x in norms.tolist()]


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of every member of a (G, n, n) stack, as float64 or complex128.

    `scipy.linalg.expm` of A / 2^s, squared s times, with s the fewest
    squarings that bring ||A||_1 to at most theta_9. Alone, scipy takes
    fewer squarings on a non-normal A (the power estimates of Al-Mohy &
    Higham), which keeps exp(A) accurate in norm but not its entries far
    below ||exp(A)||: the phi_k(H) e_1 column of `phi_hessenberg_e1`, at
    ||H||_1 near 100, was off by up to 1.6e-11 relative, and by 3e-14
    with this scaling. The squarings that every member takes run on the
    whole stack, the rest member by member.
    """
    squarings = _squarings(np.abs(a).sum(axis=1).max(axis=1), _THETA9)
    scale = np.array([2.0 ** s for s in squarings])[:, None, None]
    fewest = min(squarings)
    # overflow stays quiet here, for `expm_dense` to report
    with np.errstate(over="ignore", invalid="ignore"):
        r = scipy.linalg.expm(a / scale)
        for _ in range(fewest):
            r = r @ r
        for x, s in zip(r, squarings):
            for _ in range(s - fewest):
                x[:] = x @ x
    return r


def _square(f: np.ndarray, t: np.ndarray, out: np.ndarray,
            mixed: np.ndarray) -> np.ndarray:
    """Square [[X, Y_1 ... Y_k], [0, T kron I]].

    `f` holds the top block row [X, Y_1, ..., Y_k], n x (k + 1) n, and `t`
    the k x k scalar matrix T. The top row of the square,
    [X X, X Y + Y (T kron I)], is written into `out`, with the (n, k, n)
    `mixed` holding Y (T kron I); returns T^2. One n x n by n x (k + 1) n
    product (Skaflestad & Wright, APNUM 2009).
    """
    n, k = f.shape[0], t.shape[-1]
    np.matmul(f[:, :n], f, out=out)
    # column block j of Y (T kron I) is sum_i T[i, j] Y_i
    np.matmul(t.T, f[:, n:].reshape(n, k, n), out=mixed)
    out[:, n:] += mixed.reshape(n, k * n)
    return t @ t


def _horner_rows(b: np.ndarray, off: np.ndarray, k: int):
    """H_0(B) ... H_k(B) of the order-13 Pade numerator, on cyclic diagonals.

    `b[..., t, i]` is B[i, (i + off[t]) mod n], for sorted offsets `off`
    that include 0, each the representative of its class mod n in
    [-(n // 2), n - 1 - n // 2] (`_wrap`). Horner's rule, H_13 = c_13 I
    and H_j = c_j I + B H_{j+1}, gives H_j(B) = sum_{i >= j} c_i B^(i - j);
    each step adds B's offsets to those of H_{j+1}, modulo n, so the band
    of H_j spans 13 - j times B's, wrapped around exactly. Returns the
    (..., k + 1, m, n) diagonals of H_0 ... H_k at the m offsets of H_0
    (those of H_j nest in them), and the offsets. Each diagonal takes its
    terms in the order of `off`, so a diagonal of B that is zero changes
    no bit of the result. Until the band wraps, the diagonals one term
    adds to are a run of consecutive ones, updated in place.
    """
    n = b.shape[-1]
    shifted = [(e, (np.arange(n) + e) % n) for e in off.tolist()]
    h_off = np.zeros(1, dtype=np.intp)
    h = np.full(b.shape[:-2] + (1, n), _PADE13[13], dtype=b.dtype)
    steps = []
    for c in _PADE13[12::-1]:
        new_off = np.unique(_wrap(h_off[:, None] + off, n))
        new = np.zeros(b.shape[:-2] + (len(new_off), n), dtype=b.dtype)
        for t, (e, cols) in enumerate(shifted):
            # (B H)[i, i + e + d] gets B[i, i + e] H[i + e, i + e + d]
            term = h[..., cols]
            term *= b[..., t, None, :]
            pos = np.searchsorted(new_off, _wrap(h_off + e, n))
            if (np.diff(pos) == 1).all():
                new[..., pos[0]:pos[-1] + 1, :] += term
            else:
                new[..., pos, :] += term
        new[..., np.searchsorted(new_off, 0), :] += c
        h, h_off = new, new_off
        steps.append((h, h_off))
    rows = np.zeros(h.shape[:-2] + (k + 1,) + h.shape[-2:], dtype=b.dtype)
    for j in range(k + 1):
        h_j, off_j = steps[-1 - j]
        rows[..., j, np.searchsorted(h_off, off_j), :] = h_j
    return rows, h_off


def _wrap(d, n: int):
    """The representative of d mod n in [-(n // 2), n - 1 - n // 2]."""
    return (d + n // 2) % n - n // 2


def _phi_row(a: np.ndarray, k: int) -> np.ndarray:
    """The top block rows of exp(W) for a (G, n, n) stack, 1 <= k <= 3.

    Member g is scaled by its own 2^-s, s the fewest squarings that bring
    ||W||_1 = max(||A||_1, 1) to at most theta_13, and B = A / 2^s. Block
    j of the top row of p(W / 2^s), for p the Pade numerator, is
    2^(-s j) H_j(B), with H_j the j-th Horner intermediate of p; the
    denominator q(W) = p(-W) has (-2^-s)^j H_j(-B). One `_horner_rows`
    pass on the diagonals of B and -B together forms both, in
    O((k + 1) m n) work for an operator of band m. The lower block rows of
    p and q are T_p kron I and T_q kron I, T = sum_m c_m (+-J_k / 2^s)^m,
    so the top row of q^{-1} p is Q_0^{-1} [P_0, P_Y - Q_Y (S kron I)]
    with S = T_q^{-1} T_p, and its lower rows are S kron I. The bracket is
    formed on the diagonals too: only the n x n inverse Q_0^{-1}, its
    product with the bracket and the squarings are dense. Each member is
    squared on its own, s times; before each squaring, its entries below
    eps^2 times its largest are set to zero.
    Squarings that overflow leave inf or nan for `expm_dense` to report.
    Every product and solve is one BLAS or LAPACK call per member, so
    member g of the result does not depend on the rest of the stack.
    """
    g, n = a.shape[0], a.shape[-1]
    squarings = _squarings(np.maximum(np.abs(a).sum(axis=1).max(axis=1), 1.0),
                           _THETA13)
    dtype = np.promote_types(a.dtype, np.float64)
    i = np.arange(n)
    rows, cols = np.nonzero(np.any(a != 0, axis=0))
    off = np.union1d(_wrap(cols - rows, n), 0)  # every member's diagonals
    scale = np.array([2.0 ** s for s in squarings])
    # b[g, t, i] = B_g[i, (i + off[t]) mod n]
    b = a[:, i, (i + off[:, None]) % n] / scale[:, None, None]
    h, h_off = _horner_rows(np.concatenate([b, -b]), off, k)

    # block j of the top rows of p(W / 2^s) and q(W / 2^s), and T_p, T_q;
    # the powers of 2^-s are exact
    c = _PADE13
    pw = (1.0 / scale[:, None]) ** np.arange(k + 1)
    sign = (-1.0) ** np.arange(k + 1)
    p_row = h[:g] * pw[:, :, None, None]
    q_row = h[g:] * (sign * pw)[:, :, None, None]
    t_p = sum(c[m] * pw[:, m, None, None] * np.eye(k, k=m) for m in range(k))
    t_q = sum(c[m] * sign[m] * pw[:, m, None, None] * np.eye(k, k=m) for m in range(k))
    t = np.linalg.solve(t_q, t_p)
    # P_Y - Q_Y (S kron I): block j takes sum_m S[m, j] Q_m off P_j
    for j in range(1, k + 1):
        for m in range(1, k + 1):
            p_row[:, j] -= t[:, m - 1, j - 1, None, None] * q_row[:, m]

    # dense: Q_0^{-1} times the row, then each member's own squarings,
    # which alternate between its place in `f` and `spare`; the one not
    # holding the member holds |F| before each squaring
    col = (i + h_off[:, None]) % n
    q_0 = np.zeros((g, n, n), dtype=dtype)
    q_0[:, i, col] = q_row[:, 0]
    f = np.zeros((g, n, (k + 1) * n), dtype=dtype)
    f[:, i, col + n * np.arange(k + 1)[:, None, None]] = p_row
    f = np.matmul(scipy.linalg.inv(q_0, check_finite=False), f)
    spare = np.empty(f.shape[1:], dtype=dtype)
    mixed = np.empty((n, k, n), dtype=dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for m, s in enumerate(squarings):
            x, y, t_m = f[m], spare, t[m]
            for _ in range(s):
                mag = np.abs(x, out=y.real)
                np.copyto(x, 0.0, where=mag < _DROP * mag.max())
                t_m = _square(x, t_m, y, mixed)
                x, y = y, x
            if s % 2:
                f[m] = x
    return f


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
    precomputes phi_0..phi_{order_max}(dt A_i), each distinct block built
    once, and applies them to the (G, L) stack. When every A_i
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
        size and entries share one build. The distinct blocks of each size
        are scattered into one dense (G', n, n) stack and built by one
        `expm_dense` call. Entry k of the stored sequence,
        0 <= k <= order_max, is phi_k(dt A) itself when all blocks are one
        A, else the (G, L, L) zero-padded stack of the phi_k(dt A_i).
        """
        g = len(sizes)
        width = a.n_rows // g
        block, row, col = a.rows // width, a.rows % width, a.cols % width
        bounds = np.searchsorted(block, np.arange(g + 1)).tolist()
        first, keys = {}, []  # the first block of every distinct operator
        for i, n in enumerate(sizes):
            s = slice(bounds[i], bounds[i + 1])
            keys.append((n, row[s].tobytes(), col[s].tobytes(), a.vals[s].tobytes()))
            first.setdefault(keys[-1], s)
        built = {}
        for n in dict.fromkeys(key[0] for key in first):
            group = [key for key in first if key[0] == n]
            dense = np.zeros((len(group), n, n), dtype=a.dtype)
            for m, key in enumerate(group):
                s = first[key]
                dense[m, row[s], col[s]] = dt * a.vals[s]
            rows = expm_dense(dense, order_max).reshape(len(group), n, -1, n)
            built.update(zip(group, rows.transpose(0, 2, 1, 3)))
        if len(built) == 1:
            cached = list(*built.values())
        else:
            cached = np.zeros((order_max + 1, g, width, width),
                              dtype=np.result_type(*built.values()))
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
