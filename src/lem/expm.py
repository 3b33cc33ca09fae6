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
  diagonal Pade approximant of order 13, scaled by 2^-s until the 1-norm
  of W is at most theta_13 = 5.37. Block j of the top row of a polynomial
  in W is itself a polynomial in B = A / 2^s, the j-th intermediate of
  Horner's rule, and functions of a banded operator stay banded (Iserles,
  BIT 2000). So the Pade numerator and denominator rows come from one
  Horner pass on B's diagonals, stored cyclically (offset mod n) so that
  periodic corners, clipped windows and tiny n all come out exact
  (`_horner_rows`, `_pade_row`); only the n x n inverse of the
  denominator is dense LAPACK. Squaring the block form
  [[X, Y_1 ... Y_k], [0, T kron I]] gives [X X, X Y + Y (T kron I)], the
  phi-function doubling of Skaflestad & Wright (APNUM 2009): the Y blocks
  never enter X, and they act column by column, as in the action-of-exp
  approach of Al-Mohy & Higham (SISC 2011). So only exp(B) is squared,
  and its ladder of squares X_0 ... X_s is kept (`_Ladder`); phi_j climbs
  it on the columns it is applied to (`_Ladder.climb`). The inverse
  Q_0^{-1} and each X are banded in the same sense: entries below eps^2
  times their largest are dropped, since their subnormal fill-in would
  slow the products several times over, and what is left is an exact
  band, open or cyclic. So the product Q_0^{-1} [P_0 ... P_k] and each
  squaring run on the band (`_band_matmul`): per block of 32 rows, one
  product of the columns those rows touch by the output columns those
  columns touch. For half-bandwidths w_x and w_y that is about
  2 n (2 w_x + 32)(2 w_x + 2 w_y + 32) flops per n columns of output,
  in place of 2 n^3; members under 8 blocks (the windows of a local
  step), or whose band saves less than half, take the plain product. A
  build costs 2 n^3 flops for the inverse plus s + 1 banded products:
  on the n = 400 blocks of the porous and Burgers D = 1 runs, whose
  factors have half-bandwidths 23 to 66, those do 3 to 14 % of the work
  of the plain (2 (k + 1) + 2 s) n^3. Applying phi_k to c columns costs
  2 k (1 + s) n^2 c; `expm_dense(a, k)` climbs on the n columns of the
  identity. A (G, n, n) stack takes one Horner pass and one batched
  inverse, and each level of the ladder one product over the members
  that still have squarings left. `PhiEvaluator.dense` builds every
  distinct block of a block-diagonal operator in one stacked call per
  block size, then squares its exp.
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
  a local step's subdomains that way, and warm-starts each member at the
  dimension its last application used, as KIOPS reuses the last m: the
  first test is at that checkpoint; on a pass the checkpoints below are
  tested downwards on the kept H, one exponential each, until one fails,
  and the member keeps the lowest that passed; on a fail it goes on
  forward. While the stopping estimate is monotone in m this picks the
  dimension, and the result bitwise, of testing every checkpoint, with
  about two exponentials per member instead of m / KRYLOV_CHECK_EVERY.

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

# rows per block of the banded product (`_band_matmul`); a member of fewer
# than 8 blocks takes the plain product
_BAND_ROWS = 32

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
    formed: A is scaled to B = A / 2^s, the Pade 13 row of B comes from a
    Horner pass on B's diagonals (`_pade_row`), exp(B) alone is squared
    s times (`_Ladder`) and the phi_j blocks climb that ladder as the
    columns of the identity (`_Ladder.climb`): (2 + 2 k s) n^3 flops for
    the inverse and the climb, and s + 1 products on the band
    (`_band_matmul`). `a` may also be a (G, n, n) stack,
    for which the result is (G, n, (k + 1) n); member i of the result
    equals `expm_dense(a[i], k)` bitwise. The result is float64 or
    complex128. Raises ValueError on a non-square or non-finite input and
    OverflowError on overflow.
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
    if k == 0:
        r = _expm(stack)
    else:
        squarings = _phi_squarings(stack)
        r = _pade_row(stack, squarings, k)
        if squarings.any():  # PhiEvaluator.dense scales beforehand, to skip this
            ladder = _Ladder(r[:, :, :n], squarings)
            y = r[:, None, :, n:].reshape(-1, 1, n, k, n) * _powers(squarings, k)[
                :, None, None, :, None]
            r = np.concatenate((ladder.top, ladder.climb(y).reshape(-1, n, k * n)),
                               axis=-1)
    r = r.reshape(a.shape[:-1] + (-1,))
    if not np.isfinite(r).all():
        raise OverflowError("expm_dense: overflow during squaring phase")
    return r


def _squarings(norms: np.ndarray, theta: float) -> list:
    """Per member, the fewest squarings s that bring its norm to at most theta."""
    return [math.ceil(math.log2(x / theta)) if x > theta else 0
            for x in norms.tolist()]


def _phi_squarings(a: np.ndarray) -> np.ndarray:
    """Per member of a (G, n, n) stack, the fewest squarings s that bring
    ||W||_1 = max(||A||_1, 1) to at most theta_13."""
    return np.array(_squarings(np.maximum(np.abs(a).sum(axis=1).max(axis=1), 1.0),
                               _THETA13), dtype=np.intp)


def _powers(squarings: np.ndarray, k: int) -> np.ndarray:
    """(G, k): 2^(-s j) for j = 1 .. k, exact powers of two."""
    return np.ldexp(1.0, -np.outer(squarings, np.arange(1, k + 1)))


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


class _Ladder:
    """exp(B_i) squared s_i times for each member of a (G, n, n) stack,
    and every square on the way, for phi_j to climb.

    With B = A / 2^s, the top block row of exp(2^r W / 2^s) is
    [X_r, Y_r1 ... Y_rk], X_r = exp(2^r B), and squaring the block form
    [[X, Y], [0, T kron I]] gives the top row [X X, X Y + Y (T kron I)]
    (Skaflestad & Wright, APNUM 2009). The Y blocks never enter the
    X blocks, so only X is squared: `top` is X_s, in member order, and
    `levels[r]` the stack of X_r of the members with s_i > r, members
    sorted by s (most squarings first, `order`). Before each squaring,
    entries of X below eps^2 times its largest are set to zero, since
    their subnormal fill-in would slow the squarings several times over,
    and the squaring runs on the band that is left (`_band_matmul`),
    member by member, so member i does not depend on the rest of the
    stack. Squarings that overflow leave inf or nan for the caller to
    report.
    """

    __slots__ = ("order", "sorted_squarings", "levels", "top")

    def __init__(self, x: np.ndarray, squarings: np.ndarray):
        self.order = np.argsort(-squarings, kind="stable")
        self.sorted_squarings = squarings[self.order]
        self.top = np.array(x)  # X_0, then X_s of each member squared
        self.levels = []
        x = self.top[self.order[:np.count_nonzero(squarings)]]
        with np.errstate(over="ignore", invalid="ignore"):
            for r in range(int(squarings.max(initial=0))):
                live = int(np.count_nonzero(self.sorted_squarings > r))
                self.top[self.order[live:len(x)]] = x[live:]  # s_i = r
                x = _drop_small(x[:live])
                self.levels.append(x)
                x = _band_matmul(x, x)
        self.top[self.order[:len(x)]] = x

    def climb(self, y: np.ndarray) -> np.ndarray:
        """Y_s V from the (G, m, n, k, c) stack Y_0 V, in member order.

        Block j of Y_0 V is 2^(-s j) phi_j(B) V, for m sets of c columns
        V per member, and each level takes Y <- X_r Y + Y (T_r kron I),
        T_r = exp(2^(r - s) J_k): one batched product with the members
        that still have squarings left, so member i stops at its own s_i,
        and one n x n by n x k c product per set of columns. Block j of
        the result is phi_j(A) V; 2 k s n^2 m c flops for s squarings.
        """
        k = y.shape[3]
        y = y[self.order]
        with np.errstate(over="ignore", invalid="ignore"):
            for r, x in enumerate(self.levels):
                live = len(x)
                old = y[:live]
                new = np.matmul(x[:, None], old.reshape(old.shape[:3] + (-1,)))
                new = new.reshape(old.shape)
                new += old  # the unit diagonal of T_r
                if k > 1:  # T_r[i, j] = h^(j - i) / (j - i)!, h = 2^(r - s)
                    h = np.ldexp(1.0, r - self.sorted_squarings[:live])[:, None, None, None]
                    for j in range(1, k):
                        for i in range(j):
                            new[:, :, :, j] += (h ** (j - i) / math.factorial(j - i)
                                                * old[:, :, :, i])
                y[:live] = new
        out = np.empty_like(y)
        out[self.order] = y
        return out


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
    h_off = np.zeros(1, dtype=np.intp)
    h = np.full(b.shape[:-2] + (1, n), _PADE13[13], dtype=b.dtype)
    steps = []
    for c in _PADE13[12::-1]:
        new_off = np.unique(_wrap(h_off[:, None] + off, n))
        new = np.zeros(b.shape[:-2] + (len(new_off), n), dtype=b.dtype)
        for t, e in enumerate(off.tolist()):
            # (B H)[i, i + e + d] gets B[i, i + e] H[i + e, i + e + d]: H's
            # rows shifted cyclically by e, as two slices
            term = np.concatenate((h[..., e % n:], h[..., :e % n]), axis=-1)
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


def _pade_row(a: np.ndarray, squarings: np.ndarray, k: int) -> np.ndarray:
    """The Pade 13 top block rows [phi_0(B) ... phi_k(B)] of a (G, n, n)
    stack, each member scaled to B = A / 2^s by its own `squarings` s so
    that max(||B||_1, 1) <= theta_13, 1 <= k <= 3.

    Block j of the top row of p(W), W = [[B, I, 0, ...], [0, J_k kron I]]
    and p the Pade numerator, is H_j(B), the j-th Horner intermediate of
    p; the denominator q(W) = p(-W) has (-1)^j H_j(-B). One `_horner_rows`
    pass on the diagonals of B and -B together forms both, in
    O((k + 1) m n) work for an operator of band m. The lower block rows of
    p and q are T_p kron I and T_q kron I, T = sum_m c_m (+-J_k)^m, so the
    top row of q^{-1} p is Q_0^{-1} [P_0, P_Y - Q_Y (S kron I)] with
    S = T_q^{-1} T_p. The bracket is formed on the diagonals too: only the
    n x n inverse Q_0^{-1} is dense, one LAPACK call per member. Its
    entries below eps^2 times its largest are dropped, as before each
    squaring, and its product with the bracket runs on the band
    (`_band_matmul`), so member g of the result does not depend on the
    rest of the stack.
    """
    g, n = a.shape[0], a.shape[-1]
    dtype = np.promote_types(a.dtype, np.float64)
    i = np.arange(n)
    rows, cols = np.nonzero(np.any(a != 0, axis=0))
    off = np.union1d(_wrap(cols - rows, n), 0)  # every member's diagonals
    # d[g, t, i] = B_g[i, (i + off[t]) mod n]; the powers of 2 are exact
    d = a[:, i, (i + off[:, None]) % n] * _powers(squarings, 1)[:, :, None]
    h, h_off = _horner_rows(np.concatenate([d, -d]), off, k)

    c = _PADE13
    sign = (-1.0) ** np.arange(k + 1)
    p_row = h[:g]
    q_row = h[g:] * sign[:, None, None]
    t_p = sum(c[m] * np.eye(k, k=m) for m in range(k))
    t_q = sum(c[m] * sign[m] * np.eye(k, k=m) for m in range(k))
    t = np.linalg.solve(t_q, t_p)
    # P_Y - Q_Y (S kron I): block j takes sum_m S[m, j] Q_m off P_j
    for j in range(1, k + 1):
        for m in range(1, k + 1):
            p_row[:, j] -= t[m - 1, j - 1] * q_row[:, m]

    col = (i + h_off[:, None]) % n
    q_0 = np.zeros((g, n, n), dtype=dtype)
    q_0[:, i, col] = q_row[:, 0]
    f = np.zeros((g, n, (k + 1) * n), dtype=dtype)
    f[:, i, col + n * np.arange(k + 1)[:, None, None]] = p_row
    return _band_matmul(_drop_small(scipy.linalg.inv(q_0, check_finite=False)), f)


def _drop_small(x: np.ndarray) -> np.ndarray:
    """x, each member's entries below _DROP times its largest set to zero
    in place."""
    mag = np.abs(x)
    np.copyto(x, 0.0, where=mag < _DROP * mag.max(axis=(1, 2), keepdims=True))
    return x


def _band_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x_i y_i for every member of the (G, n, n) and (G, n, m) stacks x, y,
    without the terms that are exact zeros off their bands.

    Each member takes its own `_band_plan`: per block of _BAND_ROWS rows,
    one product of the columns of x those rows touch by the columns of y
    those columns touch, as slices. The terms left out are zeros, so the
    result is x_i y_i up to the order of summation. A member without a
    plan takes the plain product, all such members in one batched call, so
    member i does not depend on the rest of the stack.
    """
    plans = [_band_plan(a, b) for a, b in zip(x, y)]
    plain = [i for i, p in enumerate(plans) if p is None]
    if len(plain) == len(plans):
        return np.matmul(x, y)
    out = np.zeros(x.shape[:2] + y.shape[2:], dtype=np.result_type(x, y))
    if plain:
        out[plain] = np.matmul(x[plain], y[plain])
    for a, b, c, plan in zip(x, y, out, plans):
        for r0, r1, k_runs, o_runs in plan or ():
            for o0, o1 in o_runs:
                (c0, c1), *rest = k_runs
                acc = a[r0:r1, c0:c1] @ b[c0:c1, o0:o1]
                for c0, c1 in rest:
                    acc += a[r0:r1, c0:c1] @ b[c0:c1, o0:o1]
                c[r0:r1, o0:o1] = acc
    return out


def _band_plan(x: np.ndarray, y: np.ndarray):
    """The block plan of the product of n x n x by n x m y, or None.

    Rows are cut into blocks of _BAND_ROWS, the last block taking the
    remainder. Each block takes the columns of x that are nonzero in its
    rows, and the output columns: those nonzero in the groups of 8 rows
    of y that hold those columns (so up to 7 rows of y more than needed
    either side). Both are (start, stop) slices: runs of columns less
    than _BAND_ROWS apart are merged, so a cyclic band takes at most two
    slices. A block whose rows are zero is left out. Returns
    [(r0, r1, k_runs, o_runs)], or None, for the plain product, when n is
    under 8 blocks, an entry is not finite (inf times a skipped zero is
    nan) or the plan's multiply-adds exceed half of the plain product's.
    """
    n, m = y.shape
    b = _BAND_ROWS
    # below 8 blocks the plan costs about what it saves: on the squares of
    # the porous, Burgers and Schrodinger blocks cut to n = 160, 192 and
    # 256, the banded product took 1.1-1.2, 0.8-0.9 and 0.4-0.7 times the
    # plain one (2-core x86 host, one BLAS thread)
    if n < 8 * b or not (np.isfinite(x).all() and np.isfinite(y).all()):
        return None
    k_mask = _row_groups(x != 0, b)
    # o_mask[r, j]: some group of rows of y that block r's columns touch
    # has column j nonzero (counts of at most n / 8 are exact in float32)
    touched = _row_groups(k_mask.T, 8).T.astype(np.float32)
    o_mask = touched @ _row_groups(y != 0, 8).astype(np.float32) > 0
    plan, work = [], 0
    for r, (k_runs, o_runs) in enumerate(zip(_runs(k_mask), _runs(o_mask))):
        if k_runs and o_runs:
            r0, r1 = r * b, (r + 1) * b if r < len(k_mask) - 1 else n
            work += (r1 - r0) * sum(c1 - c0 for c0, c1 in k_runs) * sum(
                o1 - o0 for o0, o1 in o_runs)
            plan.append((r0, r1, k_runs, o_runs))
    return plan if 2 * work <= n * n * m else None


def _row_groups(nz: np.ndarray, size: int) -> np.ndarray:
    """Whether each group of `size` consecutive rows of the boolean `nz`
    has an entry in each column; the last group takes the remainder."""
    q = len(nz) // size
    out = np.empty((q,) + nz.shape[1:], dtype=bool)
    out[:-1] = nz[:(q - 1) * size].reshape((q - 1, size) + nz.shape[1:]).any(axis=1)
    out[-1] = nz[(q - 1) * size:].any(axis=0)
    return out


def _runs(mask: np.ndarray) -> list:
    """Per row of a 2D boolean mask, the (start, stop) slices of its runs
    of True, runs less than _BAND_ROWS apart merged into one."""
    edge = np.empty((len(mask), mask.shape[1] + 1), dtype=bool)
    edge[:, 0], edge[:, -1] = mask[:, 0], mask[:, -1]
    np.not_equal(mask[:, 1:], mask[:, :-1], out=edge[:, 1:-1])
    row, col = np.nonzero(edge)
    row, start, stop = row[::2], col[::2], col[1::2]  # edges come in pairs
    first = np.ones(len(row), dtype=bool)  # the first run of each merged one
    first[1:] = (row[1:] != row[:-1]) | (start[1:] - stop[:-1] >= _BAND_ROWS)
    last = np.ones(len(row), dtype=bool)  # and the last
    last[:-1] = first[1:]
    runs = [[] for _ in mask]
    for r, c0, c1 in zip(row[first].tolist(), start[first].tolist(),
                         stop[last].tolist()):
        runs[r].append((c0, c1))
    return runs


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
                       tol: float = KRYLOV_TOL, m_max: int = KRYLOV_M_MAX,
                       hint=None):
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

    `hint` warm-starts the checkpoints, as KIOPS (Gaudreault, Rainwater &
    Tokman, JCP 2018) reuses the last dimension: per member (one int for
    one vector), the dimension it used last time, 0 for none. A hinted
    member is first tested at its hint rounded up to a checkpoint (capped
    at m_max); happy breakdown is still tested at every step. If that
    first test passes, the checkpoints below are tested downwards, one
    exponential each on the kept H, and the member stops at the lowest
    one that passes before one fails (`_look_back`). If it fails, the
    member goes on as without a hint, and a miss at m_max first tests the
    checkpoints it skipped. While the stopping estimate is monotone in m
    this is the dimension, and bitwise the result, of the unhinted run;
    in any case the dimension is no smaller and `converged` the same.

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
    every = KRYLOV_CHECK_EVERY
    # per slot, the first checkpoint tested: the hint rounded up to one
    first = np.minimum(-(-np.broadcast_to(0 if hint is None else hint, (g_all,))
                         // every) * every, m_max)
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
            first = first[keep]
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
        checkpoint = m % every == 0 or m == m_max
        if not checkpoint and broke is None:
            continue
        # the members tested now: those that broke down, and at a
        # checkpoint those that do not skip it (at m_max, every member)
        test = (first <= m) & checkpoint
        if broke is not None:
            test |= broke
        if not test.any():
            continue
        y, ok = _stop_test(h, beta, test, m, k, tol)
        if broke is not None:
            ok |= broke[test]
        stop = ok if m < m_max else np.ones_like(ok)
        sel = np.flatnonzero(test)[stop]
        if not sel.size:
            continue
        for s, y_s, m_s, ok_s in _look_back(h, beta, sel, y[stop], ok[stop], m,
                                            first[sel], k, tol):
            # y_s contiguous for every member: OpenBLAS rounds a strided y
            # differently at m = 2, 3 mod 4, and the result of a member
            # would then depend on whether the others had stopped
            y_s = np.ascontiguousarray(y_s)[:, None, :]
            result[ids[s]] = beta[s, None] * (y_s @ vv[s, :m_s])[:, 0]
            m_used[ids[s]] = m_s
            converged[ids[s]] = ok_s
        if sel.size == ids.size:
            break
        keep = np.ones(ids.size, dtype=bool)
        keep[sel] = False
    if v.ndim == 1:
        return result[0], int(m_used[0]), bool(converged[0])
    return result, m_used, converged


def _look_back(h, beta, slots, y, ok, m, first, k, tol):
    """The dimensions at which the members that stop at step m keep their
    result, as (slots, phi_k(H) e_1, dimension, converged) groups.

    `slots` index the stack of H and beta, `y` and `ok` are their test at
    step m, and `first` their first checkpoint. A member keeps step m
    unless a hint made it skip the checkpoint below m. Then, if it passed,
    it tests the checkpoints below m downwards and keeps the lowest that
    passes before one fails; if it missed at m_max, it tests the ones it
    skipped upwards and keeps the first that passes, as the unhinted run
    would. Each test is one stacked exponential of the kept H for all
    members at that checkpoint.
    """
    every = KRYLOV_CHECK_EVERY
    below = (m - 1) // every * every  # the checkpoint before m, or 0
    back = ok & (first > below)
    rest = ok & ~back
    groups = [(slots[rest], y[rest], m, True)]

    s, y_s, m_s = slots[back], y[back], m
    for c in range(below, 0, -every):
        if not s.size:
            break
        y_c, passed = _stop_test(h, beta, s, c, k, tol)
        groups.append((s[~passed], y_s[~passed], m_s, True))
        s, y_s, m_s = s[passed], y_c[passed], c
    groups.append((s, y_s, m_s, True))

    s, y_s, first = slots[~ok], y[~ok], first[~ok]
    for c in range(every, int(first.max(initial=0)), every):
        due = np.flatnonzero(first > c)
        if not due.size:
            break
        y_c, passed = _stop_test(h, beta, s[due], c, k, tol)
        groups.append((s[due[passed]], y_c[passed], c, True))
        left = np.ones(s.size, dtype=bool)
        left[due[passed]] = False
        s, y_s, first = s[left], y_s[left], first[left]
    groups.append((s, y_s, m, False))
    return [grp for grp in groups if grp[0].size]


def _stop_test(h, beta, slots, m, k, tol):
    """phi_k(H_m) e_1 of the members in `slots` of the stack, and whether
    each meets the stopping estimate
    |beta h_{m+1,m} (phi_k(H_m) e_1)_m| <= tol beta at step m."""
    y = phi_hessenberg_e1(h[slots, :m, :m], k)
    hnext = h[slots, m, m - 1].real
    return y, beta[slots] * hnext * np.abs(y[:, m - 1]) <= tol * beta[slots]


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


class _Builds:
    """The distinct blocks of one size n of a DenseStored evaluator.

    `windows` lists the blocks of the evaluator's operator that have size
    n, `build` the distinct block each one is and `slot` its rank among
    the blocks equal to it. `rows` stacks 2^(-s j) phi_j(B) for
    j = 1 .. order_max of every distinct block, (G', k n, n), and
    `ladder` holds the squares of its exp(B).
    """

    __slots__ = ("n", "windows", "build", "slot", "rows", "ladder")

    def __init__(self, n, windows, build, slot, rows, ladder):
        self.n, self.rows, self.ladder = n, rows, ladder
        self.windows, self.build, self.slot = (
            np.asarray(v, dtype=np.intp) for v in (windows, build, slot))

    def apply(self, k: int, x: np.ndarray) -> np.ndarray:
        """phi_k(dt A_i) x_i for the (c, G_w, n) stack x of these blocks.

        The c columns of each block climb its build's ladder in a product
        of their own, so block i's result depends only on its own build
        and columns, bitwise.
        """
        c, _, n = x.shape
        g, m = len(self.rows), int(self.slot.max()) + 1
        v = np.zeros((g, m, n, c), dtype=np.result_type(self.rows, x))
        v[self.build, self.slot] = x.transpose(1, 2, 0)
        y = np.matmul(self.rows[:, None, :k * n], v).reshape(g, m, k, n, c)
        y = self.ladder.climb(y.transpose(0, 1, 3, 2, 4))[:, :, :, k - 1]
        return y[self.build, self.slot].transpose(2, 0, 1)


@dataclass
class PhiEvaluator:
    """phi_k applications behind one interface, dense-built or Krylov.

    Both modes take one operator A = diag(A_1 ... A_G) on a zero-padded
    (G, L) stack (`BandedSparseMatrix.restrict`). DenseStored mode builds
    each distinct block once (`dense`): it stores phi_0(dt A_i) =
    exp(dt A_i), for callers that compose a step from it (`stored`), and
    keeps the squaring ladder of exp(dt A_i / 2^s) with the thin blocks
    2^(-s j) phi_j(dt A_i / 2^s), which `apply` climbs on the vectors it
    is given. A build of k = order_max and s squarings costs 2 n^3 flops
    for the Pade denominator's inverse and s + 1 products on the band
    (`_band_matmul`): a few percent of the plain (2 (k + 1) + 2 s) n^3
    for a banded block of n >= 256, all of it below that. An application
    of phi_k to c columns costs 2 k (1 + s) n^2 c. KrylovAction mode runs
    one Arnoldi process per application at KRYLOV_TOL, every block one
    member. The dimension of every member is appended to `krylov_dims`,
    and members that hit KRYLOV_M_MAX unconverged are counted in
    `krylov_misses`.
    `krylov_last` maps (k, G) to the members' dimensions in the last
    application of phi_k to a stack of G rows, and the next such
    application warm-starts each member's checkpoints there
    (`_phi_action_krylov`, after KIOPS); a caller that rebuilds the
    operator with the same blocks may hand the dict on.
    """

    mode: str
    dt: float
    order_max: int
    _op: object = field(repr=False, default=None)
    _phi0: object = field(repr=False, default=None)
    _builds: list = field(repr=False, default_factory=list)
    krylov_dims: list = field(repr=False, default_factory=list)
    krylov_misses: int = 0
    krylov_last: dict = field(repr=False, default_factory=dict)

    @classmethod
    def dense(cls, a: BandedSparseMatrix, sizes, dt: float,
              order_max: int) -> "PhiEvaluator":
        """DenseStored evaluator of the block-diagonal `a` = diag(A_1 ... A_G).

        Block i, of size `sizes[i]`, sits at rows and columns i L onwards,
        as `BandedSparseMatrix.restrict` lays it out. Blocks with equal
        size and entries share one build. The distinct blocks of each size
        are scattered into one dense (G', n, n) stack, each member scaled
        by its own 2^-s, and one `expm_dense` call takes their Pade rows
        [phi_0(B) ... phi_k(B)] with no squarings left; then only exp(B)
        is squared (`_Ladder`). The stored phi_0(dt A) is one matrix when
        all blocks are one A, else the (G, L, L) zero-padded stack of the
        phi_0(dt A_i). Raises OverflowError if a squaring overflows.
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
        builds = []
        for n in dict.fromkeys(key[0] for key in first):
            group = {key: m for m, key in enumerate(key for key in first if key[0] == n)}
            dense = np.zeros((len(group), n, n), dtype=a.dtype)
            for key, m in group.items():
                s = first[key]
                dense[m, row[s], col[s]] = dt * a.vals[s]
            squarings = _phi_squarings(dense)
            pw = _powers(squarings, order_max)
            dense *= pw[:, :1, None]
            top = expm_dense(dense, order_max).reshape(-1, n, order_max + 1, n)
            rows = np.multiply(top[:, :, 1:].transpose(0, 2, 1, 3),
                               pw[:, :, None, None], order="C")
            ladder = _Ladder(top[:, :, 0], squarings)
            if not np.isfinite(ladder.top).all():
                raise OverflowError("PhiEvaluator.dense: overflow during squaring phase")
            windows = [i for i, key in enumerate(keys) if key[0] == n]
            build = [group[keys[i]] for i in windows]
            slot = [build[:j].count(b) for j, b in enumerate(build)]
            builds.append(_Builds(n, windows, build, slot,
                                  rows.reshape(-1, order_max * n, n), ladder))
        if len(first) == 1:
            phi0 = builds[0].ladder.top[0]
        else:
            phi0 = np.zeros((g, width, width),
                            dtype=np.result_type(*(b.ladder.top for b in builds)))
            for b in builds:
                phi0[b.windows, :b.n, :b.n] = b.ladder.top[b.build]
        return cls(mode="DenseStored", dt=dt, order_max=order_max,
                   _phi0=phi0, _builds=builds)

    @classmethod
    def krylov(cls, a, dt: float, order_max: int,
               last: dict | None = None) -> "PhiEvaluator":
        """KrylovAction evaluator of `a`; `last` is a `krylov_last` to
        warm-start from, shared and updated in place."""
        return cls(mode="KrylovAction", dt=dt, order_max=order_max, _op=a,
                   krylov_last={} if last is None else last)

    def stored(self, k: int) -> np.ndarray:
        """The stored phi_0(dt A) = exp(dt A), k = 0 (DenseStored only):
        one L x L matrix when every operator is one A, else the (G, L, L)
        zero-padded stack (shared, treat as read-only). phi_k for k >= 1
        is not stored; `apply` climbs it on the vectors it acts on."""
        if self.mode != "DenseStored":
            raise ValueError("only DenseStored mode stores phi matrices")
        if k != 0:
            raise ValueError(f"only phi_0 is stored, not phi_{k}; use apply")
        return self._phi0

    def apply(self, k: int, vec: np.ndarray) -> np.ndarray:
        """phi_k(dt A) vec, in the shape of `vec`: one vector (of a single
        operator), or a (G, L) stack with one row per operator (DenseStored)
        or per member of a block-diagonal operator (KrylovAction), each row
        zero-padded past its operator's size. DenseStored also takes
        leading axes, (..., G, L), each (G, L) slice applied alike, and
        row i of the result depends only on A_i and row i of `vec`."""
        if not 1 <= k <= self.order_max:
            raise ValueError(f"phi order {k} outside configured range 1..{self.order_max}")
        if self.mode == "DenseStored":
            g = sum(len(b.windows) for b in self._builds)
            x = vec.reshape(-1, g, vec.shape[-1])
            out = np.zeros(x.shape,
                           dtype=np.result_type(x, *(b.rows for b in self._builds)))
            for b in self._builds:
                out[:, b.windows, :b.n] = b.apply(k, x[:, b.windows, :b.n])
            return out.reshape(vec.shape)
        x = vec.reshape(-1, vec.shape[-1])
        key = (k, len(x))
        result, m_used, converged = _phi_action_krylov(
            self._op, self.dt, x, k, hint=self.krylov_last.get(key))
        self.krylov_last[key] = m_used
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
