"""In-repo Hermitian eigensolver and positivity factorisation (numpy only).

`eigenvalues` scales a dense complex Hermitian matrix by a power of two and
reduces it to a real symmetric tridiagonal with Householder reflectors
(Golub & Van Loan, Matrix Computations, 4th ed., 8.3).  Its least
eigenvalue is bisected by Sturm counts, as LAPACK's dstebz does; the rest
of a spectrum comes from the root-free QL iteration of LAPACK's dsterf
(Parlett, The Symmetric Eigenvalue Problem, 8.15).  As with LAPACK, the
absolute error is of order n eps ||G||.

`ldl_eliminate` decides only the sign question: an LDL^H (square-root-free
Cholesky) elimination of G + tau I succeeds exactly when every eigenvalue
of G exceeds -tau, and stops at the first pivot that is not positive;
`ldl_verdict` then back-substitutes a vector on which G is negative.  The
elimination is left-looking (the "gaxpy" form of Golub & Van Loan, 4.2):
step k forms column k of the Schur complement with one mat-vec against the
columns already factored, in place, so no (n - k)^2 rank-1 update is formed.

`hermitian_part` is the one symmetrizing rule.  The sampled Grams of
`positivity` arrive Hermitian from it; `eigenvalues` and `ldl_eliminate`
apply it to their input again only as a guard for other callers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^H) / 2, halved before the sum so that entries near the float
    maximum cannot overflow.  Equals a / 2 + a.conj().T / 2 up to the sign
    of a zero (conj(a / 2) and conj(a) / 2 can differ in it)."""
    a = a / 2
    a += a.conj().T
    return a


def _hermitian_copy(h) -> np.ndarray:
    """`hermitian_part` of a finite square matrix, refusing any other input."""
    a = np.asarray(h, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(a).all():
        raise EvaluationError("matrix has non-finite entries")
    return hermitian_part(a)


#: a pass splits every bracket 16 ways (15 shifts), so 53 mantissa bits take
#: 14 passes; two more absorb the rounding of the shifts
_SPLIT, _MAX_PASSES = 16, -(-53 // 4) + 2


def _tridiagonal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and |off-diagonal| of a real tridiagonal unitarily similar to
    the Hermitian `a` (n >= 1; its storage is reused).  H = I - u u^H maps
    column k below the diagonal to a multiple of e_1; the trailing block
    H A H = A - u w^H - w u^H is written once per column, contiguously; a
    diagonal unitary similarity then makes the off-diagonal real."""
    b, n = a, a.shape[0]
    d, e = np.empty(n), np.zeros(n - 1)
    flat = [a.reshape(-1), np.empty(n * n, dtype=complex)]
    uw, wu = np.empty((2, 2, n), dtype=complex)
    for k in range(n - 1):
        m, d[k], x = n - 1 - k, b[0, 0].real, b[1:, 0]
        e[k] = alpha = math.sqrt(np.vdot(x, x).real)
        b, trail = flat[(k + 1) % 2][: m * m].reshape(m, m), b[1:, 1:]
        if alpha == 0 or m == 1:  # nothing to reduce
            np.copyto(b, trail)
            continue
        # u = sqrt(beta) v, v = x / alpha normalised before beta = 2 / |v|^2
        # (summed: alpha may have lost entries whose squares underflow)
        u, w = uw[0, :m], uw[1, :m]
        np.divide(x, alpha, out=u)
        v0 = complex(u[0])
        u[0] = v0 + (v0 / abs(v0) if v0 else 1.0)
        u *= math.sqrt(2.0 / np.vdot(u, u).real)
        np.matmul(trail, u, out=w)
        w -= (0.5 * np.vdot(u, w).real) * u
        np.conjugate(uw[::-1, :m], out=wu[:, :m])
        np.subtract(trail, np.matmul(uw[:, :m].T, wu[:, :m], out=b), out=b)
    d[-1] = b[0, 0].real
    return d, e


_MAX_SWEEPS = 30  # QL sweeps allowed per eigenvalue, as in LAPACK's dsterf


def _dlapy2(x: float, y: float) -> float:
    """sqrt(x^2 + y^2) without overflow, rounded as LAPACK's dlapy2."""
    w, z = max(abs(x), abs(y)), min(abs(x), abs(y))
    return w * math.sqrt(1.0 + (z / w) * (z / w)) if z else w


def _dlae2(a: float, b: float, c: float) -> tuple[float, float]:
    """Eigenvalues of [[a, b], [b, c]], the larger in size first (dlae2)."""
    sm, rt = a + c, _dlapy2(a - c, b + b)
    if sm == 0:
        return 0.5 * rt, -0.5 * rt
    rt1 = 0.5 * (sm + math.copysign(rt, sm))
    acmx, acmn = (a, c) if abs(a) > abs(c) else (c, a)
    return rt1, (acmx / rt1) * acmn - (b / rt1) * b


def _ql_block(d: list, e2: list, sweeps: int) -> int:
    """Eigenvalues of an unreduced block, in place in d, by dsterf's QL
    iteration on the squared off-diagonals e2 and a spare 0.0: the first
    step of a sweep down from m writes s r = 0 over e2[m], which dsterf sets
    to 0 when it is negligible.  Returns the sweeps left."""
    eps2, l, last = (0.5 * np.finfo(float).eps) ** 2, 0, len(d) - 1
    while l <= last:
        m = l  # the first negligible off-diagonal from l on
        while m < last and abs(e2[m]) > eps2 * abs(d[m] * d[m + 1]):
            m += 1
        if m <= l + 1:  # d[l] has converged, or a 2 x 2 block deflates
            if m == l + 1:
                d[l], d[l + 1] = _dlae2(d[l], math.sqrt(e2[l]), d[l + 1])
            l = m + 1
            continue
        if sweeps == 0:
            raise EvaluationError("eigensolver failed: no convergence in the QL sweeps")
        sweeps -= 1
        p, rte = d[l], math.sqrt(e2[l])  # Wilkinson's shift from the top 2 x 2
        g = (d[l + 1] - p) / (2.0 * rte)
        sigma = p - rte / (g + math.copysign(_dlapy2(g, 1.0), g))
        c, s, gamma = 1.0, 0.0, d[m] - sigma
        p = gamma * gamma
        for i in range(m - 1, l - 1, -1):
            bb = e2[i]
            r = p + bb
            e2[i + 1] = s * r
            oldc = c
            c = p / r
            s = bb / r
            oldgam = gamma
            alpha = d[i]
            gamma = c * (alpha - sigma) - s * oldgam
            d[i + 1] = oldgam + (alpha - gamma)
            p = (gamma * gamma) / c if c != 0 else oldc * bb
        e2[l], d[l] = s * p, sigma + gamma
    return sweeps


def _root_free_ql(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Every eigenvalue of the symmetric tridiagonal (d, e), ascending, by
    the Pal-Walker-Kahan root-free QL iteration as LAPACK's dsterf runs it:
    split at off-diagonals below eps sqrt|d_k d_k+1|, a block below ssfmin
    scaled up (here by a power of two), and a block reversed, dsterf's QR
    branch, when its last diagonal entry is the smaller in size."""
    eps = 0.5 * np.finfo(float).eps
    floor = math.frexp(math.sqrt(np.finfo(float).tiny) / (eps * eps))[1]  # of ssfmin
    small = np.abs(e) <= np.sqrt(np.abs(d[:-1])) * np.sqrt(np.abs(d[1:])) * eps
    cuts = [0, *(np.flatnonzero(small) + 1).tolist(), len(d)]
    out, sweeps = d.copy(), _MAX_SWEEPS * len(d)
    for lo, hi in zip(cuts, cuts[1:]):
        if hi - lo > 1:  # so some e_k is not 0
            anorm = max(np.abs(d[lo:hi]).max(), np.abs(e[lo : hi - 1]).max())
            k = max(0, floor - math.frexp(anorm)[1])
            bd, be2 = np.ldexp(d[lo:hi], k).tolist(), np.square(np.ldexp(e[lo : hi - 1], k)).tolist()
            if abs(bd[-1]) < abs(bd[0]):
                bd, be2 = bd[::-1], be2[::-1]
            sweeps = _ql_block(bd, be2 + [0.0], sweeps)
            out[lo:hi] = np.ldexp(bd, -k)
    return np.sort(out)


def _has_negative_pivot(d: list, e2: list, x: float, pivmin: float) -> bool:
    """Whether T - x I = L D L^T has a pivot below pivmin, stopping at the
    first (dstebz makes such a pivot -pivmin, so that counts are monotone in
    x in IEEE arithmetic: Demmel, Dhillon & Ren, ETNA 3, 1995)."""
    q = d[0] - x
    if q < pivmin:
        return True
    for dk, ek in zip(d[1:], e2):
        q = (dk - x) - ek / q
        if q < pivmin:
            return True
    return False


def _least_by_search(d, e2, lo: float, hi: float, width: float) -> float:
    """The midpoint of the bracket of T's least eigenvalue, bisected from
    [lo, hi] until at most `width` wide.  A pass keeps the part of the grid
    lo + (hi - lo) k / 16 from the last shift with count 0 (or lo) to the
    first with count at least 1 (or hi); counts are monotone in the shift,
    so a binary search finds it in 4 counts."""
    pivmin = np.finfo(float).tiny * max(1.0, float(e2.max(initial=0.0)))
    d, e2 = d.tolist(), e2.tolist()
    # the search keeps count 0 at lo and count >= 1 at hi: check both ends
    if _has_negative_pivot(d, e2, lo, pivmin) or not _has_negative_pivot(d, e2, hi, pivmin):
        raise EvaluationError("eigensolver failed: Sturm counts not monotone in the shift")
    for _ in range(_MAX_PASSES):
        below, above, step, new_lo, new_hi = 0, _SPLIT, hi - lo, lo, hi
        while above - below > 1:
            k = (below + above) // 2
            x = lo + step * (k / _SPLIT)
            if _has_negative_pivot(d, e2, x, pivmin):
                above, new_hi = k, x
            else:
                below, new_lo = k, x
        lo, hi = new_lo, new_hi
        if hi - lo <= width:
            return (lo + hi) / 2
    raise EvaluationError(f"eigensolver failed: no convergence in {_MAX_PASSES} passes")


def eigenvalues(h: np.ndarray, count: int | None = None) -> np.ndarray:
    """The `count` least eigenvalues of a Hermitian matrix (symmetrized
    first), ascending; all of them when `count` is None.

    The least eigenvalue of T is bisected from the Gershgorin interval to
    within 2 eps ||T|| (`_least_by_search`), so that `min_eigenvalue` and
    every spectrum share it bit for bit.  A spectrum takes the others from
    `_root_free_ql`, raised to at least that least eigenvalue; either
    method meets LAPACK's n eps ||T|| contract.
    """
    with np.errstate(all="ignore"):  # overflow is detected, not warned about
        a = _hermitian_copy(h)
        n = a.shape[0]
        if count is None:
            count = n
        elif n == 0:
            raise ValueError("matrix is empty: it has no eigenvalues")
        elif isinstance(count, bool) or not isinstance(count, numbers.Integral) or not 1 <= count <= n:
            raise ValueError(f"count must be an integer in 1..{n}, got {count!r}")
        big = float(np.max(np.abs(a.view(float)), initial=0.0))
        if big == 0:
            return np.zeros(count)
        exponent = math.frexp(big)[1]  # 2^-exponent rounds only subnormals
        d, e = _tridiagonal(np.ldexp(a.view(float), -exponent).view(complex))
        if not (np.isfinite(d).all() and np.isfinite(e).all()):
            raise EvaluationError("eigensolver failed: the tridiagonal form is not finite")
        radius = np.append(e, 0.0) + np.append(0.0, e)
        lo, hi = float(np.min(d - radius)), float(np.max(d + radius))
        eps, scale = float(np.finfo(float).eps), max(abs(lo), abs(hi))
        pad = 2.1 * n * eps * scale  # as in LAPACK's dstebz
        least = _least_by_search(d, e * e, lo - pad, hi + pad, 2 * eps * scale)
        mids = np.maximum(_root_free_ql(d, e)[:count], least) if count > 1 else np.zeros(1)
        mids[0] = least
        out = np.ldexp(mids, exponent)
    if not np.all(np.isfinite(out)):
        raise EvaluationError("eigensolver failed: an eigenvalue overflows")
    return out


# perfbench/ wraps and probes the solver under this name; every module
# global that is this function gets the wrapper, so every solve is counted
jacobi_eigenvalues = eigenvalues


def min_eigenvalue(h: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix (symmetrized first).

    Goes through the module global `eigenvalues`, so that every solve is
    seen by whatever wraps that name."""
    return float(eigenvalues(h, 1)[0])


@dataclass(frozen=True)
class LdlVerdict:
    """Outcome of the LDL^H elimination of G + shift * I.

    `psd` holds iff every pivot was positive.  A failing verdict names the
    first pivot k that was not, and carries the witness v = L^-H e_k (its
    leading k + 1 entries; zero beyond), for which v^H (G + shift I) v is
    that pivot, and its Rayleigh quotient v^H G v / |v|^2, recomputed with a
    plain mat-vec; up to rounding it is at most -shift.
    """

    psd: bool
    shift: float
    pivot: int | None = None
    witness: np.ndarray | None = None
    rayleigh: float | None = None


def ldl_eliminate(g: np.ndarray, tol: float) -> tuple[int | None, np.ndarray, float]:
    """LDL^H of A = G + tau I, tau = tol * (1 + max diag G), left-looking:
    (the first pivot k that is not > 0, or None; the factors; tau).  All
    pivots are > 0 exactly when the least eigenvalue of (the Hermitian part
    of) G exceeds -tau.  No eigenvalue and no witness is computed.

    Step k needs the entries of A only in column k, on and below the
    diagonal, so the factors overwrite A as they are made: below the
    diagonal, column j holds column j of L D (L's column times the pivot
    d_j); above it, row j holds row j of L^H.  Column k of the Schur
    complement is then A[k:, k] - (L D)[k:, :k] L^H[:k, k], one mat-vec.
    """
    a = _hermitian_copy(g)
    n = a.shape[0]
    if n == 0:
        raise ValueError("matrix is empty: there is no verdict to give")
    shift = tol * (1 + float(a.diagonal().real.max()))
    a.flat[:: n + 1] += shift
    for k in range(n):
        col = a[k:, k]
        if k:
            col -= a[k:, :k] @ a[:k, k]
        d = col[0].real
        if not d > 0:
            return k, a, shift
        a[k, k + 1 :] = col[1:].conj() / d  # row k of L^H
    return None, a, shift


def ldl_verdict(g: np.ndarray, tol: float) -> LdlVerdict:
    """Is G >= -tol * (1 + max diagonal) * I?  `ldl_eliminate` decides it; a
    failing verdict then solves L^H v = e_k over the leading (k + 1) block
    by back substitution for its witness."""
    k, factored, shift = ldl_eliminate(g, tol)
    if k is None:
        return LdlVerdict(True, shift)
    v = np.zeros(factored.shape[0], dtype=complex)
    v[k] = 1.0
    for i in range(k - 1, -1, -1):
        v[i] = -(factored[i, i + 1 : k + 1] @ v[i + 1 : k + 1])
    gv = np.asarray(g, dtype=complex) @ v
    rayleigh = float(np.vdot(v, gv).real / np.vdot(v, v).real)
    return LdlVerdict(False, shift, k, v, rayleigh)
