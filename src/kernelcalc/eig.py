"""In-repo Hermitian eigensolver and positivity factorisation (numpy only).

`eigenvalues` scales a dense complex Hermitian matrix by a power of two,
reduces it to a real symmetric tridiagonal with Householder reflectors and
refines Sturm brackets of the wanted eigenvalues (Golub & Van Loan, Matrix
Computations, 4th ed., 8.3-8.4), as LAPACK's dstebz bisects only the
wanted brackets.  A spectrum is refined by multisection: each pass counts
15 shifts of every bracket at once, with the recurrence run without its
tiny-pivot guard in cache-sized blocks and redone guarded only when a
block met such a pivot.  `min_eigenvalue` needs bracket 0 alone: each pass
binary-searches the same 16-way grid with 4 scalar guarded counts, each
stopping at its first negative pivot, and so ends on the same bracket and
the same float.  As with LAPACK, the absolute error is of order
n eps ||G||.  It serves reports that need eigenvalues.

`ldl_eliminate` decides only the sign question: an LDL^H (square-root-free
Cholesky) elimination of G + tau I succeeds exactly when every eigenvalue
of G exceeds -tau, and stops at the first pivot that is not positive;
`ldl_verdict` then back-substitutes a vector on which G is negative.  The
elimination is left-looking (the "gaxpy" form of Golub & Van Loan, 4.2):
step k forms column k of the Schur complement with one mat-vec against the
columns already factored, in place, so no (n - k)^2 rank-1 update is formed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError


def hermitian_part(a: np.ndarray) -> np.ndarray:
    # halved before the sum, so entries near the float maximum cannot overflow
    return a / 2 + a.conj().T / 2


def _hermitian_copy(h) -> np.ndarray:
    a = np.asarray(h, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(a).all():
        raise EvaluationError("matrix has non-finite entries")
    # `hermitian_part` with one halved copy and one temporary; every entry
    # is equal (a zero may flip sign: conj(a / 2) and conj(a) / 2 can differ)
    a = a / 2
    a += a.conj().T
    return a


#: a pass splits every bracket 16 ways (15 shifts), so 53 mantissa bits take
#: 14 passes; two more absorb the rounding of the shifts
_SPLIT, _MAX_PASSES = 16, -(-53 // 4) + 2


def _tridiagonal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and |off-diagonal| of a real tridiagonal unitarily similar to
    the Hermitian `a` (overwritten).  H = I - beta v v^H maps column k below
    the diagonal to a multiple of e_1, and the trailing block becomes
    H A H = A - v w^H - w v^H; a diagonal unitary similarity then makes the
    off-diagonal real without changing the spectrum."""
    n = a.shape[0]
    e = np.zeros(n - 1)
    for k in range(n - 1):
        x = a[k + 1 :, k]
        e[k] = alpha = math.sqrt(np.vdot(x, x).real)
        if alpha == 0 or k == n - 2:  # nothing to reduce
            continue
        v = x / alpha  # normalised first, so beta cannot overflow
        v[0] += v[0] / abs(v[0]) if v[0] != 0 else 1.0
        beta = 2.0 / np.vdot(v, v).real
        sub = a[k + 1 :, k + 1 :]
        p = beta * (sub @ v)
        w = p - (0.5 * beta * np.vdot(v, p).real) * v
        vw = np.array([v, w])
        sub -= vw.T @ vw[::-1].conj()  # v w^H + w v^H
    return a.diagonal().real.copy(), e


#: pivots per block of the unguarded Sturm recurrence: 2^14 floats (128 KiB)
#: keep the block in cache while it is counted
_BLOCK_PIVOTS = 2**14


def _pivmin(e2: np.ndarray) -> float:
    return np.finfo(float).tiny * max(1.0, float(e2.max(initial=0.0)))


def _guarded_counts(d: np.ndarray, e2: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Eigenvalues of T below each shift in `x`: the negative pivots of
    T - x I = L D L^T.  A pivot below pivmin in size becomes -pivmin, as in
    LAPACK's dstebz, so that the count is monotone in x in IEEE arithmetic
    (Demmel, Dhillon & Ren, ETNA 3, 1995)."""
    pivmin = _pivmin(e2)
    count = np.zeros(x.shape, dtype=np.intp)
    q = d[0] - x
    for k in range(len(d)):
        if k:
            q = (d[k] - x) - e2[k - 1] / q
        q[np.abs(q) < pivmin] = -pivmin
        count += q < 0
    return count


def _sturm_counts(d: np.ndarray, e2: np.ndarray, x: np.ndarray) -> np.ndarray:
    """`_guarded_counts`, run without the pivmin guard in blocks of about
    `_BLOCK_PIVOTS` pivots, two ufunc calls per step.  A block with a pivot
    below pivmin in size (or a NaN) redoes the whole call guarded, as
    LAPACK's dlaneg does (Marques, Riedy & Voemel, SIAM J. Sci. Comput. 28,
    2006); otherwise the arithmetic, and so every count, is the guarded
    loop's."""
    pivmin, n, shifts = _pivmin(e2), len(d), x.ravel()
    steps = min(n, max(1, _BLOCK_PIVOTS // shifts.size))
    # row 0 carries the last pivots of one block into the next; the row
    # views and the e2 floats are made once, not per step
    q, t = np.empty((steps + 1, shifts.size)), np.empty(shifts.size)
    qs, e2s = list(q), e2.tolist()
    count = np.zeros(shifts.size, dtype=np.intp)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, n, steps):
            rows = q[1 : min(steps, n - lo) + 1]
            np.subtract.outer(d[lo : lo + len(rows)], shifts, out=rows)
            for j in range(2 if lo == 0 else 1, len(rows) + 1):
                np.divide(e2s[lo + j - 2], qs[j - 1], t)
                np.subtract(qs[j], t, qs[j])
            q[0] = rows[-1]
            count += np.count_nonzero(rows < 0, axis=0)
            if not np.abs(rows, out=rows).min() >= pivmin:
                return _guarded_counts(d, e2, x)
    return count.reshape(x.shape)


def _multisection(d, e2, lo: float, hi: float, count: int, width: float) -> np.ndarray:
    """Midpoints of brackets 0 .. count - 1, each starting as [lo, hi].

    A pass counts at 15 interior shifts of every bracket and keeps the part
    where the count passes the bracket's index, until every bracket is at
    most `width` wide.
    """
    lo, hi = np.full(count, lo), np.full(count, hi)
    rows, steps = np.arange(count), np.arange(1, _SPLIT) / _SPLIT
    for p in range(_MAX_PASSES):
        x = lo[:, None] + (hi - lo)[:, None] * steps
        # every bracket starts as the same interval: pass 1 counts one row
        counts = _sturm_counts(d, e2, x[:1] if p == 0 else x)
        if np.any(np.diff(counts) < 0):
            raise EvaluationError("eigensolver failed: Sturm counts not monotone in the shift")
        below = np.count_nonzero(counts <= rows[:, None], axis=1)
        grid = np.column_stack([lo, x, hi])
        lo, hi = grid[rows, below], grid[rows, below + 1]
        if np.all(hi - lo <= width):
            return (lo + hi) / 2
    raise EvaluationError(f"eigensolver failed: no convergence in {_MAX_PASSES} passes")


def _has_negative_pivot(d: list, e2: list, x: float, pivmin: float) -> bool:
    """Whether `_guarded_counts` is at least 1 at the one shift x, stopping at
    the first negative pivot.  After the guard a pivot is negative exactly
    when it was below pivmin, and the guard leaves every other pivot alone,
    so up to the first negative pivot every float is the guarded loop's."""
    q = d[0] - x
    if q < pivmin:
        return True
    for dk, ek in zip(d[1:], e2):
        q = (dk - x) - ek / q
        if q < pivmin:
            return True
    return False


def _least_by_search(d, e2, lo: float, hi: float, width: float) -> float:
    """The midpoint of bracket 0 of `_multisection`, float for float.

    A pass forms the same shifts lo + (hi - lo) k / 16 in Python floats and
    keeps the same part: from the last shift with count 0 (or lo) to the
    first with count at least 1 (or hi).  Counts are monotone in the shift,
    so a binary search over the grid finds that part in 4 counts instead of
    15, each stopping at its first negative pivot.
    """
    pivmin, d, e2 = _pivmin(e2), d.tolist(), e2.tolist()
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

    Bracket j of eigenvalue j of T starts as the Gershgorin interval; a pass
    splits every wanted bracket 16 ways and keeps the part where the count
    passes j, until every wanted bracket is within 2 eps ||T||.  A bracket's
    shifts depend only on its own counts, so only brackets 0 .. count - 1 are
    bisected.  A spectrum counts all 15 shifts of every bracket at once
    (`_multisection`); a report that needs only the least eigenvalue
    searches bracket 0's grid with early-exit scalar counts
    (`_least_by_search`), to the same result.
    """
    with np.errstate(all="ignore"):  # overflow is detected, not warned about
        a = _hermitian_copy(h)
        n = a.shape[0]
        if count is None:
            count = n
        elif n == 0:
            raise ValueError("matrix is empty: it has no eigenvalues")
        elif not isinstance(count, numbers.Integral) or not 1 <= count <= n:
            raise ValueError(f"count must be an integer in 1..{n}, got {count!r}")
        big = float(np.max(np.abs(a.view(float)), initial=0.0))
        if big == 0:
            return np.zeros(count)
        exponent = math.frexp(big)[1]  # 2^-exponent rounds only subnormals
        d, e = _tridiagonal(np.ldexp(a.view(float), -exponent).view(complex))
        if not np.all(np.isfinite(np.r_[d, e])):
            raise EvaluationError("eigensolver failed: the tridiagonal form is not finite")
        radius = np.r_[e, 0.0] + np.r_[0.0, e]
        lo, hi = float(np.min(d - radius)), float(np.max(d + radius))
        eps, scale = float(np.finfo(float).eps), max(abs(lo), abs(hi))
        pad = 2.1 * n * eps * scale  # as in LAPACK's dstebz
        e2, lo, hi, width = e * e, lo - pad, hi + pad, 2 * eps * scale
        if count == 1:
            mids = np.array([_least_by_search(d, e2, lo, hi, width)])
        else:
            mids = np.sort(_multisection(d, e2, lo, hi, count, width))
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
