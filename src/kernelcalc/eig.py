"""In-repo Hermitian eigensolver and positivity factorisation (numpy only).

`eigenvalues` scales a dense complex Hermitian matrix by a power of two and
reduces it to a real symmetric tridiagonal with Householder reflectors
(Golub & Van Loan, Matrix Computations, 4th ed., 8.3).  Its least
eigenvalue is bisected by Sturm counts, as LAPACK's dstebz does; the rest
of a spectrum comes from the root-free QL iteration of LAPACK's dsterf
(Parlett, The Symmetric Eigenvalue Problem, 8.15).  As with LAPACK, the
absolute error is of order n eps ||G||.

`ldl_pivot` and `ldl_verdict` decide only the sign question: an LDL^H
(square-root-free Cholesky) elimination of G + tau I (`_eliminate`)
succeeds exactly when every eigenvalue of G exceeds -tau, and stops at the
first pivot that is not positive; `ldl_verdict` then back-substitutes a
vector on which G is negative.  The elimination is left-looking (the
"gaxpy" form of Golub & Van Loan, 4.2): step k forms column k of the Schur
complement with one mat-vec against the columns already factored, in
place, so no (n - k)^2 rank-1 update is formed.

`hermitian_part` is the one symmetrizing rule.  The sampled Grams of
`positivity` arrive Hermitian from it; `eigenvalues` and `ldl_verdict`
apply it to their input again, as their copy-in, only as a guard for other
callers.  `ldl_pivot` copies nothing in: it eliminates the Hermitian
matrix that its caller's fill(out) writes straight into the factor buffer,
and refuses it when an entry is not finite.

Both column loops run on a step plan of the input's width n: a workspace
of two n x n buffers and the views that step k reads and writes, made once
(Golub & Van Loan keep LAPACK's workspace the same way).  Each step then
issues only its arithmetic, `out` passed positionally: an elimination step
is `col -= left @ top` and np.divide(np.conjugate(below, row), pivot, row),
and a scalar such as the pivot goes to numpy as a 0-d complex kept in the
plan, the operand numpy would make of the Python float.  The operations
and their order are those of the loops without a plan, so the pivots,
factors, tau and the tridiagonal (d, e) are the same bit for bit.

One plan is kept per width, for at most `_KEPT_WIDTHS` widths of at most
`_MAX_KEPT_WIDTH`, the least recently used width dropped first: at most
about 0.8 MB a width (at 128, with both loops' views), whatever the number
of threads.  A call holds its width's plan, in a `with` block, by taking
the plan's lock without waiting; a call that finds it held (by another
thread, or by the `ldl_pivot` whose fill makes the call) builds a throwaway
plan, as a wider call does, so calls are reentrant and thread-safe.  The
saving is in the reuse: the first call at a width builds its plan and
costs a little more than a call without plans (3-10 us in an elimination
at n = 8-60).
"""

from __future__ import annotations

import functools
import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError
from .params import checked, is_number, shown


def hermitian_part(a: np.ndarray, out: np.ndarray | None = None,
                   scratch: np.ndarray | None = None) -> np.ndarray:
    """(A + A^H) / 2, halved before the sum so that entries near the float
    maximum cannot overflow, written into `out` (with conj(A / 2)^T in
    `scratch`) when they are given.  Equals
    a / 2 + a.conj().T / 2 up to the sign of a zero (conj(a / 2) and
    conj(a) / 2 can differ in it).  The transpose is copied into `scratch`
    before the add, so that the add reads two contiguous operands and
    allocates no buffer."""
    out = np.true_divide(a, 2, out=out)
    if scratch is None:
        scratch = np.empty_like(out)
    np.copyto(scratch, out.T)
    out += np.conjugate(scratch, out=scratch)
    return out


def _checked_square(h) -> np.ndarray:
    """h as a complex array, refusing one that is not an array of numbers
    in the float range (ValueError), square and finite.  Entries are numbers
    by `geometry.point_array`'s rule: by the dtype numpy infers, and else
    one by one, so a string or None is refused, not parsed or read as NaN."""
    try:
        a = np.asarray(h)
        if a.dtype.kind not in "iufc" and not all(map(is_number, a.astype(object).ravel())):
            raise TypeError("an entry is not a number")
        a = a.astype(complex, copy=False)
    except (TypeError, ValueError, OverflowError):  # ragged, not numbers, past the range
        raise ValueError("matrix is not an array of numbers within the float range") from None
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(a).all():
        raise EvaluationError("matrix has non-finite entries")
    return a


#: one plan is kept for each of this many widths, the least recently used
#: width dropped first, and only for widths up to _MAX_KEPT_WIDTH: a wider
#: call builds its plan and drops it.  8 holds every width of a Wallach or
#: bound scan over three families (7 widths, 8 to 48, in a benchmark run)
#: and every width of the psd reports (4, 20 to 60).
_KEPT_WIDTHS, _MAX_KEPT_WIDTH = 8, 128


class _Plan:
    """The workspace of one width n, and the views that step k of each column
    loop reads and writes, made on the loop's first run.  `a` takes the
    Hermitian input and then the factors or the first trailing block;
    `spare` takes conj(a) in the copy-in, then |a| for the scaling, then
    the second trailing block, and stays inside this module.  `operands`
    are three (0-d complex, its real part) pairs: a loop sets a scalar
    through the real part and hands numpy the complex operand, as numpy
    would convert the Python float.  A call uses the plan only while it
    holds `busy`, in the `with` block whose exit releases it."""

    __slots__ = ("n", "a", "spare", "flat", "diagonal", "operands", "busy", "_ldl", "_tri")

    def __init__(self, n: int):
        self.n = n
        self.a, self.spare = np.empty((2, n, n), dtype=complex)
        self.flat = self.a.reshape(-1)
        self.diagonal = self.flat[:: n + 1]
        ops = np.zeros(3, dtype=complex)
        self.operands = [(ops[i, ...], ops.real[i, ...]) for i in range(3)]
        self.busy = threading.Lock()
        self._ldl = self._tri = None

    def __enter__(self) -> _Plan:
        return self

    def __exit__(self, *exc) -> None:
        self.busy.release()

    def ldl_steps(self) -> list:
        """Per step k: column k from the diagonal down, its part below the
        diagonal, row k of L^H right of it, and the factored columns beside
        column k and column k above the diagonal (None at k = 0)."""
        if self._ldl is None:
            a = self.a
            self._ldl = [
                (a[k:, k], a[k + 1 :, k], a[k, k + 1 :], a[k:, :k] if k else None, a[:k, k])
                for k in range(self.n)
            ]
        return self._ldl

    def tri_steps(self) -> tuple[list, np.ndarray]:
        """Per step k (m = n - 1 - k): the flat buffer whose head is the
        trailing block's (0, 0) entry, the column below it and the block
        right of that, the next m x m block in the other buffer, u and w,
        (u, w)^T, the (conj w, conj u) target and its source (w, u), and an
        m-entry scratch vector."""
        if self._tri is None:
            n = self.n
            flat = [self.a.reshape(-1), self.spare.reshape(-1)]
            uw, wu = np.empty((2, 2, n), dtype=complex)
            su = np.empty(n, dtype=complex)
            steps = []
            for k in range(n - 1):
                m = n - 1 - k
                b = flat[k % 2][: (m + 1) ** 2].reshape(m + 1, m + 1)
                steps.append((flat[k % 2], b[1:, 0], b[1:, 1:],
                              flat[(k + 1) % 2][: m * m].reshape(m, m),
                              uw[0, :m], uw[1, :m], uw[:, :m].T, wu[:, :m],
                              uw[::-1, :m], su[:m]))
            self._tri = steps, flat[(n - 1) % 2]
        return self._tri


@functools.lru_cache(maxsize=_KEPT_WIDTHS)
def _kept(n: int) -> _Plan:
    """The kept plan of width 1 <= n <= _MAX_KEPT_WIDTH."""
    return _Plan(n)


def _checkout(n: int) -> _Plan:
    """A plan of width n that this call holds until the `with` block it
    opens ends: the kept plan of width n when it is free, else a throwaway.
    Width 0 is refused: an empty matrix has no verdict."""
    if n == 0:
        raise ValueError("matrix is empty: there is no verdict to give")
    if n <= _MAX_KEPT_WIDTH:
        plan = _kept(n)
        if plan.busy.acquire(blocking=False):
            return plan
    plan = _Plan(n)
    plan.busy.acquire()
    return plan


#: a pass splits every bracket 16 ways (15 shifts), so 53 mantissa bits take
#: 14 passes; two more absorb the rounding of the shifts
_SPLIT, _MAX_PASSES = 16, -(-53 // 4) + 2


def _tridiagonal(plan: _Plan) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and |off-diagonal| of a real tridiagonal unitarily similar to
    the Hermitian `plan.a` (n >= 1; the plan's buffers are overwritten).
    H = I - u u^H maps column k below the diagonal to a multiple of e_1; the
    trailing block H A H = A - u w^H - w u^H is written once per column,
    contiguously, into the other buffer; a diagonal unitary similarity then
    makes the off-diagonal real."""
    n = plan.n
    d, e = np.empty(n), np.zeros(n - 1)
    steps, last = plan.tri_steps()
    (alpha_op, alpha_re), (scale_op, scale_re), (half_op, half_re) = plan.operands
    for k, (head, x, trail, b, u, w, uw_t, wu, uw_rev, su) in enumerate(steps):
        d[k] = head.item(0).real
        e[k] = alpha = math.sqrt(np.vdot(x, x).real)
        if alpha == 0 or len(x) == 1:  # nothing to reduce
            np.copyto(b, trail)
            continue
        # u = sqrt(beta) v, v = x / alpha normalised before beta = 2 / |v|^2
        # (summed: alpha may have lost entries whose squares underflow)
        alpha_re[()] = alpha
        np.divide(x, alpha_op, u)
        v0 = complex(u[0])
        u[0] = v0 + (v0 / abs(v0) if v0 else 1.0)
        scale_re[()] = math.sqrt(2.0 / np.vdot(u, u).real)
        np.multiply(u, scale_op, u)
        np.matmul(trail, u, w)
        half_re[()] = 0.5 * np.vdot(u, w).real
        np.subtract(w, np.multiply(half_op, u, su), w)
        np.conjugate(uw_rev, wu)
        np.subtract(trail, np.matmul(uw_t, wu, b), b)
    d[-1] = last.item(0).real
    return d, e


def _scaled_tridiagonal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, int] | None:
    """`_tridiagonal` of hermitian_part(a) (n >= 1) scaled by 2^-exponent,
    where 2^exponent is just above its largest entry, and the exponent; None
    when every entry is 0."""
    with _checkout(len(a)) as plan:
        hermitian_part(a, plan.a, plan.spare)
        re = plan.a.view(float)
        big = float(np.abs(re, out=plan.spare.view(float)).max(initial=0.0))
        if big == 0:
            return None
        exponent = math.frexp(big)[1]  # 2^-exponent rounds only subnormals
        np.ldexp(re, -exponent, out=re)
        return (*_tridiagonal(plan), exponent)


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
        a = _checked_square(h)
        n = a.shape[0]
        if count is None:
            count = n
        elif n == 0:
            raise ValueError("matrix is empty: it has no eigenvalues")
        elif isinstance(count, bool) or not isinstance(count, numbers.Integral) or not 1 <= count <= n:
            raise ValueError(f"count must be an integer in 1..{n}, got {shown(count)}")
        reduced = _scaled_tridiagonal(a) if n else None
        if reduced is None:
            return np.zeros(count)
        d, e, exponent = reduced
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


@dataclass(frozen=True, eq=False)
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


def tau(tol, max_diagonal: float) -> float:
    """tol * (1 + max_diagonal): a Gram passes when its least eigenvalue is
    at least -tau.  Formed only here, so that the elimination's shift and a
    report's verdict and threshold agree bit for bit."""
    return tol * (1 + max_diagonal)


def _eliminate(plan: _Plan, tol: float) -> tuple[int | None, float]:
    """LDL^H of A = G + tau I, G the Hermitian matrix in `plan.a`, tau =
    `tau`(tol, max diag G), left-looking, in place: (the first pivot k that
    is not > 0, or None; tau).  All pivots are > 0 exactly when the least
    eigenvalue of G exceeds -tau.

    Step k needs the entries of A only in column k, on and below the
    diagonal, so the factors overwrite A as they are made: below the
    diagonal, column j holds column j of L D (L's column times the pivot
    d_j); above it, row j holds row j of L^H.  Column k of the Schur
    complement is then A[k:, k] - (L D)[k:, :k] L^H[:k, k], one mat-vec.
    G's upper triangle and the imaginary part of its diagonal are never read.
    """
    shift = tau(tol, float(plan.diagonal.real.max()))
    plan.diagonal += shift
    pivot, pivot_re = plan.operands[0]
    for k, (col, below, row, left, top) in enumerate(plan.ldl_steps()):
        if left is not None:
            col -= left @ top
        d = col.item(0).real
        if not d > 0:
            return k, shift
        pivot_re[()] = d
        np.divide(np.conjugate(below, row), pivot, row)  # row k of L^H
    return None, shift


def ldl_pivot(n: int, fill, tol: float) -> int | None:
    """The first failing pivot of the elimination (`_eliminate`) of the
    n x n Hermitian G that fill(out) writes into `out`, the plan's factor
    buffer, or None when every pivot is positive; no factor and no witness
    is kept.  Nothing symmetrizes G here: G must be Hermitian bit for bit.
    A G with an entry that is not finite is refused (EvaluationError).
    `tol` is not checked here, on the hot path: every caller passes a tol
    that it has checked finite and not negative."""
    with _checkout(n) as plan:
        fill(plan.a)
        if not np.isfinite(plan.flat).all():
            raise EvaluationError("matrix has non-finite entries")
        return _eliminate(plan, tol)[0]


def ldl_verdict(g: np.ndarray, tol: float) -> LdlVerdict:
    """Is G >= -tau * I, tau = `tau`(tol, max diagonal)?  `_eliminate`
    decides it; a failing verdict then solves L^H v = e_k over the leading
    (k + 1) block by back substitution, in the plan, for its witness.  A
    tol that is negative or not finite is refused; tol = 0 asks for G >= 0."""
    tol = checked("non_negative", tol, "tol")
    a = _checked_square(g)
    n = a.shape[0]
    with _checkout(n) as plan:
        hermitian_part(a, plan.a, plan.spare)
        k, shift = _eliminate(plan, tol)
        if k is None:
            return LdlVerdict(True, shift)
        v = np.zeros(n, dtype=complex)
        v[k] = 1.0
        for i in range(k - 1, -1, -1):
            v[i] = -(plan.a[i, i + 1 : k + 1] @ v[i + 1 : k + 1])
    rayleigh = float(np.vdot(v, a @ v).real / np.vdot(v, v).real)
    return LdlVerdict(False, shift, k, v, rayleigh)
