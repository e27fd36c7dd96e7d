"""In-repo Hermitian eigensolver and positivity factorisation (numpy only).

`jacobi_eigenvalues` is a cyclic Jacobi eigensolver for dense complex
Hermitian matrices: each sweep annihilates off-diagonal pivots with exact
2x2 Hermitian eigendecompositions; convergence is quadratic once the
off-diagonal mass is small.  Accurate to near machine precision for sizes up
to a few hundred.  It serves reports that need the least eigenvalue.

`ldl_verdict` decides only the sign question: it runs an LDL^H
(square-root-free Cholesky) elimination of G + tau I, which succeeds exactly
when every eigenvalue of G exceeds -tau, and on breakdown returns a vector
on which G is negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2


def _hermitian_copy(h) -> np.ndarray:
    a = np.array(h, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(a.view(float))):
        raise EvaluationError("matrix has non-finite entries")
    return hermitian_part(a)


def _rotation(app: float, aqq: float, apq: complex) -> tuple[complex, float]:
    """(x, y) such that V = [[x, -y], [y, conj(x)]] is unitary and
    V^H [[app, apq], [conj(apq), aqq]] V is diagonal (apq != 0)."""
    d = (app - aqq) / 2.0
    r = math.hypot(d, abs(apq))
    # eigenvector (apq, r - d) for the eigenvalue mean + r; avoid
    # cancellation in r - d
    if d >= 0:
        rm = abs(apq) ** 2 / (r + d)
    else:
        rm = r - d
    n1 = math.hypot(abs(apq), rm)
    return apq / n1, rm / n1


def _off_norm(a: np.ndarray) -> float:
    """Frobenius norm of the off-diagonal part, from the strict upper
    triangle (subtracting the diagonal mass from the total cancels)."""
    return math.sqrt(2.0) * float(np.linalg.norm(np.triu(a, 1)))


def jacobi_eigenvalues(
    h: np.ndarray, tol: float = 1e-14, max_sweeps: int = 60
) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending, via cyclic Jacobi.

    Raises EvaluationError if the off-diagonal norm is still above
    tol * max|h| * n after `max_sweeps` sweeps.
    """
    a = _hermitian_copy(h)
    n = a.shape[0]
    if n == 1:
        return a.real.diagonal().copy()
    target = tol * max(np.abs(a).max(), 1e-300) * n
    sweeps = 0
    while (off := _off_norm(a)) > target:
        if sweeps == max_sweeps:
            raise EvaluationError(
                f"Jacobi eigensolver did not converge in {max_sweeps} sweeps "
                f"(off-diagonal norm {off:.3e}, target {target:.3e})"
            )
        sweeps += 1
        thresh = off / n  # annihilate only pivots that matter this sweep
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 0.05 * thresh:
                    continue
                x, y = _rotation(a[p, p].real, a[q, q].real, apq)
                xc = x.conjugate()
                row_p, row_q = a[p].copy(), a[q]
                a[p] = xc * row_p + y * row_q
                a[q] = x * row_q - y * row_p
                col_p, col_q = a[:, p].copy(), a[:, q]
                a[:, p] = x * col_p + y * col_q
                a[:, q] = xc * col_q - y * col_p
                a[p, q] = 0.0
                a[q, p] = 0.0
    return np.sort(np.diag(a).real)


def min_eigenvalue(h: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix (symmetrized first)."""
    return float(jacobi_eigenvalues(h)[0])


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


def ldl_verdict(g: np.ndarray, tol: float) -> LdlVerdict:
    """Is G >= -tol * (1 + max diagonal) * I?  Decided by factorising.

    LDL^H of A = G + tau I, tau = tol * (1 + max diag G), as n rank-1 Schur
    updates; the verdict passes iff every pivot is > 0, which is the case
    exactly when the least eigenvalue of (the Hermitian part of) G exceeds
    -tau.  No eigenvalue is computed.
    """
    a = _hermitian_copy(g)
    n = a.shape[0]
    shift = tol * (1 + float(np.max(a.diagonal().real)))
    a.flat[:: n + 1] += shift
    for k in range(n):
        d = a[k, k].real
        if not d > 0:
            return _failed_verdict(g, a, k, shift)
        col = a[k + 1 :, k] / d
        a[k + 1 :, k + 1 :] -= np.outer(col, a[k, k + 1 :])
        a[k + 1 :, k] = col  # column k of the unit lower factor L
    return LdlVerdict(True, shift)


def _failed_verdict(g, factored: np.ndarray, k: int, shift: float) -> LdlVerdict:
    """Solve L^H v = e_k over the leading (k + 1) block by back substitution."""
    v = np.zeros(factored.shape[0], dtype=complex)
    v[k] = 1.0
    for i in range(k - 1, -1, -1):
        v[i] = -(factored[i + 1 : k + 1, i].conj() @ v[i + 1 : k + 1])
    gv = np.asarray(g, dtype=complex) @ v
    rayleigh = float(np.vdot(v, gv).real / np.vdot(v, v).real)
    return LdlVerdict(False, shift, k, v, rayleigh)
