"""Independent references for every benchmark task.

Nothing here calls kernelcalc's jet engine, its eigensolver or its kernel
evaluation.  Kernels are written out in closed form with numpy, spectra
come from LAPACK (`numpy.linalg.eigvalsh`), and jet tables come from the
power series of (1 - <z, w>)^(-lam) or from its Taylor coefficients at the
origin.  Point sets are taken as given (they are the task's input).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

import numpy as np

# ---------------------------------------------------------------------------
# closed-form kernels, keyed by canonical DSL string
# ---------------------------------------------------------------------------


def _u(z, w):
    return complex(np.dot(z, np.conj(w)))


def _szego(z, w):
    return np.array([[1.0 / (1.0 - z[0] * np.conj(w[0]))]])


def _ball_power(lam):
    return lambda z, w: np.array([[(1.0 - _u(z, w)) ** (-lam)]])


def _ball_curvature(lam):
    def k(z, w):
        m = len(z)
        u = _u(z, w)
        e = np.empty((m, m), dtype=complex)
        for i in range(m):
            for j in range(m):
                if i == j:
                    e[i, j] = 1.0 - (u - z[i] * np.conj(w[i]))
                else:
                    e[i, j] = z[j] * np.conj(w[i])
        return (1.0 - u) ** (-lam) * e

    return k


def _ball_power_curvature(lam, power):
    """K^power (d_i dbar_j log K) for K = (1 - <z,w>)^(-lam)."""

    def k(z, w):
        m = len(z)
        u = _u(z, w)
        hess = lam * (
            np.eye(m) * (1.0 - u) + np.outer(np.conj(w), z)
        ) / (1.0 - u) ** 2
        return (1.0 - u) ** (-lam * power) * hess

    return k


def _szego_jet1(z, w):
    x = z[0] * np.conj(w[0])
    k = 1.0 / (1.0 - x)
    dz = np.conj(w[0]) / (1.0 - x) ** 2
    dw = z[0] / (1.0 - x) ** 2
    dzdw = (1.0 + x) / (1.0 - x) ** 3
    return k * np.array([[k, dw], [dz, dzdw]])


def _diag_series_curvature(a1, a2, power):
    """K^power (d dbar log K) for K = 1 + a1 x + a2 x^2, x = z wbar."""

    def k(z, w):
        x = z[0] * np.conj(w[0])
        kk = 1.0 + a1 * x + a2 * x * x
        d1 = (a1 + 2 * a2 * x) / kk
        d2 = 2 * a2 / kk - d1 * d1
        return np.array([[kk**power * (d1 + x * d2)]])

    return k


CLOSED_FORMS = {
    "szego_disc()": _szego,
    "ball_power(1, 2.0)": _ball_power(2.0),
    "ball_power(2, 3.0)": _ball_power(3.0),
    "ball_curvature(2, 1.5)": _ball_curvature(1.5),
    "curvature(ball_power(2, 3.0), 1.0, 1.0)": _ball_power_curvature(3.0, 2.0),
    "jet(szego_disc(), szego_disc(), 1)": _szego_jet1,
    "curvature(diagonal_series([1.0, 0.1]), 0.5, 0.5)": _diag_series_curvature(
        1.0, 0.1, 1.0
    ),
}


def closed_form_gram(dsl: str, points) -> np.ndarray:
    """Hermitian block Gram matrix of a closed-form kernel on `points`."""
    kern = CLOSED_FORMS[dsl]
    pts = [np.asarray(p, dtype=complex) for p in points]
    blocks = [[kern(zp, zq) for zq in pts] for zp in pts]
    g = np.block(blocks)
    return (g + g.conj().T) / 2


def lapack_verdict(g: np.ndarray, tol: float) -> tuple[float, float, bool]:
    """(min eigenvalue, max diagonal, psd) with kernelcalc's documented rule."""
    mineig = float(np.linalg.eigvalsh(g)[0])
    maxdiag = float(np.max(np.diag(g).real))
    return mineig, maxdiag, mineig >= -tol * (1 + maxdiag)


def multiplier_bisection(
    dsl: str, families, tol: float, resolution: float = 0.01, c_max: float = 10.0
) -> float:
    """Multiplier bound of z1 by the documented bisection, on LAPACK verdicts."""
    grams = []
    for pts in families:
        g = closed_form_gram(dsl, pts)
        vals = np.array([complex(p[0]) for p in pts])
        grams.append((g, vals))

    def is_psd(c):
        for g, vals in grams:
            mod = c * c - np.outer(vals, vals.conj())
            if not lapack_verdict(mod * g, tol)[2]:
                return False
        return True

    hi = 1.0
    while not is_psd(hi):
        hi *= 2.0
        if hi > c_max:
            raise ValueError("no bound below c_max")
    lo = 0.0
    while hi - lo > resolution:
        mid = (lo + hi) / 2
        if is_psd(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# jet tables from power series
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _multi_indices(m: int, max_order: int) -> np.ndarray:
    return np.array(
        [a for a in product(range(max_order + 1), repeat=m) if sum(a) <= max_order],
        dtype=np.int64,
    )


def multi_indices(m: int, max_order: int) -> list[tuple[int, ...]]:
    """All multi-indices of C^m with |a| <= max_order, as tuples of ints."""
    return [tuple(int(x) for x in a) for a in _multi_indices(m, max_order)]


def _shifted_monomials(alpha: np.ndarray, x: np.ndarray, shifts) -> np.ndarray:
    """Column k: d^shifts[k] x^alpha = alpha!/(alpha-i)! x^(alpha-i), 0 where
    alpha < i, for every row alpha."""
    powers = [xk ** np.arange(int(alpha.max()) + 1) for xk in x]
    out = np.zeros((len(alpha), len(shifts)), dtype=complex)
    for col, i in enumerate(shifts):
        ok = np.all(alpha >= np.array(i), axis=1)
        a = alpha[ok]
        val = np.ones(len(a), dtype=complex)
        for k, ik in enumerate(i):
            for t in range(ik):
                val *= a[:, k] - t
            val *= powers[k][a[:, k] - ik]
        out[ok, col] = val
    return out


def _pochhammer_over_factorial(lam: float, alpha: np.ndarray) -> np.ndarray:
    """(lam)_{|alpha|} / alpha! for every row of alpha."""
    top = int(alpha.max())
    rising = np.cumprod(np.concatenate([[1.0], lam + np.arange(alpha.sum(axis=1).max())]))
    factorial = np.cumprod(np.concatenate([[1.0], np.arange(1, top + 1)]))
    return rising[alpha.sum(axis=1)] / np.prod(factorial[alpha], axis=1)


def ball_power_table(m: int, lam: float, z, w, rows, cols, terms: int = 40) -> dict:
    """d_z^i dbar_w^j (1 - <z,w>)^(-lam) for i in `rows`, j in `cols`.

    Sums the series sum_alpha (lam)_{|alpha|} z^alpha wbar^alpha / alpha!
    differentiated termwise, over |alpha| <= terms.  The tail is below
    1e-11 of the table's scale when |<z, w>| <= 0.1 and lam <= 10.
    """
    alpha = _multi_indices(m, terms)
    coef = _pochhammer_over_factorial(lam, alpha)
    zs = _shifted_monomials(alpha, np.asarray(z, dtype=complex), rows)
    ws = _shifted_monomials(alpha, np.conj(np.asarray(w, dtype=complex)), cols)
    table = zs.T @ (coef[:, None] * ws)
    return {
        (tuple(i), tuple(j)): complex(table[r, c])
        for r, i in enumerate(rows)
        for c, j in enumerate(cols)
    }


def ball_curvature_origin_table(m: int, lam: float, order: int) -> dict:
    """Jet table of ball_curvature(m, lam) at z = w = 0, from its Taylor
    coefficients.

    K = (1 - <z,w>)^(-lam) E with E_rr = 1 - sum_{k != r} z_k wbar_k and
    E_rs = z_s wbar_r; P = sum_alpha (lam)_{|alpha|}/alpha! z^alpha wbar^alpha.
    """

    def p_coef(a):
        if min(a) < 0:
            return 0.0
        return math.exp(
            math.lgamma(lam + sum(a)) - math.lgamma(lam) - sum(math.lgamma(x + 1) for x in a)
        )

    idx = multi_indices(m, order)
    out = {}
    for a in idx:
        for b in idx:
            mat = np.zeros((m, m), dtype=complex)
            for r in range(m):
                for s in range(m):
                    if r == s:
                        if a != b:
                            continue
                        c = p_coef(a)
                        for k in range(m):
                            if k != r and a[k] >= 1:
                                c -= p_coef(tuple(x - (t == k) for t, x in enumerate(a)))
                    else:
                        alpha = tuple(x - (t == s) for t, x in enumerate(a))
                        if alpha != tuple(x - (t == r) for t, x in enumerate(b)):
                            continue
                        c = p_coef(alpha)
                    fac = math.prod(math.factorial(x) for x in a + b)
                    mat[r, s] = c * fac
            out[(a, b)] = mat
    return out


def section_norm(lam: float) -> float:
    """Norm of the z_2 (x) e_1 section of ball_curvature(m, lam), lam > 2."""
    return math.sqrt((lam - 1) / (lam * (lam - 2)))


def table_error(got: dict, want: dict) -> float:
    """Worst entrywise deviation over the keys of `want`, relative to the
    table's scale (at least 1)."""
    scale = max(1.0, max(float(np.abs(v).max()) for v in want.values()))
    worst = 0.0
    for key, ref in want.items():
        worst = max(worst, float(np.abs(np.asarray(got[key]) - ref).max()))
    return worst / scale
