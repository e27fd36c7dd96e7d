"""Closed forms and jet identities for the derived kernels.

The curvature kernel and jet kernel are AST nodes (see expr); this module
adds the quotient-formula evaluation of the log-Hessian, the Gram-vector
expansion that factorizes the curvature kernel, the hand-coded closed form
of the explicit ball matrix kernel, and the leading diagonal Taylor
coefficients used by the positivity counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ShapeError
from .expr import DiagonalSeries, KernelExpr, LogHessian, Pow, Product
from .geometry import as_point, unit_index


@dataclass(frozen=True)
class CurvatureParams:
    """Positive exponent pair (alpha, beta) of the curvature construction."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("alpha and beta must be positive")


def log_hessian_eval(expr: KernelExpr, z, w) -> np.ndarray:
    """(K d_i dbar_j K - d_i K dbar_j K) / K^2 assembled from an order-1 jet."""
    if not expr.is_scalar:
        raise ShapeError("log_hessian_eval needs a scalar kernel")
    m = expr.m
    table = expr.eval_jet(z, w, 1)
    k = table.value[0, 0]
    if k == 0:
        raise EvaluationError("kernel vanishes at the requested pair")
    out = np.empty((m, m), dtype=complex)
    zero = (0,) * m
    for i in range(m):
        ei = unit_index(m, i)
        for j in range(m):
            ej = unit_index(m, j)
            kij = table.entry(ei, ej)[0, 0]
            ki = table.entry(ei, zero)[0, 0]
            kj = table.entry(zero, ej)[0, 0]
            out[i, j] = (k * kij - ki * kj) / (k * k)
    return out


def phi_gram_entry(
    expr: KernelExpr, params: CurvatureParams, z, w, i: int, j: int
) -> complex:
    """Inner product of the factorizing Gram vectors, from jets of K^a and K^b.

    Computed as b^2 d_i dbar_j K^a * K^b + a^2 K^a * d_i dbar_j K^b
    - a b (d_i K^a dbar_j K^b + dbar_j K^a d_i K^b); equals
    a b (a+b) times the (i, j) curvature entry.
    """
    if not expr.is_scalar:
        raise ShapeError("phi_gram_entry needs a scalar kernel")
    m = expr.m
    if not (0 <= i < m and 0 <= j < m):
        raise ValueError("indices out of range")
    a, b = params.alpha, params.beta
    ka = Pow(expr, a).eval_jet(z, w, 1)
    kb = Pow(expr, b).eval_jet(z, w, 1)
    zero = (0,) * m
    ei, ej = unit_index(m, i), unit_index(m, j)

    def entry(tab, di, dj):
        return tab.entry(di, dj)[0, 0]

    return (
        b * b * entry(ka, ei, ej) * entry(kb, zero, zero)
        + a * a * entry(ka, zero, zero) * entry(kb, ei, ej)
        - a
        * b
        * (
            entry(ka, ei, zero) * entry(kb, zero, ej)
            + entry(ka, zero, ej) * entry(kb, ei, zero)
        )
    )


def ball_curvature_closed_form(m: int, lam: float, z, w) -> np.ndarray:
    """Hand-coded closed form of the explicit ball matrix kernel.

    Serves as a mutual cross-check against the jet-engine route of the
    BallCurvature AST node.
    """
    if m < 2:
        raise ShapeError("closed form defined for dimension >= 2")
    z = as_point(z, m).array()
    w = as_point(w, m).array()
    ip = complex(np.dot(z, w.conj()))
    if ip == 1:
        raise EvaluationError("singular prefactor: <z, w> = 1")
    out = np.empty((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            if i == j:
                out[i, j] = 1 - sum(
                    z[k] * w[k].conjugate() for k in range(m) if k != i
                )
            else:
                out[i, j] = z[j] * w[i].conjugate()
    return out / (1 - ip) ** lam


def series_head_coefficients(coefficients, t: float) -> tuple[float, float]:
    """First two diagonal Taylor coefficients of K^t (d dbar log K).

    K = 1 + sum a_n z^n wbar^n on the disc.  The values are read off the
    order-1 jet table of product(pow(K, t), log_hessian(K)) at the origin,
    not from the closed form a_1, 4 a_2 + (t-2) a_1^2.
    """
    k = DiagonalSeries(list(coefficients))
    table = Product(Pow(k, t), LogHessian(k)).eval_jet(0.0, 0.0, 1)
    return (table.value[0, 0].real, table.entry((1,), (1,))[0, 0].real)
