"""Jet identities for the curvature kernel, read off the jet engine.

The curvature kernel K^(a+b) (d dbar log K) and the jet kernel are AST
nodes (see expr).  This module adds two quantities that the `repro` battery
checks against them: the inner product of the Gram vectors that factorize
the curvature kernel (`phi_gram_entry`), and the leading diagonal Taylor
coefficients of K^t (d dbar log K) that the positivity counterexample needs
(`series_head_coefficients`).  Independent closed forms that cross-check
the engine live with the tests.
"""

from __future__ import annotations

from .errors import ShapeError
from .expr import DiagonalSeries, KernelExpr, LogHessian, Pow, Product
from .geometry import unit_index


def phi_gram_entry(
    expr: KernelExpr, alpha: float, beta: float, z, w, i: int, j: int
) -> complex:
    """Inner product of the factorizing Gram vectors, from jets of K^a and K^b.

    Computed as b^2 d_i dbar_j K^a * K^b + a^2 K^a * d_i dbar_j K^b
    - a b (d_i K^a dbar_j K^b + dbar_j K^a d_i K^b); equals
    a b (a+b) times the (i, j) curvature entry.
    """
    if not (alpha > 0 and beta > 0):
        raise ValueError("alpha and beta must be positive")
    if not expr.is_scalar:
        raise ShapeError("phi_gram_entry needs a scalar kernel")
    m = expr.m
    if not (0 <= i < m and 0 <= j < m):
        raise ValueError("indices out of range")
    a, b = alpha, beta
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


def series_head_coefficients(coefficients, t: float) -> tuple[float, float]:
    """First two diagonal Taylor coefficients of K^t (d dbar log K).

    K = 1 + sum a_n z^n wbar^n on the disc.  The values are read off the
    order-1 jet table of product(pow(K, t), log_hessian(K)) at the origin,
    not from the closed form a_1, 4 a_2 + (t-2) a_1^2.
    """
    k = DiagonalSeries(list(coefficients))
    table = Product(Pow(k, t), LogHessian(k)).eval_jet(0.0, 0.0, 1)
    return (table.value[0, 0].real, table.entry((1,), (1,))[0, 0].real)
