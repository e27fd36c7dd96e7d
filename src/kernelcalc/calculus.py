"""Jet identities for the curvature kernel, read off the jet engine.

The curvature kernel K^(a+b) (d dbar log K) and the jet kernel are AST
nodes (see expr).  This module adds two quantities that the `repro` battery
checks against them: the Gram matrix of the phi-sections that factorize
the curvature kernel (`phi_gram`), and the leading diagonal Taylor
coefficients of K^t (d dbar log K) that the positivity counterexample needs
(`series_head_coefficients`).  Independent closed forms that cross-check
the engine live with the tests.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .errors import ShapeError
from .expr import DiagonalSeries, KernelExpr, LogHessian, Pow, Product
from .params import checked


def phi_gram(expr: KernelExpr, alpha: float, beta: float, z, w) -> np.ndarray:
    """The m x m Gram matrix of the factorizing phi-sections at (z, w), from
    one order-1 jet table of K^a and one of K^b.

    Entry (i, j) is b^2 d_i dbar_j K^a * K^b + a^2 K^a * d_i dbar_j K^b
    - a b (d_i K^a dbar_j K^b + dbar_j K^a d_i K^b), summed in that order in
    Python complex arithmetic; it equals a b (a+b) times the (i, j)
    curvature entry.
    """
    checked("finite", alpha, "alpha")
    checked("finite", beta, "beta")
    if not (alpha > 0 and beta > 0):
        raise ValueError("alpha and beta must be positive")
    if not expr.is_scalar:
        raise ShapeError("phi_gram needs a scalar kernel")
    a, b = alpha, beta
    # an order-1 table lists the multi-indices 0, e_1, ..., e_m
    ka, kb = (Pow(expr, t).eval_jet(z, w, 1).derivatives[:, :, 0, 0].tolist() for t in (a, b))
    units = range(1, expr.m + 1)
    return np.array([
        [b * b * ka[i][j] * kb[0][0] + a * a * ka[0][0] * kb[i][j]
         - a * b * (ka[i][0] * kb[0][j] + ka[0][j] * kb[i][0]) for j in units]
        for i in units
    ])


def series_head_coefficients(coefficients, t: float) -> tuple[float, float]:
    """First two diagonal Taylor coefficients of K^t (d dbar log K).

    K = 1 + sum a_n z^n wbar^n on the disc.  The values are read off the
    order-1 jet table of product(pow(K, t), log_hessian(K)) at the origin,
    not from the closed form a_1, 4 a_2 + (t-2) a_1^2.  The coefficients
    (any iterable but a string, read once) and t are checked as the fields
    of their nodes (ShapeError).
    """
    if isinstance(coefficients, Iterable) and not isinstance(coefficients, (str, bytes)):
        coefficients = tuple(coefficients)
    k = DiagonalSeries(coefficients)
    table = Product(Pow(k, t), LogHessian(k)).eval_jet(0.0, 0.0, 1)
    return (table.value[0, 0].real, table.entry((1,), (1,))[0, 0].real)
