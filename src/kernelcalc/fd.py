"""Finite-difference oracle for mixed Wirtinger derivatives.

Independent of the jet engine: derivatives of eval(expr, ., .) are taken by
fourth-order central stencils in the holomorphic variables z_i and the
conjugated variables (varying w along the real axis differentiates with
respect to wbar).  All stencil nodes for one pair live on a shared tensor
grid, evaluated as one batch of order-0 kernel values, so the oracle never
reads a jet coefficient.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .expr import KernelExpr
from .geometry import as_point, graded_lex_tuples

# 4th-order central stencils on offsets -2..2 (times 1/h, 1/h^2)
_STENCILS = {
    0: {0: 1.0},
    1: {-2: 1 / 12, -1: -8 / 12, 1: 8 / 12, 2: -1 / 12},
    2: {-2: -1 / 12, -1: 16 / 12, 0: -30 / 12, 1: 16 / 12, 2: -1 / 12},
}


def _grid_values(expr: KernelExpr, z, w, h: float) -> dict:
    """Kernel values on the tensor grid z + h*o_z, w + h*o_w, offsets in
    -2..2, evaluated as one batch of order-0 values."""
    m = expr.m
    z = as_point(z, m).array()
    w = as_point(w, m).array()
    offsets = list(product(range(-2, 3), repeat=m))
    grid = h * np.array(offsets)
    n = len(offsets)
    vals = expr.values(np.repeat(z + grid, n, axis=0), np.tile(w + grid, (n, 1)))
    return {
        (oz, ow): vals[a * n + b]
        for a, oz in enumerate(offsets)
        for b, ow in enumerate(offsets)
    }


def _apply_stencil(vals, i, j, m, h: float):
    for e in (*i, *j):
        if e > 2:
            raise ValueError("finite-difference oracle supports order <= 2 per variable")
    acc = None
    axes = [_STENCILS[e] for e in (*i, *j)]
    for combo in product(*[list(s.items()) for s in axes]):
        offs = tuple(c[0] for c in combo)
        coef = 1.0
        for c in combo:
            coef *= c[1]
        key = (offs[:m], offs[m:])
        term = coef * vals[key]
        acc = term if acc is None else acc + term
    return acc / h ** (sum(i) + sum(j))


def fd_jet_table(expr: KernelExpr, z, w, order: int, h: float = 0.02) -> dict:
    """Mixed derivatives up to `order` per group, via Richardson-extrapolated
    central differences; returns {(i, j): k x k matrix}."""
    m = expr.m
    coarse = _grid_values(expr, z, w, h)
    fine = _grid_values(expr, z, w, h / 2)
    indices = graded_lex_tuples(m, order)
    out = {}
    for i in indices:
        for j in indices:
            d_h = _apply_stencil(coarse, i, j, m, h)
            d_h2 = _apply_stencil(fine, i, j, m, h / 2)
            out[(i, j)] = (16.0 * d_h2 - d_h) / 15.0
    return out


def fd_relative_error(expr: KernelExpr, z, w, order: int, h: float = 0.02) -> float:
    """Worst entrywise deviation between the jet engine and the
    finite-difference oracle, relative to the scale of the jet table."""
    table = expr.eval_jet(z, w, order)
    numeric = fd_jet_table(expr, z, w, order, h)
    scale = max(
        (np.abs(mat).max() for mat in table.entries.values()), default=0.0
    )
    scale = max(scale, 1.0)
    worst = 0.0
    for key, ref in table.entries.items():
        worst = max(worst, float(np.abs(numeric[key] - np.asarray(ref)).max()))
    return worst / scale
