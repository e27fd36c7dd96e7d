"""Finite-difference oracle for mixed Wirtinger derivatives.

Independent of the jet engine: derivatives of eval(expr, ., .) are taken by
fourth-order central stencils in the holomorphic variables z_i and the
conjugated variables (varying w along the real axis differentiates with
respect to wbar).  All stencil nodes for one pair live on a shared tensor
grid, offsets -2..2 in each of the 2m variables; the grids of both steps
(h and h/2) are evaluated as one batch of order-0 kernel values, so the
oracle never reads a jet coefficient.

The 2m-variable stencil is the tensor product of the 1-D ones, so the grid
is contracted once along each offset axis with the 3 x 5 matrix of 1-D
weights for derivative orders 0, 1 and 2.  That yields every mixed
derivative of order <= 2 per variable at once; each (i, j) entry is read
off by indexing, scaled by h^-(|i| + |j|) and Richardson-extrapolated.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .expr import KernelExpr
from .geometry import as_point, graded_lex_tuples

# 4th-order central weights on offsets -2..2, one row per derivative order
# 0, 1, 2 (times 1/h^order)
_WEIGHTS = np.array([[0, 0, 12, 0, 0], [1, -8, 0, 8, -1], [-1, 16, -30, 16, -1]]) / 12


def _stencil_sums(expr: KernelExpr, z, w, steps) -> list:
    """Unscaled stencil sums of the kernel values on the grids z + h*o_z,
    w + h*o_w, one per step h, all evaluated as one batch: entry
    [a_1, ..., a_2m] (a k x k matrix) weighs offset axis e by row a_e of
    _WEIGHTS, the z axes first."""
    m = expr.m
    z = as_point(z, m).array()
    w = as_point(w, m).array()
    offsets = np.array(list(product(range(-2, 3), repeat=m)))
    n = len(offsets)
    zs = np.concatenate([np.repeat(z + h * offsets, n, axis=0) for h in steps])
    ws = np.concatenate([np.tile(w + h * offsets, (n, 1)) for h in steps])
    vals = expr.values(zs, ws)
    out = []
    for grid in np.split(vals, len(steps)):
        sums = grid.reshape((5,) * (2 * m) + vals.shape[1:])
        for _ in range(2 * m):  # the last offset axis becomes the first order axis
            sums = np.tensordot(_WEIGHTS, sums, axes=(1, 2 * m - 1))
        out.append(sums)
    return out


def _fd_derivatives(expr: KernelExpr, z, w, order: int, h: float) -> np.ndarray:
    """The Richardson-extrapolated derivatives as one (N * N, k, k) stack, row
    (a, b) for the a-th and b-th multi-indices i, j in graded lex order."""
    if order > 2:
        raise ValueError("finite-difference oracle supports order <= 2 per variable")
    indices = graded_lex_tuples(expr.m, order)
    orders = np.array([i + j for i in indices for j in indices])  # 2m orders per (i, j)
    at = tuple(orders.T)
    degree = orders.sum(axis=1)[:, None, None]
    coarse, fine = _stencil_sums(expr, z, w, (h, h / 2))
    d_h = coarse[at] / h**degree
    d_h2 = fine[at] / (h / 2) ** degree
    return (16.0 * d_h2 - d_h) / 15.0


def fd_jet_table(expr: KernelExpr, z, w, order: int, h: float = 0.02) -> dict:
    """Mixed derivatives up to `order` per group, via Richardson-extrapolated
    central differences; returns {(i, j): k x k matrix}."""
    derivatives = _fd_derivatives(expr, z, w, order, h)
    indices = graded_lex_tuples(expr.m, order)
    return dict(zip([(i, j) for i in indices for j in indices], derivatives))


def fd_relative_error(expr: KernelExpr, z, w, order: int, h: float = 0.02) -> float:
    """Worst entrywise deviation between the jet engine and the
    finite-difference oracle, relative to the scale of the jet table."""
    table = expr.eval_jet(z, w, order).derivatives
    numeric = _fd_derivatives(expr, z, w, order, h).reshape(table.shape)
    scale = max(float(np.abs(table).max()), 1.0)
    return float(np.abs(numeric - table).max()) / scale
