"""Finite-difference oracle for mixed Wirtinger derivatives.

Independent of the jet engine: derivatives of eval(expr, ., .) are taken by
fourth-order central stencils in the holomorphic variables z_i and the
conjugated variables (varying w along the real axis differentiates with
respect to wbar).  All stencil nodes for one pair live on a tensor grid,
offsets -2..2 in each of the 2m variables; the grids of both steps (h and
h/2) are one batch of order-0 kernel values, so no jet coefficient is read.

The 2m-variable stencil is the tensor product of the 1-D ones.  With the
offset axes first and the (step, entry) axes last, each offset axis, the
last first, is contracted for both steps by one matmul with the 3 x 5
matrix of 1-D weights for derivative orders 0, 1 and 2, each sum as in a
contraction of one step's grid alone.  Every mixed derivative of order <= 2
per variable is gathered, scaled by h^-(|i| + |j|) and Richardson-extrapolated.
"""

from __future__ import annotations

import functools
from itertools import product

import numpy as np

from .expr import KernelExpr
from .geometry import as_point, graded_lex_tuples

# 4th-order central weights on offsets -2..2, one row per derivative order
# 0, 1, 2 (times 1/h^order)
_WEIGHTS = np.array([[0, 0, 12, 0, 0], [1, -8, 0, 8, -1], [-1, 16, -30, 16, -1]]) / 12


@functools.cache
def _stencil(m: int, order: int) -> tuple:
    """The 5^m grid offsets in C^m, the place of each (i, j) in graded lex order
    among the 3^(2m) derivative orders and |i| + |j|; shared: do not modify."""
    offsets = np.array(list(product(range(-2, 3), repeat=m)))
    indices = graded_lex_tuples(m, order)
    orders = np.array([i + j for i in indices for j in indices])  # 2m orders per (i, j)
    rows = np.ravel_multi_index(tuple(orders.T), (3,) * (2 * m))
    return offsets, rows, orders.sum(axis=1)[:, None, None]


def _fd_derivatives(expr: KernelExpr, z, w, order: int, h: float) -> np.ndarray:
    """The Richardson-extrapolated derivatives as one (N * N, k, k) stack, row
    (a, b) for the a-th and b-th multi-indices i, j in graded lex order."""
    if order > 2:
        raise ValueError("finite-difference oracle supports order <= 2 per variable")
    m = expr.m
    offsets, rows, degree = _stencil(m, order)
    n = len(offsets)
    # nodes z + s*o_z, w + s*o_w in the order (o_z, o_w, s)
    zs, ws = (as_point(p, m).array() + offsets[:, None] * [[h], [h / 2]] for p in (z, w))
    vals = expr.values(np.repeat(zs, n, 0).reshape(-1, m), np.tile(ws, (n, 1, 1)).reshape(-1, m))
    sums, cols = vals, 2 * vals[0].size
    for _ in range(2 * m):  # the last offset axis left becomes an order axis in place
        sums = _WEIGHTS @ sums.reshape(-1, 5, cols)
        cols *= 3
    coarse, fine = np.moveaxis(sums.reshape((-1, 2) + vals.shape[1:])[rows], 1, 0)
    return (16.0 * (fine / (h / 2) ** degree) - coarse / h**degree) / 15.0


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
