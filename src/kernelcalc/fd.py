"""Cauchy-integral oracle for mixed Wirtinger derivatives.

Independent of the jet engine: K is holomorphic in z and in wbar, so on the
torus z + r e^{i theta}, w + r e^{i phi} it is the Fourier series
sum c_ij r^(|i|+|j|) e^{i(i.theta - j.phi)}, c_ij = d^i dbar^j K / (i! j!)
(Lyness & Moler 1967; Bornemann 2011).  One batch of order-0 values V on N
angles per variable gives every derivative as F V F^H over the node axes,
where row i of F is the DFT row of the multi-index i times i! / (N^m r^|i|);
no jet coefficient is read.  Aliasing folds c_(i+N) onto c_i and falls
like (r/rho)^N for a singularity at distance rho, so a polynomial of degree
< N per variable is exact up to rounding; rounding grows like
eps / r^(|i|+|j|) and does not depend on N.  r = 0.02 keeps rounding small
up to order 2 per group; order 3 would lose two more factors of 1/r, so it
is refused.  At N = 5 aliasing is (r/rho)^5, 3e-4 at rho = 0.1, and nested
disc trees with a zero of an inner kernel that close missed 1e-6 at up to
a third of their pairs.  So N = 16 at m = 1, where the 256 values cost
about what 25 do and (r/rho)^16 is 7e-12 at rho = 0.1.  At m >= 2 the
N^(2m) values grow fast and N stays 5 (battery worst 8.6e-8 against the
jet engine, bound 1e-6).
"""

from __future__ import annotations

import functools
from itertools import product
from math import factorial, prod

import numpy as np

from .errors import DomainError
from .expr import JetTable, KernelExpr
from .geometry import graded_lex_tuples, point_array, point_coords
from .params import checked

_RADIUS = 0.02  # radius of the torus


def _nodes(m: int) -> int:
    """N, the angles per variable of the torus in C^m."""
    return 16 if m == 1 else 5


@functools.cache
def _torus(m: int, order: int) -> tuple:
    """The N^m node offsets in C^m, the (n, N^m) matrix F of scaled DFT
    rows, F[a, p] = i! e^(-2 pi i (i . k_p) / N) / (N^m r^|i|) for the a-th
    multi-index i in graded lex order and the angle indices k_p of node p,
    and F^H; shared: do not modify."""
    big_n = _nodes(m)
    nodes = np.array(list(product(range(big_n), repeat=m)))
    offsets = _RADIUS * np.exp(2j * np.pi * nodes / big_n)
    indices = np.array(graded_lex_tuples(m, order))
    twiddles = np.exp(-2j * np.pi * np.arange(big_n) / big_n)
    scale = [prod(map(factorial, i)) / (big_n**m * _RADIUS ** sum(i)) for i in indices]
    rows = twiddles[indices @ nodes.T % big_n] * np.array(scale)[:, None]
    return offsets, rows, rows.conj().T


def _fd_derivatives(expr: KernelExpr, z, w, order: int) -> np.ndarray:
    """The derivatives as one (n, n, k, k) array, entry (a, b) for the a-th
    and b-th multi-indices i, j in graded lex order."""
    if order > 2:
        raise ValueError("finite-difference oracle supports order <= 2 per variable")
    m = expr.m
    offsets, rows, rows_h = _torus(m, order)
    n = len(offsets)
    pair = point_array([z, w], m)
    zs, ws = pair[:, None] + offsets
    try:
        vals = expr.values(np.repeat(zs, n, 0), np.tile(ws, (n, 1)))
    except DomainError:
        z, w = map(point_coords, pair)
        raise DomainError(f"the torus of radius {_RADIUS} about the pair ({z}, {w}) leaves "
                          f"the domain of {expr.to_dsl()}") from None
    # np.tensordot's two products with its layouts: (a, q, k k), (a k k, b)
    half = np.dot(rows, vals.reshape(n, -1)).reshape(len(rows), n, -1)
    coeffs = np.dot(half.transpose(0, 2, 1).reshape(-1, n), rows_h)
    return coeffs.reshape(len(rows), *vals.shape[1:], -1).transpose(0, 3, 1, 2)


def fd_jet_table(expr: KernelExpr, z, w, order: int) -> JetTable:
    """The mixed derivatives up to `order` per group, from the torus; an
    order that is not a non-negative integer is refused as in `eval_jets`,
    and a pair whose torus leaves the domain (DomainError)."""
    order = checked("non_negative_int", order, "order")
    return JetTable(order, expr.m, expr.size, _fd_derivatives(expr, z, w, order))


def fd_relative_error(expr: KernelExpr, z, w, order: int) -> float:
    """Worst entrywise deviation between the jet engine and the oracle,
    relative to the scale of the jet table."""
    table = expr.eval_jet(z, w, order).derivatives
    numeric = fd_jet_table(expr, z, w, order).derivatives
    scale = max(float(np.abs(table).max()), 1.0)
    return float(np.abs(numeric - table).max()) / scale
