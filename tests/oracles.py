"""Independent cross-checks that only the tests use.

Each oracle computes a quantity that the engine also computes, by another
route: the log-Hessian by the quotient formula from an order-1 jet, and the
explicit ball matrix kernel from its hand-coded closed form, and seeded
sampling by a loop that draws and tests one attempt at a time.
"""

from __future__ import annotations

import numpy as np

from kernelcalc.errors import EvaluationError, ShapeError
from kernelcalc.expr import KernelExpr
from kernelcalc.geometry import DomainSpec, Point, as_point, unit_index


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


def ball_curvature_closed_form(m: int, lam: float, z, w) -> np.ndarray:
    """Hand-coded closed form of the explicit ball matrix kernel.

    Serves as a cross-check against the jet-engine route of the
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


def sample_points_per_attempt(domain: DomainSpec, count: int, seed: int) -> list[Point]:
    """`sample_points` one attempt at a time: m moduli, then m angles, then
    the ball's rejection test."""
    rng = np.random.default_rng(seed)
    r, m = domain.sample_radius, domain.dim
    pts: list[Point] = []
    while len(pts) < count:
        rho = r * np.sqrt(rng.uniform(0, 1, m))
        theta = rng.uniform(0, 2 * np.pi, m)
        z = rho * np.exp(1j * theta)
        if domain.kind == "unit-ball" and np.linalg.norm(z) > r:
            continue
        pts.append(Point(z))
    return pts
