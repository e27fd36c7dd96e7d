"""Mobius automorphisms of the disc and Euclidean ball, and quasi-invariance.

The ball involution is phi_a(z) = (a - P_a z - s Q_a z) / (1 - <z, a>) with
s = sqrt(1 - |a|^2), P_a the projection onto span{a} and Q_a = I - P_a; a
unitary factor may be post-composed.  Jacobians are obtained from the jet
engine applied to the map itself, never hand-coded.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .expr import KernelExpr, Curvature, LogHessian
from .geometry import Point, as_point
from .jets import Jet


@dataclass(frozen=True)
class MobiusMap:
    """Ball automorphism z -> U phi_a(z) with base point a and unitary U."""

    a: tuple[complex, ...]
    unitary: np.ndarray | None = None

    def __init__(self, a, unitary=None):
        a = tuple(complex(c) for c in a)
        if math.sqrt(sum(abs(c) ** 2 for c in a)) >= 1:
            raise DomainError("base point must lie inside the unit ball")
        object.__setattr__(self, "a", a)
        m = len(a)
        if unitary is None:
            u = np.eye(m, dtype=complex)
        else:
            u = np.array(unitary, dtype=complex)
            if u.shape != (m, m):
                raise ShapeError("unitary factor has the wrong shape")
            if np.max(np.abs(u @ u.conj().T - np.eye(m))) > 1e-10:
                raise ShapeError("factor is not unitary")
        object.__setattr__(self, "unitary", u)

    @property
    def m(self) -> int:
        return len(self.a)

    def _phi_a(self, coords):
        """The involution phi_a applied to scalars or jets (same arithmetic)."""
        a = self.a
        m = self.m
        norm2 = sum(abs(c) ** 2 for c in a)
        if norm2 == 0:
            # degenerate base point: the identity (convention; still involutive)
            return list(coords)
        s = math.sqrt(1 - norm2)
        ip = coords[0] * a[0].conjugate()
        for k in range(1, m):
            ip = ip + coords[k] * a[k].conjugate()
        denom = (1.0 - ip) ** -1
        proj_scale = ip * (1.0 / norm2)
        out = []
        for k in range(m):
            pk = proj_scale * a[k]
            qk = coords[k] - pk
            out.append((a[k] - pk - s * qk) * denom)
        return out

    def apply(self, z) -> Point:
        """Image of a point of the open unit ball."""
        z = as_point(z, self.m)
        if z.norm() >= 1:
            raise DomainError("point outside the unit ball")
        img = self._phi_a(list(z.coords))
        return Point(self.unitary @ np.array(img, dtype=complex))

    def derivative(self, z) -> np.ndarray:
        """Holomorphic Jacobian (d phi_k / d z_i) via order-1 jets."""
        z = as_point(z, self.m)
        m = self.m
        seeds = [Jet.variable_z(k, z[k], m, 1, 0) for k in range(m)]
        img = self._phi_a(seeds)
        jac = np.empty((m, m), dtype=complex)
        for k in range(m):
            for i in range(m):
                e = tuple(1 if t == i else 0 for t in range(m))
                val = img[k].deriv(e, (0,) * m) if isinstance(img[k], Jet) else (
                    1.0 if k == i else 0.0
                )
                jac[k, i] = val
        return self.unitary @ jac

    def det_derivative(self, z) -> complex:
        return complex(np.linalg.det(self.derivative(z)))

    def log_det_derivative(self, z) -> complex:
        """A branch of log det D phi(z) that is holomorphic on the ball.

        det D phi(z) = det D phi(0) (1 - <z, a>)^-(m+1), and 1 - <z, a> has
        positive real part there, so its principal log never jumps.  The
        principal log of det D phi itself does: det D phi(0) carries the
        sign (-1)^m.
        """
        z = as_point(z, self.m)
        ip = sum(c * ac.conjugate() for c, ac in zip(z.coords, self.a))
        return self._log_det_at_origin - (self.m + 1) * cmath.log(1.0 - ip)

    @functools.cached_property
    def _log_det_at_origin(self) -> complex:
        return cmath.log(self.det_derivative((0.0,) * self.m))

    def to_json(self) -> str:
        return json.dumps(
            {
                "a": [[c.real, c.imag] for c in self.a],
                "U": [
                    [[v.real, v.imag] for v in row] for row in np.asarray(self.unitary)
                ],
            }
        )


@dataclass(frozen=True)
class CocycleSpec:
    """Cocycle for quasi-invariance residuals.

    det_jacobian_power(t): J(phi, z) = (det D phi(z))^t, scalar.
    curvature_cocycle(t):  J(phi, z) = (det D phi(z))^t D phi(z)^tr, m x m.
    """

    kind: str
    t: float = 1.0

    def __post_init__(self):
        if self.kind not in ("det_jacobian_power", "curvature_cocycle"):
            raise ShapeError(f"unknown cocycle kind {self.kind!r}")

    def matrix(self, phi: MobiusMap, z, size: int) -> np.ndarray:
        jac = phi.derivative(z)
        if self.t == int(self.t):
            scal = complex(np.linalg.det(jac)) ** int(self.t)
        else:
            scal = cmath.exp(self.t * phi.log_det_derivative(z))
        if self.kind == "det_jacobian_power":
            return scal * np.eye(size, dtype=complex)
        if size != phi.m:
            raise ShapeError("curvature cocycle needs an m x m kernel")
        return scal * jac.T


def quasi_invariance_residual(
    expr: KernelExpr, cocycle: CocycleSpec, phi: MobiusMap, pairs
) -> float:
    """Max relative residual of J(z) K(phi z, phi w) J(w)^* = K(z, w)."""
    if phi.m != expr.m:
        raise ShapeError("map and kernel dimensions differ")
    worst = 0.0
    for z, w in pairs:
        z = as_point(z, expr.m)
        w = as_point(w, expr.m)
        jz = cocycle.matrix(phi, z, expr.size)
        jw = cocycle.matrix(phi, w, expr.size)
        lhs = jz @ expr.eval(phi.apply(z), phi.apply(w)) @ jw.conj().T
        rhs = expr.eval(z, w)
        res = np.linalg.norm(lhs - rhs) / (1 + np.linalg.norm(rhs))
        worst = max(worst, res)
    return worst


def curvature_quasi_check(base: KernelExpr, t: float, phi: MobiusMap, pairs) -> float:
    """Residual of the transformation rule for K^t (d dbar log K).

    The cocycle is (det D phi)^t D phi^tr; t = 0 reduces to the log-Hessian
    transformation rule alone.
    """
    if not base.is_scalar:
        raise ShapeError("needs a scalar base kernel")
    if t == 0:
        expr: KernelExpr = LogHessian(base)
    elif t > 0:
        expr = Curvature(base, t / 2, t / 2)
    else:
        raise ShapeError("t must be >= 0")
    return quasi_invariance_residual(expr, CocycleSpec("curvature_cocycle", t), phi, pairs)
