"""Mobius automorphisms of the disc and Euclidean ball, and quasi-invariance.

The ball involution is phi_a(z) = (a - P_a z - s Q_a z) / (1 - <z, a>) with
s = sqrt(1 - |a|^2), P_a the projection onto span{a} and Q_a = I - P_a; a
unitary factor may be post-composed.  Jacobians are obtained from the jet
engine applied to the map itself, never hand-coded.  Images, Jacobians and
cocycles take (B, m) arrays of points, so a quasi-invariance residual
evaluates its maps and both kernel sides as whole batches.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationError, ShapeError
from .expr import KernelExpr, Curvature, LogHessian
from .geometry import Point, as_point, in_unit_ball, point_array, unit_index
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

    def images(self, zs) -> np.ndarray:
        """Images of a (B, m) array of points of the open unit ball."""
        zs = point_array(zs, self.m)
        if not in_unit_ball(zs).all():
            raise DomainError("point outside the unit ball")
        img = np.stack(self._phi_a([zs[:, k] for k in range(self.m)]), axis=-1)
        return img @ self.unitary.T

    def apply(self, z) -> Point:
        """Image of a point of the open unit ball."""
        return Point(self.images([as_point(z, self.m)])[0])

    def jacobians(self, zs) -> np.ndarray:
        """Holomorphic Jacobians (d phi_k / d z_i) at a (B, m) array of
        points, via order-1 jets."""
        zs = point_array(zs, self.m)
        m = self.m
        img = self._phi_a([Jet.variable_z(k, zs[:, k], m, 1, 0) for k in range(m)])
        zero = (0,) * m
        jac = np.stack(
            [np.stack([img[k].deriv(unit_index(m, i), zero) for i in range(m)], axis=-1)
             for k in range(m)],
            axis=-2,
        )
        return self.unitary @ jac

    def derivative(self, z) -> np.ndarray:
        """Holomorphic Jacobian (d phi_k / d z_i) at one point."""
        return self.jacobians([as_point(z, self.m)])[0]

    def log_det_derivatives(self, zs) -> np.ndarray:
        """A branch of log det D phi that is holomorphic on the ball, at a
        (B, m) array of points.

        det D phi(z) = det D phi(0) (1 - <z, a>)^-(m+1), and 1 - <z, a> has
        positive real part there, so its principal log never jumps.  The
        principal log of det D phi itself does: det D phi(0) carries the
        sign (-1)^m.
        """
        ip = point_array(zs, self.m) @ np.conj(np.array(self.a))
        return self._log_det_at_origin - (self.m + 1) * np.log(1.0 - ip)

    @functools.cached_property
    def _log_det_at_origin(self) -> complex:
        return cmath.log(np.linalg.det(self.jacobians(np.zeros((1, self.m)))[0]))

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

    def matrices(self, phi: MobiusMap, zs, size: int) -> np.ndarray:
        """J(phi, z) at a (B, m) array of points, as a (B, size, size) array."""
        if self.kind == "curvature_cocycle" and size != phi.m:
            raise ShapeError("curvature cocycle needs an m x m kernel")
        zs = point_array(zs, phi.m)
        jac = phi.jacobians(zs)
        with np.errstate(all="ignore"):
            if float(self.t).is_integer():
                scal = np.linalg.det(jac) ** self.t
            else:
                scal = np.exp(self.t * phi.log_det_derivatives(zs))
        if not np.isfinite(scal).all():
            p = int(np.argmax(~np.isfinite(scal)))
            raise EvaluationError(
                f"cocycle (det D phi)^{self.t} is not finite at point "
                f"{tuple(complex(c) for c in zs[p])}"
            )
        if self.kind == "det_jacobian_power":
            return scal[:, None, None] * np.eye(size, dtype=complex)
        return scal[:, None, None] * jac.transpose(0, 2, 1)

    def matrix(self, phi: MobiusMap, z, size: int) -> np.ndarray:
        """J(phi, z) at one point."""
        return self.matrices(phi, [as_point(z, phi.m)], size)[0]


def quasi_invariance_residual(
    expr: KernelExpr, cocycle: CocycleSpec, phi: MobiusMap, pairs
) -> float:
    """Max relative residual of J(z) K(phi z, phi w) J(w)^* = K(z, w)."""
    if phi.m != expr.m:
        raise ShapeError("map and kernel dimensions differ")
    pairs = list(pairs)
    if not pairs:
        return 0.0
    zs = point_array([z for z, _ in pairs], expr.m)
    ws = point_array([w for _, w in pairs], expr.m)
    jz = cocycle.matrices(phi, zs, expr.size)
    jw = cocycle.matrices(phi, ws, expr.size)
    moved = expr.values(phi.images(zs), phi.images(ws))
    rhs = expr.values(zs, ws)
    lhs = jz @ moved @ jw.conj().transpose(0, 2, 1)
    res = np.linalg.norm(lhs - rhs, axis=(1, 2)) / (1 + np.linalg.norm(rhs, axis=(1, 2)))
    return float(res.max())


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
