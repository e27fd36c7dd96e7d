"""Mobius automorphisms of the disc and Euclidean ball, and quasi-invariance.

The ball involution is phi_a(z) = (a - P_a z - s Q_a z) / (1 - <z, a>) with
s = sqrt(1 - |a|^2), P_a the projection onto span{a} and Q_a = I - P_a
(Rudin, Function Theory in the Unit Ball of C^n, 2.2); a unitary factor U may
be post-composed, and a = 0 gives the identity by convention.  D phi and
det D phi are taken in closed form, so a residual that checks the jet
engine's kernels does not lean on that engine for its cocycle:
    D phi(z) = U (phi_a(z) abar^T - s I - a abar^T / (1 + s)) / (1 - <z, a>),
    det D phi(z) = det U (-1)^m s^(m+1) (1 - <z, a>)^-(m+1).
Images, Jacobians and cocycles take (B, m) arrays of points, so a
quasi-invariance residual evaluates its maps and both kernel sides as one
batch; each is built from coordinate arrays times Python scalars, so a batch
gives the floats of each of its points alone.  Every method refuses a point
outside the open ball.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationError, KernelCalcError, ShapeError
from .expr import KernelExpr, Curvature, LogHessian
from .geometry import Point, in_unit_ball, point_array, point_coords
from .jets import _fail_where
from .params import checked, shown

#: most (z, w) pairs of one quasi-invariance residual: its jets take about
#: 1.4 KB per pair of the disc and 3.5 KB per pair of the ball of C^3, so a
#: `quasi` run at the bound peaks at about 130 and 260 MB
MAX_QUASI_PAIRS = 1 << 16


def check_pair_count(n: int) -> None:
    """Refuse a quasi-invariance residual of more than MAX_QUASI_PAIRS pairs
    (ValueError naming n and the bound): a sampled residual is checked
    before its pairs are drawn."""
    if n > MAX_QUASI_PAIRS:
        raise ValueError(f"a quasi-invariance residual of {shown(n)} pairs is over the "
                         f"bound of {MAX_QUASI_PAIRS}")


@dataclass(frozen=True, eq=False)
class MobiusMap:
    """Ball automorphism z -> U phi_a(z) with base point a and unitary U."""

    a: tuple[complex, ...]
    unitary: np.ndarray | None = None

    def __init__(self, a, unitary=None):
        try:
            m = len(a)
        except TypeError:  # a scalar is a point of C^1
            m = 1
        if not m:
            raise ShapeError("base point needs at least one coordinate")
        try:
            a = tuple(point_array([a], m)[0].tolist())
        except DomainError:
            raise DomainError(f"base point is not a point of C^{m}, got {shown(a)}") from None
        norm2 = sum(abs(c) ** 2 for c in a)
        if not math.sqrt(norm2) < 1:  # NaN compares false
            raise DomainError("base point must lie inside the unit ball")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "_norm2", norm2)
        object.__setattr__(self, "_s", math.sqrt(1 - norm2))
        if unitary is None:
            u = np.eye(m, dtype=complex)
        else:
            try:
                u = np.array(unitary, dtype=complex)
            except (TypeError, ValueError, OverflowError):
                u = None
            if u is None or u.shape != (m, m):
                raise ShapeError(f"unitary factor must be a numeric {m} x {m} array, "
                                 f"got {shown(unitary)}")
            if not np.isfinite(u).all() or np.max(np.abs(u @ u.conj().T - np.eye(m))) > 1e-10:
                raise ShapeError("factor is not unitary")
        object.__setattr__(self, "unitary", u)

    @property
    def m(self) -> int:
        return len(self.a)

    def _points(self, zs) -> np.ndarray:
        """The (B, m) array of points of the open ball that every method takes."""
        zs = point_array(zs, self.m)
        if not in_unit_ball(zs).all():
            raise DomainError("point outside the unit ball")
        return zs

    def _inner(self, zs):
        """<z, a> at each point of a (B, m) array."""
        return functools.reduce(np.add, [zs[:, k] * c.conjugate() for k, c in enumerate(self.a)])

    def _phi_a(self, zs):
        """The involution phi_a at a (B, m) array, as a list of coordinate
        arrays, and 1 / (1 - <z, a>); the identity and None at a = 0 (not
        at a tiny a whose |a|^2 underflows to 0)."""
        coords = [zs[:, k] for k in range(self.m)]
        if not any(self.a):
            return coords, None
        ip = self._inner(zs)
        denom = (1.0 - ip) ** -1
        if self._s == 1.0:  # then P_a z + s Q_a z = z, and 1 / |a|^2 may overflow
            return [(ak - coords[k]) * denom for k, ak in enumerate(self.a)], denom
        proj_scale = ip * (1.0 / self._norm2)
        out = []
        for k, ak in enumerate(self.a):
            pk = proj_scale * ak
            out.append((ak - pk - self._s * (coords[k] - pk)) * denom)
        return out, denom

    def images(self, zs) -> np.ndarray:
        """Images of a (B, m) array of points of the open unit ball, point by point."""
        zs = self._points(zs)
        img = np.stack(self._phi_a(zs)[0], axis=-1)
        return (self.unitary @ img[..., None])[..., 0]

    def apply(self, z) -> Point:
        """Image of a point of the open unit ball."""
        return Point(self.images([z])[0])

    def jacobians(self, zs) -> np.ndarray:
        """Holomorphic Jacobians (d phi_k / d z_i) at a (B, m) array of
        points, from the closed form of the module docstring."""
        zs = self._points(zs)
        img, denom = self._phi_a(zs)
        jac = np.zeros((len(zs), self.m, self.m), dtype=complex)
        if denom is None:
            return self.unitary @ (jac + np.eye(self.m))
        s = self._s
        for i, c in enumerate(ai.conjugate() for ai in self.a):
            for k, ak in enumerate(self.a):
                jac[:, k, i] = (img[k] * c - (ak * c / (1 + s) + s * (k == i))) * denom
        return self.unitary @ jac

    def derivative(self, z) -> np.ndarray:
        """Holomorphic Jacobian (d phi_k / d z_i) at one point."""
        return self.jacobians([z])[0]

    def log_det_derivatives(self, zs) -> np.ndarray:
        """A branch of log det D phi that is holomorphic on the ball, at a
        (B, m) array of points: log det D phi(0) - (m+1) log(1 - <z, a>).

        1 - <z, a> has positive real part there, so its principal log never
        jumps.  The principal log of det D phi itself does: det D phi(0)
        carries the sign (-1)^m.
        """
        zs = self._points(zs)
        return self._log_det_at_origin - (self.m + 1) * np.log(1.0 - self._inner(zs))

    @functools.cached_property
    def _log_det_at_origin(self) -> complex:
        """log(det U (-1)^m s^(m+1)), and log det U at a = 0."""
        det_phi_a = (-1) ** self.m * self._s ** (self.m + 1) if any(self.a) else 1
        return cmath.log(np.linalg.det(self.unitary) * det_phi_a)

    def to_dict(self) -> dict:
        return {
            "a": [[c.real, c.imag] for c in self.a],
            "U": [[[v.real, v.imag] for v in row] for row in np.asarray(self.unitary)],
        }


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
        checked("finite", self.t, "t")

    def matrices(self, phi: MobiusMap, zs, size: int) -> np.ndarray:
        """J(phi, z) at a (B, m) array of points, as a (B, size, size) array."""
        if self.kind == "curvature_cocycle" and size != phi.m:
            raise ShapeError("curvature cocycle needs an m x m kernel")
        zs = phi._points(zs)
        with np.errstate(all="ignore"):
            scal = np.exp(self.t * phi.log_det_derivatives(zs))
        _fail_where(~np.isfinite(scal), EvaluationError, lambda i: (
            f"cocycle (det D phi)^{self.t} is not finite at point {point_coords(zs[i])}"))
        if self.kind == "det_jacobian_power":
            return scal[:, None, None] * np.eye(size, dtype=complex)
        return scal[:, None, None] * phi.jacobians(zs).transpose(0, 2, 1)

    def matrix(self, phi: MobiusMap, z, size: int) -> np.ndarray:
        """J(phi, z) at one point."""
        return self.matrices(phi, [z], size)[0]


def quasi_invariance_residual(
    expr: KernelExpr, cocycle: CocycleSpec, phi: MobiusMap, pairs
) -> float:
    """Max relative residual of J(z) K(phi z, phi w) J(w)^* = K(z, w), from one
    batch of the 2B points (z first) and one of the 2B pairs (moved first).
    An entry of `pairs` that is not a (z, w) pair is refused (ShapeError
    naming it), and one whose z or w is not a point of the open ball
    (DomainError naming the entry and the side), as are more than
    MAX_QUASI_PAIRS pairs (`check_pair_count`), by their length if they have
    one, before an entry is read, else once an entry past the bound is."""
    if phi.m != expr.m:
        raise ShapeError("map and kernel dimensions differ")
    if hasattr(pairs, "__len__"):
        check_pair_count(len(pairs))
    zs, ws = [], []
    for i, entry in enumerate(itertools.islice(pairs, MAX_QUASI_PAIRS + 1)):
        try:
            z, w = entry
        except (TypeError, ValueError):
            raise ShapeError(
                f"pairs entry {i} is not a (z, w) pair, got {shown(entry)}") from None
        zs.append(z)
        ws.append(w)
    if not zs:
        return 0.0
    b = len(zs)
    check_pair_count(b)
    try:
        pts = point_array(zs + ws, expr.m)
        j = cocycle.matrices(phi, pts, expr.size)
    except DomainError:  # the batch names a row or no point at all
        _refuse_by_entry(zs, ws, expr.m)
        raise
    img = phi.images(pts)
    try:
        vals = expr.values(np.concatenate([img[:b], pts[:b]]), np.concatenate([img[b:], pts[b:]]))
    except KernelCalcError:  # name the pair each side's own call names
        expr.values(img[:b], img[b:])
        expr.values(pts[:b], pts[b:])
        raise
    # a residual past the float range is refused, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        lhs, rhs = j[:b] @ vals[:b] @ j[b:].conj().transpose(0, 2, 1), vals[b:]
        res = np.linalg.norm(lhs - rhs, axis=(1, 2)) / (1 + np.linalg.norm(rhs, axis=(1, 2)))
    _fail_where(~np.isfinite(res), EvaluationError, lambda i: (
        f"the residual is not finite at pair ({point_coords(pts[i[0]])}, "
        f"{point_coords(pts[b + i[0]])})"))
    return float(res.max())


def _refuse_by_entry(zs: list, ws: list, m: int) -> None:
    """Raise DomainError naming the first entry of `pairs` whose z or w is
    not a point of the open unit ball of C^m, by entry, not by batch row."""
    for i, pair in enumerate(zip(zs, ws)):
        for side, p in zip("zw", pair):
            try:
                point = point_array([p], m)
            except DomainError:
                raise DomainError(
                    f"pairs entry {i}: {side} is not a point of C^{m}, got {shown(p)}") from None
            if not in_unit_ball(point)[0]:  # NaN is outside
                raise DomainError(f"pairs entry {i}: {side} = {point_coords(point[0])} "
                                  "lies outside the unit ball")


def curvature_quasi_check(base: KernelExpr, t: float, phi: MobiusMap, pairs) -> float:
    """Residual of the transformation rule for K^t (d dbar log K).

    The cocycle is (det D phi)^t D phi^tr; t = 0 reduces to the log-Hessian
    transformation rule alone.
    """
    if not base.is_scalar:
        raise ShapeError("needs a scalar base kernel")
    if checked("finite", t, "t") == 0:
        expr: KernelExpr = LogHessian(base)
    elif t > 0:
        expr = Curvature(base, t / 2, t / 2)
    else:
        raise ShapeError("t must be >= 0")
    return quasi_invariance_residual(expr, CocycleSpec("curvature_cocycle", t), phi, pairs)
