"""Kernel expression AST: batched evaluation and Wirtinger jet tables.

Every node denotes a matrix-valued sesqui-analytic kernel on a domain in C^m
(scalars are 1x1).  Evaluation and differentiation both go through one
method per node, `jets(z, w, nz, nw)`: for point arrays z, w of shape
(B, m) it returns one Jet of batch shape (B, k, k), the truncated Taylor
expansions of the node's k x k entries around each base pair (z[p], w[p]),
at exactly the caps (nz, nw).  Leaves seed their own coordinate jets;
combinators build on the jets of their children, so an AST is traversed
once for a whole batch of pairs.  `log_jet` gives the continuous branch of
log K of a size-1 node, so every size-1 node, derived kernels included,
composes under the scalar combinators.

`values(zs, ws)` evaluates B pairs at once; `eval` is its batch of one and
`eval_jet` runs the same arrays at batch size one, so batched and per-pair
values agree bit for bit.  A failing pair (outside the domain, across a
branch cut, not finite) is named in the error.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import BranchError, DomainError, EvaluationError, OrderCapError, ShapeError
from .geometry import as_point, graded_lex_tuples, in_unit_ball, point_array, unit_index
from .jets import Jet, check_finite, variable_jets

#: default cap on the derivative order of eval_jet
DEFAULT_ORDER_CAP = 4


def _coords(row) -> tuple:
    return tuple(complex(c) for c in row)


@contextmanager
def _naming_pairs(zs: np.ndarray, ws: np.ndarray):
    """Evaluate without floating-point warnings; a jet error for batch
    entry p is raised again naming the pair (zs[p], ws[p])."""
    try:
        with np.errstate(all="ignore"):
            yield
    except (BranchError, EvaluationError) as exc:
        if exc.batch_index is None:
            raise
        p = exc.batch_index[0]
        raise type(exc)(f"{exc} at pair ({_coords(zs[p])}, {_coords(ws[p])})") from exc


class KernelExpr:
    """Base class for kernel expression nodes."""

    #: ambient dimension m of the domain
    m: int
    #: output size k (values are k x k matrices; scalars have k = 1)
    size: int = 1

    @property
    def is_scalar(self) -> bool:
        return self.size == 1

    # -- domain --------------------------------------------------------

    def contains(self, p: np.ndarray) -> np.ndarray:
        """Membership of each point of a (..., m) array in the node's
        natural domain."""
        raise NotImplementedError

    def _check_pairs(self, zs: np.ndarray, ws: np.ndarray):
        for pts in (zs, ws):
            outside = ~self.contains(pts)
            if outside.any():
                p = int(np.argmax(outside))
                raise DomainError(
                    f"point {_coords(pts[p])} outside the domain of {self.to_dsl()}"
                )

    # -- jet engine ----------------------------------------------------

    def jets(self, z: np.ndarray, w: np.ndarray, nz: int, nw: int) -> Jet:
        """Entry jets at the pairs (z[p], w[p]), batch (B, k, k), caps (nz, nw)."""
        raise NotImplementedError

    def log_jet(self, z: np.ndarray, w: np.ndarray, nz: int, nw: int) -> Jet:
        """Jet of the continuous branch of log K of a size-1 node, batch (B, 1, 1).

        Nodes with multiplicative structure (powers, products, tensors)
        propagate the branch structurally, so log K stays well defined even
        where the kernel value itself leaves the right half-plane.  The
        default takes the principal log of the 1x1 entry and errors out on
        a branch violation.
        """
        return self.jets(z, w, nz, nw).log()

    # -- public evaluation ----------------------------------------------

    def values(self, zs, ws, log: bool = False) -> np.ndarray:
        """The kernel at the B pairs (zs[p], ws[p]): a (B, k, k) array.

        zs and ws are sequences of points or (B, m) arrays.  With `log`,
        the continuous branch of log K of a size-1 node instead.
        """
        zs, ws = point_array(zs, self.m), point_array(ws, self.m)
        if zs.shape != ws.shape:
            raise ShapeError("values needs as many z as w points")
        self._check_pairs(zs, ws)
        with _naming_pairs(zs, ws):
            jet = (self.log_jet if log else self.jets)(zs, ws, 0, 0)
            out = jet.value
            check_finite(out, "kernel value")
        return out

    def eval(self, z, w) -> np.ndarray:
        """Evaluate the kernel at (z, w); returns a k x k complex matrix."""
        return self.values(as_point(z, self.m).array()[None],
                           as_point(w, self.m).array()[None])[0]

    def eval_jet(self, z, w, order: int, cap: int = DEFAULT_ORDER_CAP) -> "JetTable":
        """All mixed derivatives d^i dbar^j of the kernel with |i|,|j| <= order."""
        if order < 0:
            raise ValueError("order must be >= 0")
        if order > cap:
            raise OrderCapError(f"order {order} exceeds cap {cap}")
        z = as_point(z, self.m).array()[None]
        w = as_point(w, self.m).array()[None]
        self._check_pairs(z, w)
        with _naming_pairs(z, w):
            jet = self.jets(z, w, order, order)
            check_finite(jet.coeffs, "kernel jet")
        entries = {key: mat[0] for key, mat in jet.derivatives().items()}
        return JetTable(order=order, m=self.m, size=self.size, entries=entries)

    # -- printing --------------------------------------------------------

    def to_dsl(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.to_dsl()}>"

    def __eq__(self, other):
        return isinstance(other, KernelExpr) and self.to_dsl() == other.to_dsl()

    def __hash__(self):
        return hash(self.to_dsl())


@dataclass(frozen=True)
class JetTable:
    """Mixed Wirtinger derivatives of a kernel at one pair, up to a cutoff."""

    order: int
    m: int
    size: int
    entries: dict

    def entry(self, i, j) -> np.ndarray:
        return self.entries[(tuple(i), tuple(j))]

    @property
    def value(self) -> np.ndarray:
        zero = (0,) * self.m
        return self.entries[(zero, zero)]


def _num(x) -> str:
    if isinstance(x, float) and math.isfinite(x) and x == int(x) and abs(x) < 1e15:
        return f"{x:.1f}"
    return repr(x)


def _scalar(jet: Jet) -> Jet:
    """The (B, 1, 1) entry jet of a scalar node from its (B,) jet."""
    return Jet(jet.m, jet.nz, jet.nw, jet.coeffs[:, None, None])


def _matrix(rows) -> Jet:
    """One (B, r, c) jet from r rows of c entry jets of batch (B, 1, 1)."""
    first = rows[0][0]
    coeffs = np.concatenate(
        [np.concatenate([e.coeffs for e in row], axis=2) for row in rows], axis=1
    )
    return Jet(first.m, first.nz, first.nw, coeffs)


def _one_minus_inner(zv, wv) -> Jet:
    """The jet of 1 - <z, w> from seeded coordinate jets."""
    u = 1.0
    for zk, wk in zip(zv, wv):
        u = u - zk * wk
    return u


# ---------------------------------------------------------------------------
# built-in scalar kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SzegoDisc(KernelExpr):
    """(1 - z wbar)^{-1} on the unit disc."""

    m = 1

    def contains(self, p):
        return np.abs(p[..., 0]) < 1

    def _base_jet(self, z, w, nz, nw):
        zv, wv = variable_jets(z, w, 1, nz, nw)
        return _one_minus_inner(zv, wv)

    def jets(self, z, w, nz, nw):
        return _scalar(self._base_jet(z, w, nz, nw) ** -1)

    def log_jet(self, z, w, nz, nw):
        return _scalar(-(self._base_jet(z, w, nz, nw).log()))

    def to_dsl(self):
        return "szego_disc()"


@dataclass(frozen=True, eq=False)
class BallPower(KernelExpr):
    """(1 - <z, w>)^{-lam} on the unit ball of C^m."""

    dim: int
    lam: float

    def __post_init__(self):
        if self.dim < 1:
            raise ShapeError("ball_power needs dimension >= 1")

    @property
    def m(self):
        return self.dim

    def contains(self, p):
        return in_unit_ball(p)

    def _base_jet(self, z, w, nz, nw):
        zv, wv = variable_jets(z, w, self.dim, nz, nw)
        return _one_minus_inner(zv, wv)

    def jets(self, z, w, nz, nw):
        # 1 - <z, w> stays in the right half-plane on the ball, so the
        # principal branch of the outer power is the continuous one
        return _scalar(self._base_jet(z, w, nz, nw) ** (-self.lam))

    def log_jet(self, z, w, nz, nw):
        return _scalar(self._base_jet(z, w, nz, nw).log() * (-self.lam))

    def to_dsl(self):
        return f"ball_power({self.dim}, {_num(float(self.lam))})"


def bergman_ball(m: int) -> BallPower:
    """Bergman kernel of the unit ball, (1 - <z,w>)^{-(m+1)}."""
    return BallPower(m, float(m + 1))


def bergman_disc() -> BallPower:
    """Bergman kernel of the unit disc, (1 - z wbar)^{-2}."""
    return BallPower(1, 2.0)


@dataclass(frozen=True, eq=False)
class DiagonalSeries(KernelExpr):
    """1 + sum_n a_n z^n wbar^n on the disc, with finitely many coefficients."""

    coefficients: tuple[float, ...]

    m = 1

    def __init__(self, coefficients):
        object.__setattr__(
            self, "coefficients", tuple(float(a) for a in coefficients)
        )

    def contains(self, p):
        return np.abs(p[..., 0]) < 1

    def jets(self, z, w, nz, nw):
        zv, wv = variable_jets(z, w, 1, nz, nw)
        p = zv[0] * wv[0]
        acc = 1.0 + 0.0 * p  # promotes to a jet of the right shape
        power = None
        for a in self.coefficients:
            power = p if power is None else power * p
            acc = acc + power * a
        return _scalar(acc)

    def to_dsl(self):
        inner = ", ".join(_num(a) for a in self.coefficients)
        return f"diagonal_series([{inner}])"


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------


def _require_scalar(node: KernelExpr, what: str):
    if not node.is_scalar:
        raise ShapeError(f"{what} requires a scalar kernel child, got size {node.size}")


@dataclass(frozen=True, eq=False)
class Pow(KernelExpr):
    """Principal-branch power K^t of a scalar kernel."""

    child: KernelExpr
    t: float

    def __post_init__(self):
        _require_scalar(self.child, "pow")

    @property
    def m(self):
        return self.child.m

    def contains(self, p):
        return self.child.contains(p)

    def jets(self, z, w, nz, nw):
        return self.log_jet(z, w, nz, nw).exp()

    def log_jet(self, z, w, nz, nw):
        return self.child.log_jet(z, w, nz, nw) * self.t

    def to_dsl(self):
        return f"pow({self.child.to_dsl()}, {_num(float(self.t))})"


@dataclass(frozen=True, eq=False)
class Product(KernelExpr):
    """Pointwise product of two scalar kernels on the same domain."""

    left: KernelExpr
    right: KernelExpr

    def __post_init__(self):
        _require_scalar(self.left, "product")
        _require_scalar(self.right, "product")
        if self.left.m != self.right.m:
            raise ShapeError("product children live on different dimensions")

    @property
    def m(self):
        return self.left.m

    def contains(self, p):
        return self.left.contains(p) & self.right.contains(p)

    def jets(self, z, w, nz, nw):
        return self.left.jets(z, w, nz, nw) * self.right.jets(z, w, nz, nw)

    def log_jet(self, z, w, nz, nw):
        return self.left.log_jet(z, w, nz, nw) + self.right.log_jet(z, w, nz, nw)

    def to_dsl(self):
        return f"product({self.left.to_dsl()}, {self.right.to_dsl()})"


@dataclass(frozen=True, eq=False)
class Sum(KernelExpr):
    """Pointwise sum of two kernels of identical shape."""

    left: KernelExpr
    right: KernelExpr

    def __post_init__(self):
        if self.left.m != self.right.m or self.left.size != self.right.size:
            raise ShapeError("sum children must share dimension and output size")

    @property
    def m(self):
        return self.left.m

    @property
    def size(self):
        return self.left.size

    def contains(self, p):
        return self.left.contains(p) & self.right.contains(p)

    def jets(self, z, w, nz, nw):
        return self.left.jets(z, w, nz, nw) + self.right.jets(z, w, nz, nw)

    def to_dsl(self):
        return f"sum({self.left.to_dsl()}, {self.right.to_dsl()})"


@dataclass(frozen=True, eq=False)
class Scale(KernelExpr):
    """c * K for a positive constant c."""

    child: KernelExpr
    factor: float

    def __post_init__(self):
        if not self.factor > 0:
            raise ShapeError("scale factor must be positive")

    @property
    def m(self):
        return self.child.m

    @property
    def size(self):
        return self.child.size

    def contains(self, p):
        return self.child.contains(p)

    def jets(self, z, w, nz, nw):
        return self.child.jets(z, w, nz, nw) * self.factor

    def log_jet(self, z, w, nz, nw):
        return self.child.log_jet(z, w, nz, nw) + math.log(self.factor)

    def to_dsl(self):
        return f"scale({self.child.to_dsl()}, {_num(float(self.factor))})"


@dataclass(frozen=True, eq=False)
class Tensor(KernelExpr):
    """(K1 (x) K2)(z, zeta; w, rho) = K1(z, w) K2(zeta, rho) on C^{m1+m2}."""

    left: KernelExpr
    right: KernelExpr

    def __post_init__(self):
        _require_scalar(self.left, "tensor")
        _require_scalar(self.right, "tensor")

    @property
    def m(self):
        return self.left.m + self.right.m

    def contains(self, p):
        m1 = self.left.m
        return self.left.contains(p[..., :m1]) & self.right.contains(p[..., m1:])

    def _factors(self, method: str, z, w, nz, nw):
        """`method` (jets or log_jet) of each child on its own columns of
        the points, moved into the joint variables of C^m."""
        m1 = self.left.m
        a = getattr(self.left, method)(z[:, :m1], w[:, :m1], nz, nw)
        b = getattr(self.right, method)(z[:, m1:], w[:, m1:], nz, nw)
        return a.embed(self.m, 0), b.embed(self.m, m1)

    def jets(self, z, w, nz, nw):
        a, b = self._factors("jets", z, w, nz, nw)
        return a * b

    def log_jet(self, z, w, nz, nw):
        a, b = self._factors("log_jet", z, w, nz, nw)
        return a + b

    def to_dsl(self):
        return f"tensor({self.left.to_dsl()}, {self.right.to_dsl()})"


# ---------------------------------------------------------------------------
# matrix-valued derived kernels
# ---------------------------------------------------------------------------


def _hessian(g: Jet) -> Jet:
    """The (B, m, m) jet of d_i dbar_j g, one cap below g's (B, 1, 1) jet."""
    m = g.m
    return _matrix([[g.shift(unit_index(m, i), unit_index(m, j)) for j in range(m)]
                    for i in range(m)])


@dataclass(frozen=True, eq=False)
class LogHessian(KernelExpr):
    """The m x m matrix kernel (d_i dbar_j log K) of a scalar kernel K."""

    child: KernelExpr

    def __post_init__(self):
        _require_scalar(self.child, "log_hessian")

    @property
    def m(self):
        return self.child.m

    @property
    def size(self):
        return self.child.m

    def contains(self, p):
        return self.child.contains(p)

    def jets(self, z, w, nz, nw):
        return _hessian(self.child.log_jet(z, w, nz + 1, nw + 1))

    def to_dsl(self):
        return f"log_hessian({self.child.to_dsl()})"


@dataclass(frozen=True, eq=False)
class Curvature(KernelExpr):
    """The m x m curvature-type kernel K^{alpha+beta} (d_i dbar_j log K)."""

    child: KernelExpr
    alpha: float
    beta: float

    def __post_init__(self):
        _require_scalar(self.child, "curvature")
        if not (self.alpha > 0 and self.beta > 0):
            raise ShapeError("curvature parameters alpha, beta must be positive")

    @property
    def m(self):
        return self.child.m

    @property
    def size(self):
        return self.child.m

    def contains(self, p):
        return self.child.contains(p)

    def jets(self, z, w, nz, nw):
        g = self.child.log_jet(z, w, nz + 1, nw + 1)
        power = (g.truncate(nz, nw) * (self.alpha + self.beta)).exp()
        # the power, batch (B, 1, 1), broadcasts over the m x m entries
        return power * _hessian(g)

    def to_dsl(self):
        return (
            f"curvature({self.child.to_dsl()}, "
            f"{_num(float(self.alpha))}, {_num(float(self.beta))})"
        )


@dataclass(frozen=True, eq=False)
class JetKernel(KernelExpr):
    """The d x d jet kernel with entries K1 * d^i dbar^j K2, |i|,|j| <= k."""

    k1: KernelExpr
    k2: KernelExpr
    order: int

    def __post_init__(self):
        _require_scalar(self.k1, "jet")
        _require_scalar(self.k2, "jet")
        if self.k1.m != self.k2.m:
            raise ShapeError("jet kernel children live on different dimensions")
        if self.order < 0:
            raise ShapeError("jet order must be >= 0")
        if self.order > DEFAULT_ORDER_CAP:
            raise OrderCapError(
                f"jet order {self.order} exceeds cap {DEFAULT_ORDER_CAP}"
            )

    @property
    def m(self):
        return self.k1.m

    @property
    def size(self):
        return math.comb(self.m + self.order, self.m)

    def contains(self, p):
        return self.k1.contains(p) & self.k2.contains(p)

    def jets(self, z, w, nz, nw):
        k = self.order
        j1 = self.k1.jets(z, w, nz, nw)
        j2 = self.k2.jets(z, w, nz + k, nw + k)
        indices = graded_lex_tuples(self.m, k)
        return j1 * _matrix([[j2.shift(i, j).truncate(nz, nw) for j in indices]
                             for i in indices])

    def to_dsl(self):
        return f"jet({self.k1.to_dsl()}, {self.k2.to_dsl()}, {self.order})"


@dataclass(frozen=True, eq=False)
class BallCurvature(KernelExpr):
    """The explicit m x m ball kernel with prefactor (1 - <z,w>)^{-lam}.

    Diagonal entries are 1 - sum_{j != i} z_j wbar_j, off-diagonal (i, j)
    entries are z_j wbar_i; equals (1/(m+1)) B^t (d dbar log B) for the ball
    Bergman kernel B when lam = t (m+1) + 2.
    """

    dim: int
    lam: float

    def __post_init__(self):
        if self.dim < 2:
            raise ShapeError("ball_curvature needs dimension >= 2")

    @property
    def m(self):
        return self.dim

    @property
    def size(self):
        return self.dim

    def contains(self, p):
        return in_unit_ball(p)

    def jets(self, z, w, nz, nw):
        m = self.dim
        zv, wv = variable_jets(z, w, m, nz, nw)
        pref = _one_minus_inner(zv, wv) ** (-self.lam)
        rows = []
        for i in range(m):
            row = []
            for j in range(m):
                if i == j:
                    e = 1.0 + 0.0 * pref
                    for kk in range(m):
                        if kk != i:
                            e = e - zv[kk] * wv[kk]
                else:
                    e = zv[j] * wv[i]
                row.append(_scalar(e))
            rows.append(row)
        return _scalar(pref) * _matrix(rows)

    def to_dsl(self):
        return f"ball_curvature({self.dim}, {_num(float(self.lam))})"
