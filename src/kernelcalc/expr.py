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
composes under the scalar combinators.  The matrix nodes `log_hessian`,
`curvature` and `jet` read their matrices of mixed derivatives off one
scalar jet in one gather, `Jet.shifts`.

`values(zs, ws)` evaluates B pairs at once and `eval` is its batch of one;
`eval_jets(zs, ws, order)` gives the jet tables of B pairs at once and
`eval_jet` is its batch of one, so batched and per-pair results agree bit
for bit (up to an ulp at origin pairs in a mixed batch, see `eval_jets`).
A failing pair (outside the domain, across a branch cut, not finite) is
named in the error.

The node table lives on the node classes: each declares its DSL name
(`dsl_name`) and the kind of each dataclass field in field order (`kinds`).
The parser's table, the kind checks on construction, `to_dsl`, the
scalar-child `ShapeError` and the defaults of `m`, `size` and `contains`
are all read off that declaration.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import BranchError, DomainError, EvaluationError, OrderCapError, ShapeError
from .geometry import graded_lex_tuples, in_unit_ball, point_array
from .jets import Jet, _group, check_finite, coordinate_products, monomial_positions
from .params import checked, is_integral, is_real

#: cap on the derivative order of eval_jet and of the jet kernel
DEFAULT_ORDER_CAP = 4
#: deepest nesting of kernel nodes: a leaf is at depth 0, a combinator one
#: level above its deepest child
MAX_DEPTH = 64


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

    #: the node's name in the DSL
    dsl_name: str
    #: kind of each dataclass field, in field order: "expr" (a kernel child),
    #: "scalar" (a kernel child of size 1), "num", "int" or "list", as in `_KINDS`
    kinds: tuple = ()
    #: nesting depth, set bottom-up by __post_init__; 0 for a leaf
    _depth = 0

    def __post_init__(self):
        for name, kind in self._layout():
            object.__setattr__(self, name, _of_kind(kind, getattr(self, name), self.dsl_name, name))
        if self._children:
            depth = 1 + max(child._depth for child in self._children)
            if depth > MAX_DEPTH:
                raise ShapeError(f"kernel nested deeper than {MAX_DEPTH} levels")
            object.__setattr__(self, "_depth", depth)
        for name, kind in self._layout():
            child = getattr(self, name)
            if kind == "scalar" and not child.is_scalar:
                raise ShapeError(
                    f"{self.dsl_name} requires a scalar kernel child, got size {child.size}"
                )
        self._check()

    def _check(self):
        """Argument checks of the node beyond its scalar children."""

    @classmethod
    @functools.cache
    def _layout(cls) -> tuple:
        """(field name, kind) of each dataclass field, in field order."""
        return tuple(zip((f.name for f in dataclasses.fields(cls)), cls.kinds, strict=True))

    @functools.cached_property
    def _children(self) -> tuple:
        """The kernel-valued fields, in field order."""
        return tuple(getattr(self, name) for name, kind in self._layout()
                     if kind in ("expr", "scalar"))

    @property
    def m(self) -> int:
        """Ambient dimension m of the domain; the first child's by default."""
        return self._children[0].m

    @property
    def size(self) -> int:
        """Output size k (values are k x k matrices; scalars have k = 1);
        the first child's by default, 1 for a leaf."""
        return self._children[0].size if self._children else 1

    @property
    def is_scalar(self) -> bool:
        return self.size == 1

    # -- domain --------------------------------------------------------

    def contains(self, p: np.ndarray) -> np.ndarray:
        """Membership of each point of a (..., m) array in the node's
        natural domain; by default the intersection of the children's."""
        return functools.reduce(operator.and_, (c.contains(p) for c in self._children))

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

    def _checked_values(self, zs, ws, evaluate) -> tuple:
        """evaluate(zs, ws), a tuple of arrays at the B pairs (zs[p], ws[p]),
        after the domain check; a failing or non-finite pair is named."""
        zs, ws = point_array(zs, self.m), point_array(ws, self.m)
        if zs.shape != ws.shape:
            raise ShapeError("a batch of pairs needs as many z as w points")
        self._check_pairs(zs, ws)
        with _naming_pairs(zs, ws):
            out = evaluate(zs, ws)
            for a in out:
                check_finite(a, "kernel value")
        return out

    def values(self, zs, ws, log: bool = False) -> np.ndarray:
        """The kernel at the B pairs (zs[p], ws[p]): a (B, k, k) array.

        zs and ws are sequences of points or (B, m) arrays.  With `log`,
        the continuous branch of log K of a size-1 node instead.
        """
        jet_of = self.log_jet if log else self.jets
        return self._checked_values(zs, ws, lambda z, w: (jet_of(z, w, 0, 0).value,))[0]

    def log_hessian_values(self, zs, ws) -> tuple[np.ndarray, np.ndarray]:
        """log K and its log-Hessian (d_i dbar_j log K) at the B pairs of a
        size-1 node: (B, 1, 1) and (B, m, m) arrays from one caps-(1, 1) log
        jet.  Lower coefficients do not depend on the caps, so they equal
        `values(zs, ws, log=True)` and `LogHessian(self).values(zs, ws)` bit
        for bit."""

        def evaluate(z, w):
            g = self.log_jet(z, w, 1, 1)
            return g.value, _hessian(g).value

        return self._checked_values(zs, ws, evaluate)

    def eval(self, z, w) -> np.ndarray:
        """Evaluate the kernel at (z, w); returns a k x k complex matrix."""
        return self.values([z], [w])[0]

    def eval_jets(self, zs, ws, order: int) -> list:
        """The JetTables of the B pairs (zs[p], ws[p]), from one batch of jets.

        Lower coefficients do not depend on the truncation caps, so each
        table equals its own `eval_jet` bit for bit, except that a batch
        mixing pairs with balanced jets (origin pairs, say) with others sums
        them on the full pair tables, which can move them by an ulp (see
        `jets`).
        """
        order = checked("non_negative_int", order, "order")
        if order > DEFAULT_ORDER_CAP:
            raise OrderCapError(f"order {order} exceeds cap {DEFAULT_ORDER_CAP}")
        (derivatives,) = self._checked_values(
            zs, ws, lambda z, w: (self.jets(z, w, order, order).derivatives(),))
        # (B, k, k, N, N) -> (B, N, N, k, k): one k x k block per derivative
        blocks = np.ascontiguousarray(np.moveaxis(derivatives, (-2, -1), (1, 2)))
        return [JetTable(order, self.m, self.size, d) for d in blocks]

    def eval_jet(self, z, w, order: int) -> "JetTable":
        """All mixed derivatives d^i dbar^j of the kernel with |i|,|j| <= order."""
        return self.eval_jets([z], [w], order)[0]

    # -- printing --------------------------------------------------------

    @functools.cached_property
    def _dsl(self) -> str:
        """The node in the DSL, printed once per node."""
        args = (_KINDS[kind][3](getattr(self, name)) for name, kind in self._layout())
        return f"{self.dsl_name}({', '.join(args)})"

    def to_dsl(self) -> str:
        return self._dsl

    def __eq__(self, other):
        return isinstance(other, KernelExpr) and self._dsl == other._dsl

    def __hash__(self):
        return hash(self._dsl)


@dataclass(frozen=True)
class JetTable:
    """Mixed Wirtinger derivatives of a kernel at one pair, up to a cutoff.

    `derivatives[a, b]` is the k x k matrix d^i dbar^j K for the a-th and
    b-th multi-indices i, j of degree <= order in graded lex order.
    """

    order: int
    m: int
    size: int
    derivatives: np.ndarray

    def entry(self, i, j) -> np.ndarray:
        """The k x k matrix d^i dbar^j K; a ValueError beyond the order."""
        return self.derivatives[monomial_positions(self.m, self.order, self.order, i, j)]

    @functools.cached_property
    def entries(self) -> dict:
        """{(i, j): k x k matrix} for all multi-indices i, j."""
        index = _group(self.m, self.order).index
        return {(i, j): self.derivatives[a, b]
                for i, a in index.items() for j, b in index.items()}

    @property
    def value(self) -> np.ndarray:
        return self.derivatives[0, 0]


#: kind of a field -> (the kind in words, whether a value has it, the value
#: stored or None for the value itself, how to_dsl prints it)
_KINDS = {
    "expr": ("a kernel expression", lambda v: isinstance(v, KernelExpr), None, KernelExpr.to_dsl),
    "num": ("a numeric", is_real, None, lambda v: repr(float(v))),  # a float prints as its repr
    "int": ("an integer", is_integral, int, str),
    "list": ("a coefficient list",
             lambda v: isinstance(v, (list, tuple, np.ndarray)) and all(map(is_real, v)),
             lambda v: tuple(map(float, v)), lambda v: f"[{', '.join(map(repr, v))}]"),
}
_KINDS["scalar"] = _KINDS["expr"]


def _of_kind(kind: str, value, node: str, field: str):
    """`value` as the field `field` of kind `kind` of `node`; a ShapeError
    naming both unless it has the kind."""
    what, has_kind, store, _ = _KINDS[kind]
    if not has_kind(value):
        raise ShapeError(f"{node}: expected {what} argument for {field}, got {value!r}")
    return value if store is None else store(value)


def _scalar(jet: Jet) -> Jet:
    """The (B, 1, 1) entry jet of a scalar node from its (B,) jet."""
    return Jet(jet.m, jet.nz, jet.nw, jet.coeffs[:, None, None])


def _entry(jet: Jet) -> Jet:
    """The (B,) jet of a scalar node from its (B, 1, 1) entry jet."""
    return Jet(jet.m, jet.nz, jet.nw, jet.coeffs[:, 0, 0])


def _inner_terms(z, w, m, nz, nw) -> list:
    """The jets z_k wbar_k, batch (B,), for k < m."""
    k = np.arange(m)
    p = coordinate_products(z, w, m, nz, nw, k, k)
    return [Jet(m, nz, nw, p.coeffs[:, i]) for i in range(m)]


def _one_minus(terms) -> Jet:
    """The jet of 1 minus the given jets, subtracted in order, in place."""
    terms = iter(terms)
    first = next(terms)
    u = np.negative(first.coeffs)
    u[..., 0, 0] += 1.0
    for term in terms:
        u -= term.coeffs
    return Jet(first.m, first.nz, first.nw, u)


# ---------------------------------------------------------------------------
# built-in scalar kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SzegoDisc(KernelExpr):
    """(1 - z wbar)^{-1} on the unit disc."""

    dsl_name = "szego_disc"
    m = 1

    def contains(self, p):
        return np.abs(p[..., 0]) < 1

    def _base_jet(self, z, w, nz, nw):
        return _one_minus(_inner_terms(z, w, 1, nz, nw))

    def jets(self, z, w, nz, nw):
        return _scalar(self._base_jet(z, w, nz, nw) ** -1)

    def log_jet(self, z, w, nz, nw):
        return _scalar(-(self._base_jet(z, w, nz, nw).log()))


@dataclass(frozen=True, eq=False)
class BallPower(KernelExpr):
    """(1 - <z, w>)^{-lam} on the unit ball of C^m."""

    dim: int
    lam: float

    dsl_name = "ball_power"
    kinds = ("int", "num")

    def _check(self):
        if self.dim < 1:
            raise ShapeError("ball_power needs dimension >= 1")

    @property
    def m(self):
        return self.dim

    def contains(self, p):
        return in_unit_ball(p)

    def _base_jet(self, z, w, nz, nw):
        return _one_minus(_inner_terms(z, w, self.dim, nz, nw))

    def jets(self, z, w, nz, nw):
        # 1 - <z, w> stays in the right half-plane on the ball, so the
        # principal branch of the outer power is the continuous one
        return _scalar(self._base_jet(z, w, nz, nw) ** (-self.lam))

    def log_jet(self, z, w, nz, nw):
        return _scalar(self._base_jet(z, w, nz, nw).log() * (-self.lam))


def bergman_ball(m: int) -> BallPower:
    """Bergman kernel of the unit ball, (1 - <z,w>)^{-(m+1)}."""
    m = _of_kind("int", m, "bergman_ball", "m")
    return BallPower(m, float(m + 1))


def bergman_disc() -> BallPower:
    """Bergman kernel of the unit disc, (1 - z wbar)^{-2}."""
    return BallPower(1, 2.0)


@dataclass(frozen=True, eq=False)
class DiagonalSeries(KernelExpr):
    """1 + sum_n a_n z^n wbar^n on the disc, with finitely many coefficients."""

    coefficients: tuple[float, ...]

    dsl_name = "diagonal_series"
    kinds = ("list",)
    m = 1

    def contains(self, p):
        return np.abs(p[..., 0]) < 1

    def jets(self, z, w, nz, nw):
        (p,) = _inner_terms(z, w, 1, nz, nw)
        acc = 1.0 + 0.0 * p  # promotes to a jet of the right shape
        power = None
        for a in self.coefficients:
            power = p if power is None else power * p
            acc = acc + power * a
        return _scalar(acc)


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Pow(KernelExpr):
    """Principal-branch power K^t of a scalar kernel."""

    child: KernelExpr
    t: float

    dsl_name = "pow"
    kinds = ("scalar", "num")

    def jets(self, z, w, nz, nw):
        return self.log_jet(z, w, nz, nw).exp()

    def log_jet(self, z, w, nz, nw):
        return self.child.log_jet(z, w, nz, nw) * self.t


@dataclass(frozen=True, eq=False)
class Product(KernelExpr):
    """Pointwise product of two scalar kernels on the same domain."""

    left: KernelExpr
    right: KernelExpr

    dsl_name = "product"
    kinds = ("scalar", "scalar")

    def _check(self):
        if self.left.m != self.right.m:
            raise ShapeError("product children live on different dimensions")

    def jets(self, z, w, nz, nw):
        return self.left.jets(z, w, nz, nw) * self.right.jets(z, w, nz, nw)

    def log_jet(self, z, w, nz, nw):
        return self.left.log_jet(z, w, nz, nw) + self.right.log_jet(z, w, nz, nw)


@dataclass(frozen=True, eq=False)
class Sum(KernelExpr):
    """Pointwise sum of two kernels of identical shape."""

    left: KernelExpr
    right: KernelExpr

    dsl_name = "sum"
    kinds = ("expr", "expr")

    def _check(self):
        if self.left.m != self.right.m or self.left.size != self.right.size:
            raise ShapeError("sum children must share dimension and output size")

    def jets(self, z, w, nz, nw):
        return self.left.jets(z, w, nz, nw) + self.right.jets(z, w, nz, nw)


@dataclass(frozen=True, eq=False)
class Scale(KernelExpr):
    """c * K for a positive constant c."""

    child: KernelExpr
    factor: float

    dsl_name = "scale"
    kinds = ("expr", "num")

    def _check(self):
        if not self.factor > 0:
            raise ShapeError("scale factor must be positive")

    def jets(self, z, w, nz, nw):
        return self.child.jets(z, w, nz, nw) * self.factor

    def log_jet(self, z, w, nz, nw):
        return self.child.log_jet(z, w, nz, nw) + math.log(self.factor)


@dataclass(frozen=True, eq=False)
class Tensor(KernelExpr):
    """(K1 (x) K2)(z, zeta; w, rho) = K1(z, w) K2(zeta, rho) on C^{m1+m2}."""

    left: KernelExpr
    right: KernelExpr

    dsl_name = "tensor"
    kinds = ("scalar", "scalar")

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


# ---------------------------------------------------------------------------
# matrix-valued derived kernels
# ---------------------------------------------------------------------------


def _hessian(g: Jet) -> Jet:
    """The (B, m, m) jet of d_i dbar_j g, one cap below g's (B, 1, 1) jet."""
    units = _group(g.m, 1).tuples[1:]  # e_0 .. e_(m-1) in graded lex order
    return _entry(g).shifts(units, units)


@dataclass(frozen=True, eq=False)
class LogHessian(KernelExpr):
    """The m x m matrix kernel (d_i dbar_j log K) of a scalar kernel K."""

    child: KernelExpr

    dsl_name = "log_hessian"
    kinds = ("scalar",)

    @property
    def size(self):
        return self.child.m

    def jets(self, z, w, nz, nw):
        return _hessian(self.child.log_jet(z, w, nz + 1, nw + 1))


@dataclass(frozen=True, eq=False)
class Curvature(KernelExpr):
    """The m x m curvature-type kernel K^{alpha+beta} (d_i dbar_j log K)."""

    child: KernelExpr
    alpha: float
    beta: float

    dsl_name = "curvature"
    kinds = ("scalar", "num", "num")

    def _check(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ShapeError("curvature parameters alpha, beta must be positive")

    @property
    def size(self):
        return self.child.m

    def jets(self, z, w, nz, nw):
        g = self.child.log_jet(z, w, nz + 1, nw + 1)
        power = (g.truncate(nz, nw) * (self.alpha + self.beta)).exp()
        # the power, batch (B, 1, 1), broadcasts over the m x m entries
        return power * _hessian(g)


@dataclass(frozen=True, eq=False)
class JetKernel(KernelExpr):
    """The d x d jet kernel with entries K1 * d^i dbar^j K2, |i|,|j| <= k."""

    k1: KernelExpr
    k2: KernelExpr
    order: int

    dsl_name = "jet"
    kinds = ("scalar", "scalar", "int")

    def _check(self):
        if self.k1.m != self.k2.m:
            raise ShapeError("jet kernel children live on different dimensions")
        if self.order < 0:
            raise ShapeError("jet order must be >= 0")
        if self.order > DEFAULT_ORDER_CAP:
            raise OrderCapError(
                f"jet order {self.order} exceeds cap {DEFAULT_ORDER_CAP}"
            )

    @property
    def size(self):
        return math.comb(self.m + self.order, self.m)

    def jets(self, z, w, nz, nw):
        k = self.order
        j1 = self.k1.jets(z, w, nz, nw)
        j2 = _entry(self.k2.jets(z, w, nz + k, nw + k))
        indices = graded_lex_tuples(self.m, k)
        # the deepest shifts, |i| = |j| = k, leave exactly the caps (nz, nw)
        return j1 * j2.shifts(indices, indices)


@dataclass(frozen=True, eq=False)
class BallCurvature(KernelExpr):
    """The explicit m x m ball kernel with prefactor (1 - <z,w>)^{-lam}.

    Diagonal entries are 1 - sum_{j != i} z_j wbar_j, off-diagonal (i, j)
    entries are z_j wbar_i; equals (1/(m+1)) B^t (d dbar log B) for the ball
    Bergman kernel B when lam = t (m+1) + 2.
    """

    dim: int
    lam: float

    dsl_name = "ball_curvature"
    kinds = ("int", "num")

    def _check(self):
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
        rows, cols = np.indices((m, m))
        entries = coordinate_products(z, w, m, nz, nw, cols, rows).coeffs  # z_j wbar_i
        diagonal = [Jet(m, nz, nw, entries[:, i, i].copy()) for i in range(m)]
        pref = _one_minus(diagonal) ** (-self.lam)
        for i in range(m):  # 1 - sum_{j != i} z_j wbar_j on the diagonal
            entries[:, i, i] = _one_minus(d for j, d in enumerate(diagonal) if j != i).coeffs
        return _scalar(pref) * Jet(m, nz, nw, entries)
