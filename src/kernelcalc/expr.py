"""Kernel expression AST: batched evaluation and Wirtinger jet tables.

Every node denotes a matrix-valued sesqui-analytic kernel on a domain in C^m
(scalars are 1x1).  Evaluation and differentiation both go through one
method per node, `jets(z, w, n)`: for point arrays z, w of shape (B, m) it
returns one Jet of batch shape (B, k, k), the truncated Taylor expansions
of the node's k x k entries around each base pair (z[p], w[p]), at exactly
the cap n in z and in wbar.  Leaves seed their own coordinate jets;
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
(`dsl_name`) and its arguments once, as (name, kind) pairs in order
(`args`).  `KernelExpr.__init_subclass__` makes each node a frozen
dataclass with one field per argument, typed by its kind; the parser's
table, the kind checks on construction, `to_dsl`, the scalar-child
`ShapeError` and the defaults of `m`, `size` and `contains` are all read
off the same declaration.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import BranchError, DomainError, EvaluationError, OrderCapError, ShapeError
from .geometry import graded_lex_tuples, in_unit_ball, point_array, point_coords
from .jets import Jet, _fail_where, _group, check_finite, coordinate_products, monomial_positions
from .params import checked, is_integral, is_real, shown

#: cap on the derivative order of eval_jet and of the jet kernel
DEFAULT_ORDER_CAP = 4
#: deepest nesting of kernel nodes: a leaf is at depth 0, a combinator one
#: level above its deepest child
MAX_DEPTH = 64


class KernelExpr:
    """Base class for kernel expression nodes."""

    #: the node's name in the DSL
    dsl_name: str
    #: (name, kind) of each argument, in order; the kind is "expr" (a kernel
    #: child), "scalar" (a kernel child of size 1), "num", "int" or "list",
    #: as in `_KINDS`
    args: tuple = ()
    #: nesting depth, set bottom-up by __post_init__; 0 for a leaf
    _depth = 0

    def __init_subclass__(cls, **kwargs):
        """Make the node a frozen dataclass with one field per argument,
        annotated with the Python type of its kind; `==` and `hash` stay
        those of the DSL."""
        super().__init_subclass__(**kwargs)
        cls.__annotations__ = {name: _KINDS[kind][4] for name, kind in cls.args}
        dataclass(frozen=True, eq=False)(cls)

    def __post_init__(self):
        for name, kind in self.args:
            object.__setattr__(self, name, _of_kind(kind, getattr(self, name), self.dsl_name, name))
        if self._children:
            depth = 1 + max(child._depth for child in self._children)
            if depth > MAX_DEPTH:
                raise ShapeError(f"kernel nested deeper than {MAX_DEPTH} levels")
            object.__setattr__(self, "_depth", depth)
        for name, kind in self.args:
            child = getattr(self, name)
            if kind == "scalar" and not child.is_scalar:
                raise ShapeError(
                    f"{self.dsl_name} requires a scalar kernel child, got size {child.size}"
                )
        self._check()

    def _check(self):
        """Argument checks of the node beyond its scalar children."""

    @functools.cached_property
    def _children(self) -> tuple:
        """The kernel-valued arguments, in order."""
        return tuple(getattr(self, name) for name, kind in self.args if kind in ("expr", "scalar"))

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
            _fail_where(~self.contains(pts), DomainError, lambda i: (
                f"point {point_coords(pts[i])} outside the domain of {self.to_dsl()}"))

    # -- jet engine ----------------------------------------------------

    def jets(self, z: np.ndarray, w: np.ndarray, n: int) -> Jet:
        """Entry jets at the pairs (z[p], w[p]), batch (B, k, k), cap n."""
        raise NotImplementedError

    def log_jet(self, z: np.ndarray, w: np.ndarray, n: int) -> Jet:
        """Jet of the continuous branch of log K of a size-1 node, batch (B, 1, 1).

        Nodes with multiplicative structure (powers, products, tensors)
        propagate the branch structurally, so log K stays well defined even
        where the kernel value itself leaves the right half-plane.  The
        default takes the principal log of the 1x1 entry and errors out on
        a branch violation.
        """
        return self.jets(z, w, n).log()

    # -- public evaluation ----------------------------------------------

    def _checked_values(self, zs, ws, evaluate) -> tuple:
        """evaluate(zs, ws), a tuple of arrays at the B pairs (zs[p], ws[p]),
        after the domain check; a failing or non-finite pair is named."""
        zs, ws = point_array(zs, self.m), point_array(ws, self.m)
        if zs.shape != ws.shape:
            raise ShapeError("a batch of pairs needs as many z as w points")
        self._check_pairs(zs, ws)
        try:
            with np.errstate(all="ignore"):
                out = evaluate(zs, ws)
                for a in out:
                    check_finite(a, "kernel value")
        except (BranchError, EvaluationError) as exc:
            if exc.batch_index is None:
                raise
            z, w = (point_coords(pts[exc.batch_index[0]]) for pts in (zs, ws))
            raise type(exc)(f"{exc} at pair ({z}, {w})") from exc
        return out

    def values(self, zs, ws, log: bool = False) -> np.ndarray:
        """The kernel at the B pairs (zs[p], ws[p]): a (B, k, k) array.

        zs and ws are sequences of points or (B, m) arrays.  With `log`,
        the continuous branch of log K of a size-1 node instead.
        """
        jet_of = self.log_jet if log else self.jets
        return self._checked_values(zs, ws, lambda z, w: (jet_of(z, w, 0).value,))[0]

    def log_hessian_values(self, zs, ws) -> tuple[np.ndarray, np.ndarray]:
        """log K and its log-Hessian (d_i dbar_j log K) at the B pairs of a
        size-1 node: (B, 1, 1) and (B, m, m) arrays from one cap-1 log jet.
        Lower coefficients do not depend on the cap, so they equal
        `values(zs, ws, log=True)` and `LogHessian(self).values(zs, ws)` bit
        for bit."""

        def evaluate(z, w):
            g = self.log_jet(z, w, 1)
            return g.value, _hessian(g).value

        return self._checked_values(zs, ws, evaluate)

    def eval(self, z, w) -> np.ndarray:
        """Evaluate the kernel at (z, w); returns a k x k complex matrix."""
        return self.values([z], [w])[0]

    def eval_jets(self, zs, ws, order: int) -> list:
        """The JetTables of the B pairs (zs[p], ws[p]), from one batch of jets.

        Lower coefficients do not depend on the truncation cap, so each
        table equals its own `eval_jet` bit for bit, except that a batch
        mixing pairs with balanced jets (origin pairs, say) with others sums
        them on the full pair tables, which can move them by an ulp (see
        `jets`).
        """
        order = checked("non_negative_int", order, "order")
        if order > DEFAULT_ORDER_CAP:
            raise OrderCapError(f"order {shown(order)} exceeds cap {DEFAULT_ORDER_CAP}")
        (derivatives,) = self._checked_values(
            zs, ws, lambda z, w: (self.jets(z, w, order).derivatives(),))
        # (B, k, k, N, N) -> (B, N, N, k, k): one k x k block per derivative
        blocks = np.ascontiguousarray(derivatives.transpose(0, 3, 4, 1, 2))
        return [JetTable(order, self.m, self.size, d) for d in blocks]

    def eval_jet(self, z, w, order: int) -> "JetTable":
        """All mixed derivatives d^i dbar^j of the kernel with |i|,|j| <= order."""
        return self.eval_jets([z], [w], order)[0]

    # -- printing --------------------------------------------------------

    @functools.cached_property
    def _dsl(self) -> str:
        """The node in the DSL, printed once per node."""
        printed = (_KINDS[kind][3](getattr(self, name)) for name, kind in self.args)
        return f"{self.dsl_name}({', '.join(printed)})"

    def to_dsl(self) -> str:
        return self._dsl

    def __eq__(self, other):
        return isinstance(other, KernelExpr) and self._dsl == other._dsl

    def __hash__(self):
        return hash(self._dsl)


@dataclass(frozen=True, eq=False)
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
        return self.derivatives[monomial_positions(self.m, self.order, i, j)]

    @functools.cached_property
    def entries(self) -> dict:
        """{(i, j): k x k matrix} for all multi-indices i, j."""
        index = _group(self.m, self.order).index
        return {(i, j): self.derivatives[a, b]
                for i, a in index.items() for j, b in index.items()}

    @property
    def value(self) -> np.ndarray:
        return self.derivatives[0, 0]


#: kind of an argument -> (the kind in words, whether a value has it, the
#: value stored or None for the value itself, how to_dsl prints it, the
#: Python type of its field)
_KINDS = {
    "expr": ("a kernel expression", lambda v: isinstance(v, KernelExpr), None, KernelExpr.to_dsl,
             "KernelExpr"),
    "num": ("a numeric", is_real, float, repr, "float"),
    "int": ("an integer", is_integral, int, str, "int"),
    "list": ("a coefficient list",
             lambda v: isinstance(v, (list, tuple, np.ndarray)) and all(map(is_real, v)),
             lambda v: tuple(map(float, v)), lambda v: f"[{', '.join(map(repr, v))}]",
             "tuple[float, ...]"),
}
_KINDS["scalar"] = _KINDS["expr"]


def _of_kind(kind: str, value, node: str, field: str):
    """`value` as the argument `field` of kind `kind` of `node`; a ShapeError
    naming both unless it has the kind."""
    what, has_kind, store, *_ = _KINDS[kind]
    if not has_kind(value):
        raise ShapeError(f"{node}: expected {what} argument for {field}, got {shown(value)}")
    if store is None:
        return value
    try:
        return store(value)
    except OverflowError:
        raise ShapeError(f"{node}: {field} holds a number past the float range") from None


def _scalar(jet: Jet) -> Jet:
    """The (B, 1, 1) entry jet of a scalar node from its (B,) jet."""
    return Jet(jet.m, jet.n, jet.coeffs[:, None, None])


def _entry(jet: Jet) -> Jet:
    """The (B,) jet of a scalar node from its (B, 1, 1) entry jet."""
    return Jet(jet.m, jet.n, jet.coeffs[:, 0, 0])


def _one_minus_inner(z, w, m, n) -> Jet:
    """The jet of 1 - <z, w>, batch (B,), in one fill.  It must equal
    `_one_minus` of the jets z_k wbar_k bit for bit, the signs of its
    zeros included, so it keeps that subtraction's op order: the value
    ((-z_0 wbar_0) + 1) - z_1 wbar_1 - ..., -wbar_k at (e_k, 0), -z_k at
    (0, e_k), complex(-1, -0.0) at (e_k, e_k) and complex(-0.0, -0.0) at
    every other coefficient."""
    z, wbar = np.asarray(z, dtype=complex), np.conj(np.asarray(w, dtype=complex))
    products = z * wbar
    value = np.negative(products[..., 0])
    value += 1.0
    for k in range(1, m):
        value -= products[..., k]
    size = _group(m, n).size
    coeffs = np.full(value.shape + (size, size), complex(-0.0, -0.0))
    flat = coeffs.reshape(value.shape + (size * size,))
    flat[..., 0] = value
    if n >= 1:
        np.negative(wbar, out=flat[..., size:(m + 1) * size:size])
        np.negative(z, out=flat[..., 1:m + 1])
        flat[..., size + 1:(m + 1) * (size + 1):size + 1] = complex(-1, -0.0)
    return Jet(m, n, coeffs)


def _one_minus(terms) -> Jet:
    """The jet of 1 minus the given jets, subtracted in order, in place."""
    terms = iter(terms)
    first = next(terms)
    u = np.negative(first.coeffs)
    u[..., 0, 0] += 1.0
    for term in terms:
        u -= term.coeffs
    return Jet(first.m, first.n, u)


# ---------------------------------------------------------------------------
# built-in scalar kernels
# ---------------------------------------------------------------------------


class SzegoDisc(KernelExpr):
    """(1 - z wbar)^{-1} on the unit disc."""

    dsl_name = "szego_disc"
    m = 1

    def contains(self, p):
        return np.abs(p[..., 0]) < 1

    def _base_jet(self, z, w, n):
        return _one_minus_inner(z, w, 1, n)

    def jets(self, z, w, n):
        return _scalar(self._base_jet(z, w, n) ** -1)

    def log_jet(self, z, w, n):
        return _scalar(-(self._base_jet(z, w, n).log()))


class BallPower(KernelExpr):
    """(1 - <z, w>)^{-lam} on the unit ball of C^m."""

    dsl_name = "ball_power"
    args = (("dim", "int"), ("lam", "num"))

    def _check(self):
        if self.dim < 1:
            raise ShapeError("ball_power needs dimension >= 1")

    @property
    def m(self):
        return self.dim

    def contains(self, p):
        return in_unit_ball(p)

    def _base_jet(self, z, w, n):
        return _one_minus_inner(z, w, self.dim, n)

    def jets(self, z, w, n):
        # 1 - <z, w> stays in the right half-plane on the ball, so the
        # principal branch of the outer power is the continuous one
        return _scalar(self._base_jet(z, w, n) ** (-self.lam))

    def log_jet(self, z, w, n):
        return _scalar(self._base_jet(z, w, n).log() * (-self.lam))


def bergman_ball(m: int) -> BallPower:
    """Bergman kernel of the unit ball, (1 - <z,w>)^{-(m+1)}."""
    m = _of_kind("int", m, "bergman_ball", "m")
    return BallPower(m, m + 1)


def bergman_disc() -> BallPower:
    """Bergman kernel of the unit disc, (1 - z wbar)^{-2}."""
    return BallPower(1, 2.0)


class DiagonalSeries(KernelExpr):
    """1 + sum_n a_n z^n wbar^n on the disc, with finitely many coefficients."""

    dsl_name = "diagonal_series"
    args = (("coefficients", "list"),)
    m = 1

    def contains(self, p):
        return np.abs(p[..., 0]) < 1

    def jets(self, z, w, n):
        p = coordinate_products(z, w, 1, n, 0, 0)
        acc = 1.0 + 0.0 * p  # promotes to a jet of the right shape
        power = None
        for a in self.coefficients:
            power = p if power is None else power * p
            acc = acc + power * a
        return _scalar(acc)


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------


class Pow(KernelExpr):
    """Principal-branch power K^t of a scalar kernel."""

    dsl_name = "pow"
    args = (("child", "scalar"), ("t", "num"))

    def jets(self, z, w, n):
        return self.log_jet(z, w, n).exp()

    def log_jet(self, z, w, n):
        return self.child.log_jet(z, w, n) * self.t


class Product(KernelExpr):
    """Pointwise product of two scalar kernels on the same domain."""

    dsl_name = "product"
    args = (("left", "scalar"), ("right", "scalar"))

    def _check(self):
        if self.left.m != self.right.m:
            raise ShapeError("product children live on different dimensions")

    def jets(self, z, w, n):
        return self.left.jets(z, w, n) * self.right.jets(z, w, n)

    def log_jet(self, z, w, n):
        return self.left.log_jet(z, w, n) + self.right.log_jet(z, w, n)


class Sum(KernelExpr):
    """Pointwise sum of two kernels of identical shape."""

    dsl_name = "sum"
    args = (("left", "expr"), ("right", "expr"))

    def _check(self):
        if self.left.m != self.right.m or self.left.size != self.right.size:
            raise ShapeError("sum children must share dimension and output size")

    def jets(self, z, w, n):
        return self.left.jets(z, w, n) + self.right.jets(z, w, n)


class Scale(KernelExpr):
    """c * K for a positive constant c."""

    dsl_name = "scale"
    args = (("child", "expr"), ("factor", "num"))

    def _check(self):
        if not self.factor > 0:
            raise ShapeError("scale factor must be positive")

    def jets(self, z, w, n):
        return self.child.jets(z, w, n) * self.factor

    def log_jet(self, z, w, n):
        return self.child.log_jet(z, w, n) + math.log(self.factor)


class Tensor(KernelExpr):
    """(K1 (x) K2)(z, zeta; w, rho) = K1(z, w) K2(zeta, rho) on C^{m1+m2}."""

    dsl_name = "tensor"
    args = (("left", "scalar"), ("right", "scalar"))

    @property
    def m(self):
        return self.left.m + self.right.m

    def contains(self, p):
        m1 = self.left.m
        return self.left.contains(p[..., :m1]) & self.right.contains(p[..., m1:])

    def _factors(self, method: str, z, w, n):
        """`method` (jets or log_jet) of each child on its own columns of
        the points, moved into the joint variables of C^m."""
        m1 = self.left.m
        a = getattr(self.left, method)(z[:, :m1], w[:, :m1], n)
        b = getattr(self.right, method)(z[:, m1:], w[:, m1:], n)
        return a.embed(self.m, 0), b.embed(self.m, m1)

    def jets(self, z, w, n):
        a, b = self._factors("jets", z, w, n)
        return a * b

    def log_jet(self, z, w, n):
        a, b = self._factors("log_jet", z, w, n)
        return a + b


# ---------------------------------------------------------------------------
# matrix-valued derived kernels
# ---------------------------------------------------------------------------


def _hessian(g: Jet) -> Jet:
    """The (B, m, m) jet of d_i dbar_j g, one cap below g's (B, 1, 1) jet."""
    units = _group(g.m, 1).tuples[1:]  # e_0 .. e_(m-1) in graded lex order
    return _entry(g).shifts(units)


class LogHessian(KernelExpr):
    """The m x m matrix kernel (d_i dbar_j log K) of a scalar kernel K."""

    dsl_name = "log_hessian"
    args = (("child", "scalar"),)

    @property
    def size(self):
        return self.child.m

    def jets(self, z, w, n):
        return _hessian(self.child.log_jet(z, w, n + 1))


class Curvature(KernelExpr):
    """The m x m curvature-type kernel K^{alpha+beta} (d_i dbar_j log K)."""

    dsl_name = "curvature"
    args = (("child", "scalar"), ("alpha", "num"), ("beta", "num"))

    def _check(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ShapeError("curvature parameters alpha, beta must be positive")

    @property
    def size(self):
        return self.child.m

    def jets(self, z, w, n):
        g = self.child.log_jet(z, w, n + 1)
        power = (g.truncate(n) * (self.alpha + self.beta)).exp()
        # the power, batch (B, 1, 1), broadcasts over the m x m entries
        return power * _hessian(g)


class JetKernel(KernelExpr):
    """The d x d jet kernel with entries K1 * d^i dbar^j K2, |i|,|j| <= k."""

    dsl_name = "jet"
    args = (("k1", "scalar"), ("k2", "scalar"), ("order", "int"))

    def _check(self):
        if self.k1.m != self.k2.m:
            raise ShapeError("jet kernel children live on different dimensions")
        if self.order < 0:
            raise ShapeError("jet order must be >= 0")
        if self.order > DEFAULT_ORDER_CAP:
            raise OrderCapError(
                f"jet order {shown(self.order)} exceeds cap {DEFAULT_ORDER_CAP}"
            )

    @property
    def size(self):
        return math.comb(self.m + self.order, self.m)

    def jets(self, z, w, n):
        k = self.order
        j1 = self.k1.jets(z, w, n)
        j2 = _entry(self.k2.jets(z, w, n + k))
        indices = graded_lex_tuples(self.m, k)
        # the deepest shifts, |i| = |j| = k, leave exactly the cap n
        return j1 * j2.shifts(indices)


class BallCurvature(KernelExpr):
    """The explicit m x m ball kernel with prefactor (1 - <z,w>)^{-lam}.

    Diagonal entries are 1 - sum_{j != i} z_j wbar_j, off-diagonal (i, j)
    entries are z_j wbar_i; equals (1/(m+1)) B^t (d dbar log B) for the ball
    Bergman kernel B when lam = t (m+1) + 2.
    """

    dsl_name = "ball_curvature"
    args = (("dim", "int"), ("lam", "num"))

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

    def jets(self, z, w, n):
        m = self.dim
        rows, cols = np.indices((m, m))
        entries = coordinate_products(z, w, m, n, cols, rows).coeffs  # z_j wbar_i
        diagonal = [Jet(m, n, entries[:, i, i].copy()) for i in range(m)]
        pref = _one_minus_inner(z, w, m, n) ** (-self.lam)
        for i in range(m):  # 1 - sum_{j != i} z_j wbar_j on the diagonal
            entries[:, i, i] = _one_minus(d for j, d in enumerate(diagonal) if j != i).coeffs
        return _scalar(pref) * Jet(m, n, entries)
