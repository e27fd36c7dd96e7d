"""Finite-rank RKHS elements spanned by kernel-derivative sections.

An element is a finite combination of sections dbar^j K(., w) eta; inner
products reduce exactly to mixed-derivative kernel values, so norms need no
quadrature or basis truncation.  Multiplier bounds live in `positivity`
and are re-exported here for callers such as the benchmark in `perfbench/`.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ShapeError
from .expr import BallCurvature, KernelExpr
from .geometry import MultiIndex, Point, point_array, unit_index
from .params import checked, shown
from .positivity import MultiplierBound, multiplier_bound  # re-exported


@dataclass(frozen=True)
class Term:
    """One summand coef * dbar^index K(., base) direction."""

    coef: complex
    base: Point
    index: MultiIndex
    direction: tuple[complex, ...]


@dataclass(frozen=True)
class RkhsElement:
    """Finite combination of derivative sections of one kernel."""

    kernel: KernelExpr
    terms: tuple[Term, ...]

    def __post_init__(self):
        k = self.kernel.size
        for t in self.terms:
            if t.base.dim != self.kernel.m:
                raise ShapeError("term base point has the wrong dimension")
            if t.index.dim != self.kernel.m:
                raise ShapeError("term index has the wrong dimension")
            if len(t.direction) != k:
                raise ShapeError("term direction must match the kernel output size")


def _finite_number(value, i: int, what: str) -> complex:
    """`value` as a complex, refusing one that is not a finite number (a
    bool is not one) with a ShapeError naming term i."""
    if isinstance(value, numbers.Number) and not isinstance(value, bool):
        try:
            z = complex(value)
        except OverflowError:  # an int past the float range
            z = complex(math.inf)
        if cmath.isfinite(z):
            return z
    raise ShapeError(f"term {i}: {what} must be a finite number, got {shown(value)}")


def element(kernel: KernelExpr, terms) -> RkhsElement:
    """Build an RkhsElement from (coef, base, index, direction) tuples,
    refusing a malformed term with a ShapeError naming its position."""
    built = []
    for i, term in enumerate(terms):
        try:
            coef, base, index, direction = term
        except (TypeError, ValueError):
            raise ShapeError(f"term {i} is not a (coef, base, index, direction) tuple") from None
        if not isinstance(index, MultiIndex):
            try:
                index = MultiIndex(index)
            except (TypeError, ValueError):
                raise ShapeError(
                    f"term {i}: index must be non-negative integers, got {shown(index)}") from None
        if not np.iterable(direction):
            raise ShapeError(f"term {i}: direction must be a sequence, got {shown(direction)}")
        built.append(
            Term(
                _finite_number(coef, i, "coef"),
                Point(point_array([base], kernel.m)[0]),
                index,
                tuple(_finite_number(d, i, "a direction entry") for d in direction),
            )
        )
    return RkhsElement(kernel, tuple(built))


def inner_product(e1: RkhsElement, e2: RkhsElement) -> complex:
    """<e1, e2> expanded through the derivative reproducing rule.

    <dbar^j K(., w) eta, dbar^i K(., v) xi> = <(d^i dbar^j K)(v, w) eta, xi>,
    pulled from the jets of all term pairs, evaluated as one batch at the
    largest order any pair needs.  A sum past the float range (inf or nan)
    is refused with an EvaluationError that names it.
    """
    v = _inner_product_sum(e1, e2)
    if not cmath.isfinite(v):
        raise EvaluationError(f"the inner product {v:.3e} is not finite")
    return v


def _inner_product_sum(e1: RkhsElement, e2: RkhsElement) -> complex:
    """<e1, e2> as summed, inf or nan where it leaves the float range."""
    if e1.kernel != e2.kernel:
        raise ShapeError("elements must reference the same kernel")
    pairs = [(s, t) for s in e1.terms for t in e2.terms]
    if not pairs:
        return 0j
    order = max(max(s.index.order, t.index.order) for s, t in pairs)
    tables = e1.kernel.eval_jets(
        [t.base for _, t in pairs], [s.base for s, _ in pairs], order
    )
    acc = 0j
    # a sum past the float range comes out as inf or nan, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for (s, t), table in zip(pairs, tables):
            mat = table.entry(t.index.entries, s.index.entries)
            eta = np.array(s.direction)
            xi = np.array(t.direction)
            acc += s.coef * t.coef.conjugate() * (xi.conj() @ (mat @ eta))
    return acc


def norm(e: RkhsElement) -> float:
    """sqrt(<e, e>); errors if the self-inner-product is not finite or is
    genuinely negative."""
    v = _inner_product_sum(e, e)
    if not cmath.isfinite(v):
        raise EvaluationError(f"no norm: the self inner product {v:.3e} is not finite")
    if v.real < -1e-10 * (1 + abs(v)):
        raise EvaluationError(
            f"negative self inner product {v:.3e}: kernel is not NND here"
        )
    return math.sqrt(max(v.real, 0.0))


def z2_tensor_e1_norm(m: int, lam: float) -> float:
    """Norm of the monomial section z_2 (x) e_1 for the explicit ball kernel.

    Built from the derivative-section combination
    ((lam-1) dbar_2 K(., 0) e_1 - dbar_1 K(., 0) e_2) / lam = (lam - 2) z_2 (x) e_1,
    whose self inner product grows like lam (not lam^3, as without the 1/lam),
    and computed numerically from jets; matches
    sqrt((lam-1)/(lam (lam-2))) for lam > 2.
    """
    try:
        m = checked("norm_dim", m, "m")
    except ValueError as exc:  # a dimension out of range is a shape error
        raise ShapeError(str(exc)) from None
    if not checked("finite", lam, "lam") > 2:
        raise EvaluationError(
            "the monomial section leaves the space at lam <= 2 (divergent norm)"
        )
    origin = [0.0] * m
    e1, e2 = unit_index(m, 0), unit_index(m, 1)
    combo = element(
        BallCurvature(m, lam),
        [((lam - 1.0) / lam, origin, e2, e1), (-1.0 / lam, origin, e1, e2)],
    )
    return norm(combo) / (lam - 2)
