"""Finite-rank RKHS elements spanned by kernel-derivative sections.

An element is a finite combination of sections dbar^j K(., w) eta; inner
products reduce exactly to mixed-derivative kernel values, so norms need no
quadrature or basis truncation.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, EvaluationError, ShapeError
from .expr import BallCurvature, KernelExpr
from .geometry import DomainSpec, MultiIndex, Point, as_point, point_array, sample_points
from .eig import ldl_verdict
from .positivity import DEFAULT_FAMILIES, DEFAULT_TOL, _bisect, _check_family
from .positivity import _check_resolution, _CurvatureFamilyGram, _grams

#: default bracket width at which multiplier_bound stops bisecting
BOUND_RESOLUTION = 0.01

#: multiplier_bound gives up when no c up to this one certifies
MAX_BOUND = 10.0

#: largest m of z2_tensor_e1_norm; its jets take memory of order m^4
MAX_NORM_DIM = 16


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

    def to_json(self) -> str:
        return json.dumps(
            [
                {
                    "coef": [t.coef.real, t.coef.imag],
                    "base": [[c.real, c.imag] for c in t.base.coords],
                    "index": list(t.index.entries),
                    "dir": [[d.real, d.imag] for d in t.direction],
                }
                for t in self.terms
            ]
        )


def element(kernel: KernelExpr, terms) -> RkhsElement:
    """Build an RkhsElement from (coef, base, index, direction) tuples."""
    built = []
    for coef, base, index, direction in terms:
        built.append(
            Term(
                complex(coef),
                as_point(base, kernel.m),
                index if isinstance(index, MultiIndex) else MultiIndex(index),
                tuple(complex(d) for d in direction),
            )
        )
    return RkhsElement(kernel, tuple(built))


def inner_product(e1: RkhsElement, e2: RkhsElement) -> complex:
    """<e1, e2> expanded through the derivative reproducing rule.

    <dbar^j K(., w) eta, dbar^i K(., v) xi> = <(d^i dbar^j K)(v, w) eta, xi>,
    pulled from the jets of all term pairs, evaluated as one batch at the
    largest order any pair needs.
    """
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
    for (s, t), table in zip(pairs, tables):
        mat = table.entry(t.index.entries, s.index.entries)
        eta = np.array(s.direction)
        xi = np.array(t.direction)
        acc += s.coef * t.coef.conjugate() * (xi.conj() @ (mat @ eta))
    return acc


def norm(e: RkhsElement) -> float:
    """sqrt(<e, e>); errors if the self-inner-product is genuinely negative."""
    v = inner_product(e, e)
    if v.real < -1e-10 * (1 + abs(v)):
        raise EvaluationError(
            f"negative self inner product {v:.3e}: kernel is not NND here"
        )
    return math.sqrt(max(v.real, 0.0))


def z2_tensor_e1_norm(m: int, lam: float) -> float:
    """Norm of the monomial section z_2 (x) e_1 for the explicit ball kernel.

    Built from the derivative-section combination
    (lam-1) dbar_2 K(., 0) e_1 - dbar_1 K(., 0) e_2 = (lam^2 - 2 lam) z_2 (x) e_1
    and computed numerically from jets; matches
    sqrt((lam-1)/(lam (lam-2))) for lam > 2.
    """
    if not 2 <= m <= MAX_NORM_DIM:
        raise ShapeError(f"needs dimension in 2 .. {MAX_NORM_DIM}, got {m}")
    if not lam > 2:
        raise EvaluationError(
            "the monomial section leaves the space at lam <= 2 (divergent norm)"
        )
    kernel = BallCurvature(m, lam)
    origin = [0.0] * m
    e1 = [1.0 if i == 0 else 0.0 for i in range(m)]
    e2 = [1.0 if i == 1 else 0.0 for i in range(m)]
    idx1 = [1 if i == 0 else 0 for i in range(m)]
    idx2 = [1 if i == 1 else 0 for i in range(m)]
    combo = element(
        kernel,
        [
            (lam - 1.0, origin, idx2, e1),
            (-1.0, origin, idx1, e2),
        ],
    )
    return norm(combo) / (lam * lam - 2 * lam)


@dataclass(frozen=True)
class MultiplierBound:
    """Bisection estimate of the multiplier norm of a scalar function."""

    function: str
    bound: float
    bracket: tuple[float, float]
    point_family: tuple[tuple[int, int], ...]

    def to_dict(self) -> dict:
        return {
            "function": self.function,
            "bound": self.bound,
            "bracket": list(self.bracket),
            "families": [list(f) for f in self.point_family],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _as_function(f, m):
    """Coerce a multiplier spec: coordinate index (int) or callable on points."""
    if isinstance(f, int):
        if not 0 <= f < m:
            raise ShapeError("coordinate index out of range")
        return (lambda p: p[f]), f"z{f + 1}"
    if callable(f):
        return f, getattr(f, "__name__", "f")
    raise ShapeError("multiplier must be a coordinate index or a callable")


def _multiplier_families(expr: KernelExpr, func, point_sets) -> list:
    """The Gram family c -> (c^2 - f(z) conj(f(w))) K(z, w) on each point
    set; K is evaluated at the pairs of all sets as one batch."""
    point_sets = [[as_point(p, expr.m) for p in pts] for pts in point_sets]
    grams = _grams(expr, [point_array(pts, expr.m) for pts in point_sets])
    fams = []
    for pts, g in zip(point_sets, grams):
        vals = np.array([func(p) for p in pts], dtype=complex)
        fams.append(
            _CurvatureFamilyGram(
                pts, g, lambda c, vals=vals: c * c - np.outer(vals, vals.conj())
            )
        )
    return fams


def multiplier_bound(
    expr: KernelExpr,
    f,
    domain: DomainSpec,
    family=DEFAULT_FAMILIES,
    resolution: float = BOUND_RESOLUTION,
    tol: float = DEFAULT_TOL,
) -> MultiplierBound:
    """Smallest certified c with (c^2 - f fbar) K non-negative on all families.

    A failing verdict is authoritative (it exhibits a negative direction);
    a passing one is finite-sample evidence.
    """
    _check_resolution(resolution)
    func, label = _as_function(f, expr.m)
    fams = [(n, operator.index(s)) for n, s in _check_family(family)]
    grams = _multiplier_families(
        expr, func, [sample_points(domain, n, s) for n, s in fams]
    )

    def is_psd(c: float) -> bool:
        return all(ldl_verdict(g.gram_at(c), tol).psd for g in grams)

    hi = 1.0
    while not is_psd(hi):
        hi *= 2.0
        if hi > MAX_BOUND:
            raise BracketError(f"no certified multiplier bound below c = {MAX_BOUND}")
    lo, hi = _bisect(is_psd, 0.0, hi, resolution)
    return MultiplierBound(
        function=label, bound=hi, bracket=(lo, hi), point_family=tuple(fams)
    )
