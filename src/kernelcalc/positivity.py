"""Gram assembly, NND verdicts, Wallach scans and multiplier bounds.

Every sampled Gram comes from `_pairwise`, the one place where it is made
Hermitian; reports, differences and families use it as it is.

Reports (`psd_check`, `kernel_order_check`) carry the least eigenvalue from
`eig.eigenvalues`, the max diagonal and tau = tol * (1 + max diagonal).
Scan and bound verdicts need only a sign, so they come from the LDL^H
elimination of G + tau I (`eig.ldl_pivot`), which computes no
eigenvalue and stops at the first pivot that is not positive, keeping no
witness: a proof on a finite point set (`eig.ldl_verdict` gives its vector
v with v^H G v < -tau |v|^2), where a passing one is evidence for
non-negative definiteness.

Scans and bounds build their parametric Gram families t -> M(t) o B in one
place, `gram_families`: one (n, m) point array per (count, seed), the pairs
of all arrays in one batch of jets.  Each t then costs one broadcast
product per family and one left-looking elimination, judged by
`families_pass`.  A multiplier callable gets each point as a length-m
complex row, which indexes like a `Point`.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .eig import hermitian_part, ldl_pivot, min_eigenvalue, tau
from .errors import BracketError, EvaluationError, KernelCalcError, ShapeError
from .expr import KernelExpr
from .geometry import DomainSpec, Point, point_array, sample_array
from .params import checked, is_real

#: default relative PSD tolerance: psd iff min eig >= -tol * (1 + max diagonal)
DEFAULT_TOL = 1e-9

#: default point families for scans: (count, seed) pairs
DEFAULT_FAMILIES = ((20, 11), (30, 23), (40, 37))

#: default bracket width at which wallach_scan stops bisecting
WALLACH_RESOLUTION = 0.05

#: default bracket width at which multiplier_bound stops bisecting
BOUND_RESOLUTION = 0.01

#: multiplier_bound gives up when no c up to this one certifies
MAX_BOUND = 10.0


@dataclass(frozen=True)
class GramReport:
    """Verdict of a finite-sample non-negative-definiteness check."""

    kernel: str
    size: int
    min_eigenvalue: float
    psd: bool
    tolerance: float
    max_diagonal: float
    points: tuple[Point, ...]
    seed: int | None = None

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "points": [[[c.real, c.imag] for c in p.coords] for p in self.points],
            "size": self.size,
            "min_eig": self.min_eigenvalue,
            "psd": self.psd,
            "tol": self.tolerance,
            "max_diagonal": self.max_diagonal,
            "threshold": tau(self.tolerance, self.max_diagonal),
            "seed": self.seed,
        }


@dataclass(frozen=True)
class WallachEstimate:
    """Bisection bracket for the boundary of a generalized Wallach set."""

    boundary: float
    bracket: tuple[float, float]
    resolution: float
    verdicts: tuple[tuple[float, bool], ...]

    def to_dict(self) -> dict:
        return {
            "boundary": self.boundary,
            "bracket": list(self.bracket),
            "resolution": self.resolution,
            "verdicts": [[t, bool(p)] for t, p in self.verdicts],
        }


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


def _pairwise(point_sets, values_of) -> list:
    """Per point set, the nk x nk matrices whose block (p, q) is each array
    that values_of gives at (z_p, z_q), conjugate-completed and then made
    Hermitian by `hermitian_part`.

    values_of returns a tuple of (B, k, k) arrays.  The pairs p <= q of all
    sets are evaluated as one batch; a failing pair is named.
    """
    # the indices of np.triu_indices, at a third of its cost
    upper = [np.nonzero(np.tri(len(pts), dtype=bool).T) for pts in point_sets]
    zs = np.concatenate([pts[p] for pts, (p, _) in zip(point_sets, upper)])
    ws = np.concatenate([pts[q] for pts, (_, q) in zip(point_sets, upper)])
    try:
        outs = values_of(zs, ws)
    except KernelCalcError as exc:
        raise EvaluationError(f"evaluation failed: {exc}") from exc
    result, start = [], 0
    for pts, (p, q) in zip(point_sets, upper):
        n, stop = len(pts), start + len(p)
        completed = []
        for out in outs:
            blocks = out[start:stop]
            k = blocks.shape[-1]
            g = np.empty((n, k, n, k), dtype=complex)
            g[q, :, p, :] = blocks.conj().transpose(0, 2, 1)
            g[p, :, q, :] = blocks
            completed.append(hermitian_part(g.reshape(n * k, n * k)))
        result.append(tuple(completed))
        start = stop
    return result


def gram(expr: KernelExpr, points) -> np.ndarray:
    """Block Gram matrix with block (p, q) = eval(expr, z_p, z_q), Hermitian."""
    ((g,),) = _pairwise([point_array(points, expr.m)], lambda zs, ws: (expr.values(zs, ws),))
    return g


def _sample(domain: DomainSpec, m: int, n: int, seed) -> np.ndarray:
    """n seeded points of `domain`, which must lie in C^m: an (n, m) array."""
    if domain.dim != m:
        raise ShapeError("domain dimension does not match the kernel")
    return sample_array(domain, n, seed)


def _verdict(g: np.ndarray, tol: float) -> tuple[float, float, bool]:
    mineig = min_eigenvalue(g)
    maxdiag = float(np.max(np.diag(g).real))
    return mineig, maxdiag, mineig >= -tau(tol, maxdiag)  # no negative unsigned tol


def _sampled_report(label: str, m: int, gram_of, domain, n, seed, tol) -> GramReport:
    """Sample a point family, assemble its Gram matrix and certify it."""
    n = checked("positive_int", n, "n")
    checked("positive", tol, "tol")
    pts = _sample(domain, m, n, seed)
    g = gram_of(pts)
    mineig, maxdiag, psd = _verdict(g, tol)
    return GramReport(
        kernel=label,
        size=g.shape[0],
        min_eigenvalue=mineig,
        psd=psd,
        tolerance=tol,
        max_diagonal=maxdiag,
        points=tuple(map(Point, pts.tolist())),
        seed=operator.index(seed),
    )


def psd_check(
    expr: KernelExpr,
    domain: DomainSpec,
    n: int,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> GramReport:
    """Sample a point family and certify the Gram matrix eigenvalue verdict."""
    return _sampled_report(expr.to_dsl(), expr.m, lambda pts: gram(expr, pts),
                           domain, n, seed, tol)


def kernel_order_check(
    k1: KernelExpr,
    k2: KernelExpr,
    domain: DomainSpec,
    n: int,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> GramReport:
    """PSD verdict for the difference kernel K2 - K1 (is K1 dominated by K2)."""
    if k1.m != k2.m or k1.size != k2.size:
        raise ShapeError("kernels must share dimension and output size")

    def difference_gram(pts):
        # K2 and K1 at the same pairs, in one batch
        ((g2, g1),) = _pairwise([point_array(pts, k1.m)],
                                lambda zs, ws: (k2.values(zs, ws), k1.values(zs, ws)))
        return g2 - g1

    return _sampled_report(f"difference({k2.to_dsl()}, {k1.to_dsl()})", k1.m,
                           difference_gram, domain, n, seed, tol)


class _CurvatureFamilyGram:
    """A parametric Gram family G(t) = kron(M(t), 1_k) o B on one point set.

    The block Gram B (k x k blocks, an nk x nk matrix from `_pairwise`) is
    kept as an (n, k, n, k) view; only the n x n modulation M(t) changes
    with the parameter, so no kernel is evaluated per t, and G(t) is one
    broadcast product of M(t) against the blocks.  G(t) is Hermitian up to
    the rounding of M(t); `ldl_pivot` symmetrizes it.  Only `gram_families`
    builds families, for `_wallach_families`, `_power_families` and
    `multiplier_families`.
    """

    def __init__(self, points, blocks: np.ndarray, modulation):
        n = len(points)
        self.points = points
        self.blocks = blocks.reshape(n, blocks.shape[0] // n, n, -1)
        self.modulation = modulation

    def gram_at(self, t: float, out: np.ndarray | None = None) -> np.ndarray:
        """G(t), written into `out` (a C-contiguous nk x nk array) if given."""
        g = np.multiply(self.modulation(t)[:, None, :, None], self.blocks,
                        out=None if out is None else out.reshape(self.blocks.shape))
        return g.reshape(self.blocks.shape[0] * self.blocks.shape[1], -1)


def _family_pairs(family) -> tuple:
    """`family` as a tuple of (count, seed) pairs of ints, refusing an entry
    that is not a pair, or whose count or seed breaks its rule, with a
    ShapeError naming it."""
    pairs = []
    for i, entry in enumerate(family):
        try:
            count, seed = entry
        except (TypeError, ValueError):
            raise ShapeError(f"family entry {i} is not a (count, seed) pair, got {entry!r}") from None
        try:
            pairs.append((checked("positive_int", count, "count"), checked("seed", seed, "seed")))
        except (TypeError, ValueError) as exc:
            raise ShapeError(f"family entry {i}: {exc}") from None
    return tuple(pairs)


def gram_families(expr: KernelExpr, domain: DomainSpec, family, values_of, family_of) -> list:
    """One parametric Gram family per (count, seed) of `family`, refusing an
    empty family (ValueError), a malformed entry or a domain outside C^m
    (ShapeError) before sampling.  The pairs of all point sets go
    through one `_pairwise` batch of values_of; family_of((n, m) points,
    *nk x nk matrices) returns (B, M)."""
    family = _family_pairs(family)
    if not family:
        raise ValueError("the point family is empty: it needs at least one (count, seed)")
    sets = [_sample(domain, expr.m, n, s) for n, s in family]
    outs = _pairwise(sets, values_of)
    return [
        _CurvatureFamilyGram(pts, *family_of(pts, *out))
        for pts, out in zip(sets, outs)
    ]


def families_pass(fams, t: float, tol: float) -> bool:
    """Whether the Gram of every family at t has no failing pivot in the
    elimination of `ldl_pivot`, formed in its workspace, which refuses a
    Gram that is not finite (EvaluationError, naming t here)."""
    try:
        # a Gram past the float range is refused, without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            return all(ldl_pivot(f.blocks.shape[0] * f.blocks.shape[1],
                                 lambda out, f=f: f.gram_at(t, out), tol) is None for f in fams)
    except EvaluationError as exc:
        raise EvaluationError(f"the Gram family at t = {t} is not finite") from exc


def _check_scalar_base(base: KernelExpr, scan: str) -> None:
    """Refuse a base kernel that is not scalar: K^t needs one (ShapeError)."""
    if not base.is_scalar:
        raise ShapeError(f"{scan} needs a scalar base kernel, got size {base.size}")


def _wallach_families(base: KernelExpr, domain: DomainSpec, family) -> list:
    """t -> K^t o (log-Hessian Gram) per (count, seed).  K^t is exp(t log K)
    on the continuous log branch, which equals pow(base, t) pairwise exactly;
    one caps-(1, 1) log jet gives the blocks and log K, bit for bit."""
    _check_scalar_base(base, "wallach_scan")
    return gram_families(base, domain, family, base.log_hessian_values,
                         lambda pts, logk, hess: (hess, lambda t: np.exp(t * logk)))


def _power_families(base: KernelExpr, domain: DomainSpec, family) -> list:
    """t -> K^t per (count, seed), as in `_wallach_families`, all blocks ones."""
    _check_scalar_base(base, "ordinary_wallach_scan")
    return gram_families(base, domain, family,
                         lambda zs, ws: (base.values(zs, ws, log=True),),
                         lambda pts, logk: (np.ones(logk.shape), lambda t: np.exp(t * logk)))


def multiplier_families(expr: KernelExpr, func, domain: DomainSpec, family, power=1) -> list:
    """c -> (c^2 - f(z) conj(f(w)))^power o K(z, w) per (count, seed), f = func on rows."""

    def family_of(pts, k):
        vals = np.array([func(p) for p in pts], dtype=complex)
        ffbar = np.outer(vals, vals.conj())
        if power == 1:  # a complex ** 1 costs three times the subtraction
            return k, lambda c: c * c - ffbar
        return k, lambda c: (c * c - ffbar) ** power

    return gram_families(expr, domain, family, lambda zs, ws: (expr.values(zs, ws),),
                         family_of)


def _check_interval(lo: float, hi: float) -> None:
    """Refuse t_lo or t_hi that is not a real (TypeError naming it) and an
    interval that is not finite with lo < hi (ValueError)."""
    for name, value in (("t_lo", lo), ("t_hi", hi)):
        if not is_real(value):
            raise TypeError(f"{name} must be a real, got {value!r}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"the interval needs finite lo < hi, got [{lo}, {hi}]")


def _bisect(is_psd, lo: float, hi: float, resolution: float) -> tuple[float, float]:
    """Shrink [lo, hi], whose lower end fails and upper end passes, by halving.

    Stops once the bracket is at most `resolution` wide, or once its
    midpoint no longer splits it in floating point.  The callers check
    `resolution` and the interval before they sample.
    """
    while hi - lo > resolution:
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            break
        if is_psd(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def wallach_scan(
    base: KernelExpr,
    t_lo: float,
    t_hi: float,
    domain: DomainSpec,
    family=DEFAULT_FAMILIES,
    tol: float = DEFAULT_TOL,
    resolution: float = WALLACH_RESOLUTION,
) -> WallachEstimate:
    """Bisect the boundary of {t : K^{t-2} (K^2 d dbar log K) is NND}.

    The scanned kernel is pow(base, t) * log_hessian(base); a t counts as
    psd only if every point family passes.
    """
    checked("positive", tol, "tol")
    checked("positive", resolution, "resolution")
    _check_interval(t_lo, t_hi)
    fams = _wallach_families(base, domain, family)
    verdicts: list[tuple[float, bool]] = []

    def is_psd(t: float) -> bool:
        ok = families_pass(fams, t, tol)
        verdicts.append((t, ok))
        return ok

    lo_ok, hi_ok = is_psd(t_lo), is_psd(t_hi)
    if lo_ok == hi_ok:
        raise BracketError(
            f"no psd sign change on [{t_lo}, {t_hi}] "
            f"(verdicts {lo_ok}, {hi_ok})"
        )
    if lo_ok:
        raise BracketError(
            "psd region must lie at the upper end of the scanned interval"
        )
    lo, hi = _bisect(is_psd, t_lo, t_hi, resolution)
    return WallachEstimate(
        boundary=(lo + hi) / 2,
        bracket=(lo, hi),
        resolution=resolution,
        verdicts=tuple(verdicts),
    )


def ordinary_wallach_scan(
    base: KernelExpr,
    t_grid,
    domain: DomainSpec,
    family=DEFAULT_FAMILIES,
    tol: float = DEFAULT_TOL,
) -> list[tuple[float, bool]]:
    """Per-t PSD verdicts for the powers K^t, t > 0."""
    checked("positive", tol, "tol")
    t_grid = [checked("finite", t, "t_grid") for t in t_grid]
    if any(t <= 0 for t in t_grid):
        raise ValueError("ordinary Wallach scan needs t > 0")
    fams = _power_families(base, domain, family)
    return [(t, families_pass(fams, t, tol)) for t in map(float, t_grid)]


def _as_function(f, m):
    """Coerce a multiplier spec: a coordinate index (an integer, not a bool) or a callable."""
    if callable(f):
        return f, getattr(f, "__name__", "f")
    if not isinstance(f, numbers.Integral) or isinstance(f, bool):
        raise ShapeError("multiplier must be a coordinate index or a callable")
    f = operator.index(f)
    if not 0 <= f < m:
        raise ShapeError("coordinate index out of range")
    return (lambda p: p[f]), f"z{f + 1}"


def multiplier_bound(
    expr: KernelExpr,
    f,
    domain: DomainSpec,
    family=DEFAULT_FAMILIES,
    resolution: float = BOUND_RESOLUTION,
    tol: float = DEFAULT_TOL,
) -> MultiplierBound:
    """Smallest certified c with (c^2 - f fbar) K non-negative on all families:
    c doubles from 1 up to MAX_BOUND, which is tried itself, until it passes,
    and then [last failing c, c] (or [0, 1]) is bisected."""
    checked("positive", resolution, "resolution")
    checked("positive", tol, "tol")
    func, label = _as_function(f, expr.m)
    family = _family_pairs(family)
    fams = multiplier_families(expr, func, domain, family)
    lo, hi = 0.0, 1.0
    while not families_pass(fams, hi, tol):
        if hi >= MAX_BOUND:
            raise BracketError(f"no certified multiplier bound up to c = {MAX_BOUND}")
        lo, hi = hi, min(2.0 * hi, MAX_BOUND)
    lo, hi = _bisect(lambda c: families_pass(fams, c, tol), lo, hi, resolution)
    return MultiplierBound(
        function=label, bound=hi, bracket=(lo, hi), point_family=family
    )


__all__ = [
    "BOUND_RESOLUTION",
    "DEFAULT_FAMILIES",
    "DEFAULT_TOL",
    "GramReport",
    "MAX_BOUND",
    "MultiplierBound",
    "WallachEstimate",
    "gram",
    "kernel_order_check",
    "min_eigenvalue",
    "multiplier_bound",
    "ordinary_wallach_scan",
    "psd_check",
    "wallach_scan",
]
