"""Gram assembly, eigenvalue certification, NND verdicts and Wallach scans.

Reports (`psd_check`, `kernel_order_check`) carry the least eigenvalue from
`eig.eigenvalues`, the max diagonal and tau = tol * (1 + max diagonal).
Scan verdicts need only a sign, so they come from the LDL^H factorisation
of G + tau I (`eig.ldl_verdict`), which computes no eigenvalue; a failing
one breaks down at a pivot that yields a vector v with v^H G v < -tau |v|^2.
A passing scan is evidence for non-negative definiteness; a failing scan is
a proof (that negative direction on a finite point set).

A scan evaluates its kernel once per set of point families: the pairs of
all families go through one batch of jets (for a Wallach scan, one
caps-(1, 1) log jet gives both log K and the log-Hessian blocks), and each
t costs one broadcast product per family and one left-looking LDL^H.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .eig import hermitian_part, ldl_verdict, min_eigenvalue
from .errors import BracketError, EvaluationError, KernelCalcError, ShapeError
from .expr import KernelExpr, Pow
from .geometry import DomainSpec, Point, point_array, sample_points

#: default relative PSD tolerance: psd iff min eig >= -tol * (1 + max diagonal)
DEFAULT_TOL = 1e-9

#: default point families for scans: (count, seed) pairs
DEFAULT_FAMILIES = ((20, 11), (30, 23), (40, 37))

#: default bracket width at which wallach_scan stops bisecting
WALLACH_RESOLUTION = 0.05


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
            "threshold": self.tolerance * (1 + self.max_diagonal),
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _pairwise(point_sets, values_of) -> list:
    """Per point set, the (n, k, n, k) arrays whose block (p, q) is each array
    that values_of gives at (z_p, z_q), conjugate-completed.

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
            completed.append(g)
        result.append(tuple(completed))
        start = stop
    return result


def _square(g: np.ndarray) -> np.ndarray:
    """The nk x nk matrix of an (n, k, n, k) block array."""
    n, k = g.shape[:2]
    return g.reshape(n * k, n * k)


def _grams(expr: KernelExpr, point_sets) -> list:
    """The block Gram of expr on each (n, m) point array, symmetrized; the
    pairs of all sets are evaluated as one batch."""
    return [
        hermitian_part(_square(g))
        for (g,) in _pairwise(point_sets, lambda zs, ws: (expr.values(zs, ws),))
    ]


def gram(expr: KernelExpr, points) -> np.ndarray:
    """Block Gram matrix with block (p, q) = eval(expr, z_p, z_q), symmetrized."""
    return _grams(expr, [point_array(points, expr.m)])[0]


def _verdict(g: np.ndarray, tol: float) -> tuple[float, float, bool]:
    mineig = min_eigenvalue(g)
    maxdiag = float(np.max(np.diag(g).real))
    return mineig, maxdiag, mineig >= -tol * (1 + maxdiag)


def _sampled_report(label: str, gram_of, domain, n, seed, tol) -> GramReport:
    """Sample a point family, assemble its Gram matrix and certify it."""
    pts = sample_points(domain, n, seed)
    g = gram_of(pts)
    mineig, maxdiag, psd = _verdict(g, tol)
    return GramReport(
        kernel=label,
        size=g.shape[0],
        min_eigenvalue=mineig,
        psd=psd,
        tolerance=tol,
        max_diagonal=maxdiag,
        points=tuple(pts),
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
    if domain.dim != expr.m:
        raise ShapeError("domain dimension does not match the kernel")
    return _sampled_report(expr.to_dsl(), lambda pts: gram(expr, pts),
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
    return _sampled_report(f"difference({k2.to_dsl()}, {k1.to_dsl()})",
                           lambda pts: gram(k2, pts) - gram(k1, pts),
                           domain, n, seed, tol)


class _CurvatureFamilyGram:
    """A parametric Gram family G(t) = kron(M(t), 1_k) o B on one point set.

    The block Gram B (k x k blocks, an nk x nk matrix) is assembled once and
    kept as an (n, k, n, k) view; only the n x n modulation M(t) changes with
    the parameter, so no kernel is evaluated per t, and G(t) is one
    broadcast product of M(t) against the blocks.  G(t) is Hermitian up to
    the rounding of M(t); `ldl_verdict` symmetrizes it.  Wallach scans use
    B = log-Hessian Gram (or all ones) and M(t) = K^t; multiplier bounds use
    B = Gram of K and M(c) = c^2 - f fbar.
    """

    def __init__(self, points, blocks: np.ndarray, modulation):
        n = len(points)
        self.points = points
        self.blocks = blocks.reshape(n, blocks.shape[0] // n, n, -1)
        self.modulation = modulation

    def gram_at(self, t: float) -> np.ndarray:
        return _square(self.modulation(t)[:, None, :, None] * self.blocks)


def _check_family(family) -> tuple:
    family = tuple(family)
    if not family:
        raise ValueError("the point family is empty: it needs at least one (count, seed)")
    return family


def _logs_and_blocks(base: KernelExpr, arrays, curvature: bool) -> list:
    """Per (n, m) point array, log K as an n x n matrix and the block Gram B:
    the log-Hessian Gram with `curvature`, all ones without.

    The pairs of all arrays go through one batch of jets: with `curvature`,
    one caps-(1, 1) log jet, whose value is the caps-(0, 0) log K bit for bit.
    """
    if curvature:
        pairs = _pairwise(arrays, base.log_hessian_values)
        return [(_square(logk), hermitian_part(_square(hess))) for logk, hess in pairs]
    pairs = _pairwise(arrays, lambda zs, ws: (base.values(zs, ws, log=True),))
    return [(_square(logk), np.ones((len(logk),) * 2)) for (logk,) in pairs]


def _power_families(base: KernelExpr, domain, family, curvature: bool) -> list:
    """One Gram family t -> K^t o B per (count, seed), B as in
    `_logs_and_blocks`.

    K^t is exp(t log K) on the continuous log branch of the base kernel,
    which equals the pairwise value of pow(base, t) exactly.
    """
    Pow(base, 1.0)  # raises the ShapeError of pow for a base that is not scalar
    sets = [sample_points(domain, n, s) for n, s in _check_family(family)]
    arrays = [point_array(pts, base.m) for pts in sets]
    return [
        _CurvatureFamilyGram(pts, blocks, lambda t, logk=logk: np.exp(t * logk))
        for pts, (logk, blocks) in zip(sets, _logs_and_blocks(base, arrays, curvature))
    ]


def _check_resolution(resolution: float) -> None:
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be positive and finite, got {resolution}")


def _check_interval(lo: float, hi: float) -> None:
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"the interval needs finite lo < hi, got [{lo}, {hi}]")


def _bisect(is_psd, lo: float, hi: float, resolution: float) -> tuple[float, float]:
    """Shrink [lo, hi], whose lower end fails and upper end passes, by halving.

    Stops once the bracket is at most `resolution` wide, or once its
    midpoint no longer splits it in floating point.
    """
    _check_resolution(resolution)
    _check_interval(lo, hi)
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
    _check_resolution(resolution)
    _check_interval(t_lo, t_hi)
    fams = _power_families(base, domain, family, curvature=True)
    verdicts: list[tuple[float, bool]] = []

    def is_psd(t: float) -> bool:
        ok = all(ldl_verdict(f.gram_at(t), tol).psd for f in fams)
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
    if any(t <= 0 for t in t_grid):
        raise ValueError("ordinary Wallach scan needs t > 0")
    fams = _power_families(base, domain, family, curvature=False)
    return [
        (t, all(ldl_verdict(f.gram_at(t), tol).psd for f in fams))
        for t in map(float, t_grid)
    ]


__all__ = [
    "DEFAULT_FAMILIES",
    "DEFAULT_TOL",
    "GramReport",
    "WallachEstimate",
    "gram",
    "kernel_order_check",
    "min_eigenvalue",
    "ordinary_wallach_scan",
    "psd_check",
    "wallach_scan",
]
