"""Gram assembly, eigenvalue certification, NND verdicts and Wallach scans.

Reports (`psd_check`, `kernel_order_check`) carry the least eigenvalue from
`eig.eigenvalues`, the max diagonal and tau = tol * (1 + max diagonal).
Scan verdicts need only a sign, so they come from the LDL^H factorisation
of G + tau I (`eig.ldl_verdict`), which computes no eigenvalue; a failing
one breaks down at a pivot that yields a vector v with v^H G v < -tau |v|^2.
A passing scan is evidence for non-negative definiteness; a failing scan is
a proof (that negative direction on a finite point set).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .eig import hermitian_part, ldl_verdict, min_eigenvalue
from .errors import BracketError, EvaluationError, KernelCalcError, ShapeError
from .expr import KernelExpr, LogHessian, _require_scalar
from .geometry import DomainSpec, Point, point_array, sample_points

#: default relative PSD tolerance: psd iff min eig >= -tol * (1 + max diagonal)
DEFAULT_TOL = 1e-9

#: default point families for scans: (count, seed) pairs
DEFAULT_FAMILIES = ((20, 11), (30, 23), (40, 37))


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

    def to_json(self) -> str:
        return json.dumps(
            {
                "kernel": self.kernel,
                "points": [
                    [[c.real, c.imag] for c in p.coords] for p in self.points
                ],
                "size": self.size,
                "min_eig": self.min_eigenvalue,
                "psd": self.psd,
                "tol": self.tolerance,
                "max_diagonal": self.max_diagonal,
                "threshold": self.tolerance * (1 + self.max_diagonal),
                "seed": self.seed,
            }
        )


@dataclass(frozen=True)
class WallachEstimate:
    """Bisection bracket for the boundary of a generalized Wallach set."""

    boundary: float
    bracket: tuple[float, float]
    resolution: float
    verdicts: tuple[tuple[float, bool], ...]

    def to_json(self) -> str:
        return json.dumps(
            {
                "boundary": self.boundary,
                "bracket": list(self.bracket),
                "resolution": self.resolution,
                "verdicts": [[t, bool(p)] for t, p in self.verdicts],
            }
        )


def _pairwise(points: np.ndarray, k: int, values_of) -> np.ndarray:
    """Matrix whose k x k block (p, q) is values_of at (z_p, z_q), conjugate-completed.

    All pairs p <= q are evaluated as one batch; a failing pair is named.
    """
    n = len(points)
    p, q = np.triu_indices(n)
    try:
        blocks = values_of(points[p], points[q])
    except KernelCalcError as exc:
        raise EvaluationError(f"evaluation failed: {exc}") from exc
    g = np.empty((n, k, n, k), dtype=complex)
    g[q, :, p, :] = blocks.conj().transpose(0, 2, 1)
    g[p, :, q, :] = blocks
    return g.reshape(n * k, n * k)


def gram(expr: KernelExpr, points) -> np.ndarray:
    """Block Gram matrix with block (p, q) = eval(expr, z_p, z_q), symmetrized."""
    pts = point_array(points, expr.m)
    return hermitian_part(_pairwise(pts, expr.size, expr.values))


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

    The block Gram B (k x k blocks) is assembled once; only the n x n
    modulation M(t) changes with the parameter, so no kernel is evaluated
    per t.  Wallach scans use B = log-Hessian Gram (or all ones) and
    M(t) = K^t; multiplier bounds use B = Gram of K and M(c) = c^2 - f fbar.
    """

    def __init__(self, points, blocks: np.ndarray, modulation):
        self.points = points
        self.blocks = blocks
        self.modulation = modulation
        self.k = blocks.shape[0] // len(points)

    def gram_at(self, t: float) -> np.ndarray:
        ones = np.ones((self.k, self.k))
        return hermitian_part(np.kron(self.modulation(t), ones) * self.blocks)


def _power_families(base: KernelExpr, domain, family, blocks_of) -> list:
    """One Gram family t -> K^t o B per (count, seed), B = blocks_of(points).

    K^t is exp(t log K) on the continuous log branch of the base kernel,
    which equals the pairwise value of pow(base, t) exactly.
    """
    _require_scalar(base, "pow")

    def log_values(zs, ws):
        return base.values(zs, ws, log=True)

    fams = []
    for n, s in family:
        pts = sample_points(domain, n, s)
        logk = _pairwise(point_array(pts, base.m), 1, log_values)
        fams.append(
            _CurvatureFamilyGram(
                pts, blocks_of(pts), lambda t, logk=logk: np.exp(t * logk)
            )
        )
    return fams


def _check_resolution(resolution: float) -> None:
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be positive and finite, got {resolution}")


def _bisect(is_psd, lo: float, hi: float, resolution: float) -> tuple[float, float]:
    """Shrink [lo, hi], whose lower end fails and upper end passes, by halving.

    Stops once the bracket is at most `resolution` wide, or once its
    midpoint no longer splits it in floating point.
    """
    _check_resolution(resolution)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"bisection needs finite lo < hi, got [{lo}, {hi}]")
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
    resolution: float = 0.05,
) -> WallachEstimate:
    """Bisect the boundary of {t : K^{t-2} (K^2 d dbar log K) is NND}.

    The scanned kernel is pow(base, t) * log_hessian(base); a t counts as
    psd only if every point family passes.
    """
    _check_resolution(resolution)
    fams = _power_families(
        base, domain, family, lambda pts: gram(LogHessian(base), pts)
    )
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
    fams = _power_families(
        base, domain, family, lambda pts: np.ones((len(pts), len(pts)))
    )
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
