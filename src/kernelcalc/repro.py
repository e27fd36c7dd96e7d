"""Reproducibility checks: the full battery of numeric certifications.

Each check is a standalone function returning a `CheckResult`; `run_all`
executes the whole battery in a fixed order.  The CLI `repro` subcommand and
the acceptance test suite both dispatch through this module so that command
line and pytest always agree.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .automorphisms import (
    CocycleSpec,
    MobiusMap,
    curvature_quasi_check,
    quasi_invariance_residual,
)
from .calculus import (
    phi_gram,
    series_head_coefficients,
)
from .eig import min_eigenvalue
from .expr import (
    BallCurvature,
    BallPower,
    Curvature,
    DiagonalSeries,
    JetKernel,
    Product,
    SzegoDisc,
    bergman_ball,
    bergman_disc,
)
from .fd import fd_relative_error
from .geometry import sample_array, sample_pairs, sampling_domain, unit_ball, unit_disc, unit_index
from .parser import parse_kernel
from .positivity import DEFAULT_FAMILIES, DEFAULT_TOL, families_pass, gram, psd_check
from .positivity import multiplier_bound, multiplier_families, wallach_scan
from .rkhs import z2_tensor_e1_norm


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_curvature_power_law() -> CheckResult:
    """curvature(szego, a, b) coincides with (1 - z wbar)^-(a+b+2)."""
    t0 = time.time()
    worst = 0.0
    for alpha, beta in ((1.0, 1.0), (0.5, 2.0), (2.0, 3.0)):
        curv = Curvature(SzegoDisc(), alpha, beta)
        ref = BallPower(1, alpha + beta + 2)
        zs, ws = zip(*sample_pairs(unit_disc(), 100, 101))
        a, b = curv.values(zs, ws), ref.values(zs, ws)
        worst = max(worst, float(np.max(np.abs(a - b) / np.abs(b))))
    elapsed = time.time() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    return CheckResult(
        "curvature power law on the disc",
        ok,
        f"rel err {worst:.2e} (< 1e-12), runtime {elapsed:.2f}s (< 1s)",
    )


def check_gram_factorization() -> CheckResult:
    """phi-section Gram entries equal a*b*(a+b) times the curvature kernel."""
    alpha, beta = 1.0, 2.0
    factor = alpha * beta * (alpha + beta)
    worst = 0.0
    for base, domain in (
        (SzegoDisc(), unit_disc()),
        (bergman_ball(2), unit_ball(2)),
    ):
        curv = Curvature(base, alpha, beta)
        for z, w in sample_pairs(domain, 50, 7):
            lhs = phi_gram(base, alpha, beta, z, w)
            rhs = factor * curv.eval(z, w)
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1.0))))
    ok = worst < 1e-10
    return CheckResult(
        "phi-section gram factorization",
        ok,
        f"rel err {worst:.2e} (< 1e-10)",
    )


def check_wallach_boundaries() -> CheckResult:
    """Curvature-family positivity boundaries for ball and disc kernels."""
    details = []
    ok = True
    cases = (
        (bergman_ball(2), unit_ball(2), -1.0, 1.0, 0.0),
        (bergman_ball(3), unit_ball(3), -1.0, 1.0, 0.0),
        (bergman_disc(), unit_disc(), -2.0, 0.0, -1.0),
    )
    for base, domain, lo, hi, expected in cases:
        t0 = time.time()
        est = wallach_scan(base, lo, hi, domain)
        elapsed = time.time() - t0
        hit = abs(est.boundary - expected) <= 0.05 and elapsed < 60.0
        ok = ok and hit
        details.append(
            f"{base.to_dsl()}: boundary {est.boundary:+.3f} "
            f"(expected {expected:+.1f} +- 0.05, {elapsed:.1f}s)"
        )
    return CheckResult("positivity boundary scans", ok, "; ".join(details))


def check_ball_matrix_failure() -> CheckResult:
    """The explicit ball matrix kernel at parameter 1.5 fails a psd check."""
    expr = BallCurvature(2, 1.5)
    hits = []
    for n, seed in DEFAULT_FAMILIES:
        rep = psd_check(expr, unit_ball(2), n, seed)
        if not rep.psd:
            hits.append(f"n={n}, seed={seed}: min eig {rep.min_eigenvalue:.3e}")
    ok = bool(hits)
    detail = hits[0] if hits else "no family produced a certified negative eigenvalue"
    return CheckResult("ball matrix kernel failure below threshold", ok, detail)


def check_derivative_section_norms() -> CheckResult:
    """Closed-form norms of the z2 (x) e1 derivative sections, m = 2."""
    worst = 0.0
    for lam in (2.5, 3.0, 5.0, 10.0):
        got = z2_tensor_e1_norm(2, lam)
        want = np.sqrt((lam - 1) / (lam * (lam - 2)))
        worst = max(worst, abs(got - want) / want)
    blowup = z2_tensor_e1_norm(2, 2.01)
    ok = worst < 1e-8 and blowup > 5.0
    return CheckResult(
        "derivative section norm formula",
        ok,
        f"rel err {worst:.2e} (< 1e-8), value at 2.01 = {blowup:.2f} (> 5)",
    )


def check_origin_jets() -> CheckResult:
    """Value and mixed first derivatives of the ball matrix kernel at 0."""
    worst = 0.0
    for m in (2, 3):
        for lam in (2.5, 4.0):
            expr = BallCurvature(m, lam)
            zero = (0.0,) * m
            tab = expr.eval_jet(zero, zero, 1)
            worst = max(
                worst, float(np.abs(tab.value - np.eye(m)).max())
            )
            for i in range(m):
                for j in range(m):
                    want = (lam - 1) * (i == j) * np.eye(m, dtype=complex)
                    want[j, i] += 1.0
                    got = tab.entry(unit_index(m, i), unit_index(m, j))
                    worst = max(worst, float(np.abs(got - want).max()))
    ok = worst < 1e-12
    return CheckResult(
        "ball matrix kernel origin jets",
        ok,
        f"max abs deviation {worst:.2e} (< 1e-12)",
    )


def check_series_head() -> CheckResult:
    """Head coefficients of the diagonal-series curvature expansion."""
    c0, c1 = series_head_coefficients([1, 0.1], 1.0)
    coeff_ok = abs(c0 - 1.0) < 1e-10 and abs(c1 + 0.6) < 1e-10
    rep = psd_check(Curvature(DiagonalSeries([1, 0.1]), 0.5, 0.5), unit_disc(0.1), 20, 11)
    ok = coeff_ok and not rep.psd
    return CheckResult(
        "diagonal series head coefficients",
        ok,
        f"coefficients ({c0:.6f}, {c1:.6f}) vs (1, -0.6); "
        f"near-origin psd={rep.psd} (min eig {rep.min_eigenvalue:.2e})",
    )


def check_quasi_invariance() -> CheckResult:
    """Transformation rules under ball automorphisms."""
    rng = np.random.default_rng(63)
    worst_det = 0.0
    for m in (1, 2, 3):
        base = bergman_ball(m) if m > 1 else bergman_disc()
        domain = sampling_domain(m)
        for _ in range(10):
            a = 0.5 * rng.random() * _random_direction(rng, m)
            phi = MobiusMap(a)
            pairs = sample_pairs(domain, 20, int(rng.integers(1, 10**6)))
            res = quasi_invariance_residual(
                base, CocycleSpec("det_jacobian_power", 1.0), phi, pairs
            )
            worst_det = max(worst_det, res)
    worst_curv = 0.0
    for t in (0.0, 0.5, 1.0):
        for _ in range(10):
            a = 0.5 * rng.random() * _random_direction(rng, 2)
            phi = MobiusMap(a)
            pairs = sample_pairs(unit_ball(2), 20, int(rng.integers(1, 10**6)))
            res = curvature_quasi_check(bergman_ball(2), t, phi, pairs)
            worst_curv = max(worst_curv, res)
    ok = worst_det < 1e-8 and worst_curv < 1e-8
    return CheckResult(
        "quasi-invariance residuals",
        ok,
        f"det-cocycle worst {worst_det:.2e}, curvature-cocycle worst "
        f"{worst_curv:.2e} (both < 1e-8)",
    )


def _random_direction(rng, m):
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return v / np.linalg.norm(v)


def check_multiplier_bound() -> CheckResult:
    """Coordinate multiplier bound on the disc and its transfer property."""
    est = multiplier_bound(SzegoDisc(), 0, unit_disc())
    bound_ok = abs(est.bound - 1.0) <= 0.01

    # transfer: whenever (c^2 - z wbar) K passes a family, so does
    # (c^2 - z wbar)^2 (curvature of K) on the same family
    base = SzegoDisc()
    curv = Curvature(base, 1.0, 1.0)
    violations = 0
    tested = 0
    plains = multiplier_families(base, 0, unit_disc(), DEFAULT_FAMILIES)
    squares = multiplier_families(curv, 0, unit_disc(), DEFAULT_FAMILIES, power=2)
    for plain, squared in zip(plains, squares):
        for c in (0.8, 0.9, 1.0, 1.1, 1.5):
            tested += 1
            if (
                families_pass([plain], c, DEFAULT_TOL)
                and not families_pass([squared], c, DEFAULT_TOL)
            ):
                violations += 1
    ok = bound_ok and violations == 0
    return CheckResult(
        "coordinate multiplier bound and transfer",
        ok,
        f"bound {est.bound:.4f} (1.00 +- 0.01); transfer violations "
        f"{violations}/{tested}",
    )


def check_jet_kernel() -> CheckResult:
    """Order-0 jet kernel is the product kernel; order-1 Gram is definite."""
    jk0 = JetKernel(SzegoDisc(), bergman_disc(), 0)
    prod = Product(SzegoDisc(), bergman_disc())
    zs, ws = zip(*sample_pairs(unit_disc(), 50, 17))
    worst = float(np.max(np.abs(jk0.values(zs, ws) - prod.values(zs, ws))))
    pts = sample_array(unit_disc(), 10, 29)
    g = gram(JetKernel(SzegoDisc(), SzegoDisc(), 1), pts)
    mineig = min_eigenvalue(g)
    ok = worst < 1e-14 and mineig > 0
    return CheckResult(
        "jet kernel reductions",
        ok,
        f"order-0 deviation {worst:.2e} (< 1e-14); order-1 gram min eig "
        f"{mineig:.3e} (> 0)",
    )


_FD_EXPRESSIONS = (
    "szego_disc()",
    "bergman_disc()",
    "ball_power(1, 2.5)",
    "bergman_ball(2)",
    "diagonal_series([1.0, 0.5, 0.25])",
    "pow(szego_disc(), 0.7)",
    "product(szego_disc(), bergman_disc())",
    "sum(szego_disc(), scale(bergman_disc(), 0.5))",
    "scale(szego_disc(), 2.0)",
    "tensor(szego_disc(), szego_disc())",
    "log_hessian(bergman_ball(2))",
    "curvature(ball_power(2, 3.0), 1.0, 1.0)",
    "ball_curvature(2, 3.0)",
    "jet(szego_disc(), szego_disc(), 1)",
    "jet(bergman_ball(2), bergman_ball(2), 1)",
)

#: seeded (z, w) pairs per expression of the finite-difference cross-check
_FD_PAIRS = 50


def check_fd_oracle() -> CheckResult:
    """Jet-engine derivatives against the Cauchy integrals of `fd`."""
    worst = 0.0
    worst_name = ""
    for text in _FD_EXPRESSIONS:
        expr = parse_kernel(text)
        domain = sampling_domain(expr.m, 0.35)
        for seed in range(_FD_PAIRS):
            z, w = sample_array(domain, 2, seed + 1)
            err = fd_relative_error(expr, z, w, 2)
            if err > worst:
                worst, worst_name = err, text
    ok = worst < 1e-6
    return CheckResult(
        "finite-difference differentiation oracle",
        ok,
        f"worst rel err {worst:.2e} (< 1e-6), at {worst_name}",
    )


ALL_CHECKS = (
    check_curvature_power_law,
    check_gram_factorization,
    check_wallach_boundaries,
    check_ball_matrix_failure,
    check_derivative_section_norms,
    check_origin_jets,
    check_series_head,
    check_quasi_invariance,
    check_multiplier_bound,
    check_jet_kernel,
    check_fd_oracle,
)


def run_all() -> list[CheckResult]:
    """Run the full battery in order."""
    return [check() for check in ALL_CHECKS]
