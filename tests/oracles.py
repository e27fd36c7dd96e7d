"""Independent cross-checks that only the tests use.

Each oracle computes a quantity that the engine also computes, by another
route: single points by `as_point`, the coercion through one `Point` that
`point_array` replaced, the log-Hessian by the quotient formula from an
order-1 jet, and the explicit ball matrix kernel from its hand-coded
closed form, seeded sampling by a loop that draws and tests one attempt at a time, the
Cauchy-integral derivative table of `kernelcalc.fd` by Richardson-extrapolated
fourth-order central stencils summed one term at a time, the quasi-invariance
residual by separate calls for the z and the w points, jet products by contracting the w group and then the z group,
jet pow, exp and log by summing the powers of the series argument,
RKHS inner products by one jet table per pair of terms, the LDL^H
verdict by right-looking rank-1 Schur updates, the left-looking LDL^H
elimination and the Householder tridiagonal form as they ran before step
plans held their views and buffers, eigenvalues by vectorised
Sturm multisection of their brackets, the early-exit pivot test by
Sturm counts guarded at every step, sampled Grams by per-pair evaluation,
conjugate completion and the two-halves symmetrization, the phi-section
Gram one entry (two jet tables) at a time, Mobius Jacobians by pushing
order-1 jets of the coordinates through the involution, the products
and series of balanced jets on the full pair tables, and the log-Hessian
and jet-kernel matrices of derivative jets one shifted entry at a time,
kernel DSL text by the tokenizer class with its two comma-list loops
that the one token list and `_sequence` rule of `kernelcalc.parser` replaced,
and the whole evaluation path by the functions whose per-call bookkeeping
was cut, as they ran before (`with_per_call_bookkeeping`).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import operator
from contextlib import contextmanager
from itertools import product
from unittest import mock

import numpy as np

from kernelcalc import automorphisms, fd, positivity, repro, rkhs
from kernelcalc import expr as expr_module
from kernelcalc.automorphisms import CocycleSpec, MobiusMap
from kernelcalc.eig import _MAX_PASSES, _SPLIT, LdlVerdict, hermitian_part
from kernelcalc.errors import (BranchError, DomainError, EvaluationError, OrderCapError,
                               ParseError, ShapeError)
from kernelcalc.expr import DEFAULT_ORDER_CAP, JetKernel, JetTable, KernelExpr, Pow, _coords
from kernelcalc.params import checked
from kernelcalc.geometry import (
    DomainSpec,
    Point,
    graded_lex_tuples,
    point_array,
    unit_index,
)
from kernelcalc import jets
from kernelcalc.jets import Jet, _Group, _run_pairs, variable_jets
from kernelcalc.parser import _TOKEN_RE, _build
from kernelcalc.rkhs import RkhsElement


def as_point(p, m: int | None = None) -> Point:
    """Coerce a Point / scalar / sequence of complex numbers into a Point."""
    if isinstance(p, Point):
        pt = p
    elif isinstance(p, (int, float, complex)):
        pt = Point((p,))
    else:
        pt = Point(p)
    if m is not None and pt.dim != m:
        raise DomainError(f"expected a point of C^{m}, got dimension {pt.dim}")
    return pt


def log_hessian_eval(expr: KernelExpr, z, w) -> np.ndarray:
    """(K d_i dbar_j K - d_i K dbar_j K) / K^2 assembled from an order-1 jet."""
    if not expr.is_scalar:
        raise ShapeError("log_hessian_eval needs a scalar kernel")
    m = expr.m
    table = expr.eval_jet(z, w, 1)
    k = table.value[0, 0]
    if k == 0:
        raise EvaluationError("kernel vanishes at the requested pair")
    out = np.empty((m, m), dtype=complex)
    zero = (0,) * m
    for i in range(m):
        ei = unit_index(m, i)
        for j in range(m):
            ej = unit_index(m, j)
            kij = table.entry(ei, ej)[0, 0]
            ki = table.entry(ei, zero)[0, 0]
            kj = table.entry(zero, ej)[0, 0]
            out[i, j] = (k * kij - ki * kj) / (k * k)
    return out


def ball_curvature_closed_form(m: int, lam: float, z, w) -> np.ndarray:
    """Hand-coded closed form of the explicit ball matrix kernel.

    Serves as a cross-check against the jet-engine route of the
    BallCurvature AST node.
    """
    if m < 2:
        raise ShapeError("closed form defined for dimension >= 2")
    z = as_point(z, m).array()
    w = as_point(w, m).array()
    ip = complex(np.dot(z, w.conj()))
    if ip == 1:
        raise EvaluationError("singular prefactor: <z, w> = 1")
    out = np.empty((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            if i == j:
                out[i, j] = 1 - sum(
                    z[k] * w[k].conjugate() for k in range(m) if k != i
                )
            else:
                out[i, j] = z[j] * w[i].conjugate()
    return out / (1 - ip) ** lam


def sample_points_per_attempt(domain: DomainSpec, count: int, seed: int) -> list[Point]:
    """`sample_points` one attempt at a time: m moduli, then m angles, then
    the ball's rejection test."""
    rng = np.random.default_rng(seed)
    r, m = domain.sample_radius, domain.dim
    pts: list[Point] = []
    while len(pts) < count:
        rho = r * np.sqrt(rng.uniform(0, 1, m))
        theta = rng.uniform(0, 2 * np.pi, m)
        z = rho * np.exp(1j * theta)
        if domain.kind == "unit-ball" and np.linalg.norm(z) > r:
            continue
        pts.append(Point(z))
    return pts


# 4th-order central weights on offsets -2..2, one row per derivative order
# 0, 1, 2 (times 1/h^order)
_WEIGHTS = np.array([[0, 0, 12, 0, 0], [1, -8, 0, 8, -1], [-1, 16, -30, 16, -1]]) / 12


def grid_values_per_term(expr: KernelExpr, z, w, h: float) -> dict:
    """Kernel values on the tensor grid z + h*o_z, w + h*o_w, offsets in
    -2..2, evaluated as one batch of order-0 values."""
    m = expr.m
    z = as_point(z, m).array()
    w = as_point(w, m).array()
    offsets = list(product(range(-2, 3), repeat=m))
    grid = h * np.array(offsets)
    n = len(offsets)
    vals = expr.values(np.repeat(z + grid, n, axis=0), np.tile(w + grid, (n, 1)))
    return {
        (oz, ow): vals[a * n + b]
        for a, oz in enumerate(offsets)
        for b, ow in enumerate(offsets)
    }


def _apply_stencil(vals, i, j, m, h: float):
    for e in (*i, *j):
        if e > 2:
            raise ValueError("finite-difference oracle supports order <= 2 per variable")
    acc = None
    axes = [[(o - 2, c) for o, c in enumerate(_WEIGHTS[e]) if c] for e in (*i, *j)]
    for combo in product(*axes):
        offs = tuple(c[0] for c in combo)
        coef = 1.0
        for c in combo:
            coef *= c[1]
        key = (offs[:m], offs[m:])
        term = coef * vals[key]
        acc = term if acc is None else acc + term
    return acc / h ** (sum(i) + sum(j))


def fd_jet_table_per_term(expr: KernelExpr, z, w, order: int, h: float = 0.02) -> dict:
    """Mixed derivatives by fourth-order central stencils in every z and wbar
    variable (varying w along the real axis differentiates in wbar), one
    stencil term at a time: each derivative sums its up to 5^(2m) weighted
    grid values in a Python loop, at steps h and h/2, and the Richardson
    step (16 D(h/2) - D(h)) / 15 follows; {(i, j): k x k matrix}."""
    m = expr.m
    coarse = grid_values_per_term(expr, z, w, h)
    fine = grid_values_per_term(expr, z, w, h / 2)
    indices = graded_lex_tuples(m, order)
    out = {}
    for i in indices:
        for j in indices:
            d_h = _apply_stencil(coarse, i, j, m, h)
            d_h2 = _apply_stencil(fine, i, j, m, h / 2)
            out[(i, j)] = (16.0 * d_h2 - d_h) / 15.0
    return out


def quasi_invariance_residual_two_calls(
    expr: KernelExpr, cocycle: CocycleSpec, phi: MobiusMap, pairs
) -> float:
    """`kernelcalc.automorphisms.quasi_invariance_residual` with the z and w
    points taken apart: two cocycle calls, two image calls and two `values`
    calls, the moved pairs first, the code it ran before it stacked them."""
    if phi.m != expr.m:
        raise ShapeError("map and kernel dimensions differ")
    pairs = list(pairs)
    if not pairs:
        return 0.0
    zs = point_array([z for z, _ in pairs], expr.m)
    ws = point_array([w for _, w in pairs], expr.m)
    jz = cocycle.matrices(phi, zs, expr.size)
    jw = cocycle.matrices(phi, ws, expr.size)
    moved = expr.values(phi.images(zs), phi.images(ws))
    rhs = expr.values(zs, ws)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = jz @ moved @ jw.conj().transpose(0, 2, 1)
        res = np.linalg.norm(lhs - rhs, axis=(1, 2)) / (1 + np.linalg.norm(rhs, axis=(1, 2)))
    if not np.isfinite(res).all():
        p = int(np.argmax(~np.isfinite(res)))
        z, w = (tuple(complex(c) for c in pts[p]) for pts in (zs, ws))
        raise EvaluationError(f"the residual is not finite at pair ({z}, {w})")
    return float(res.max())


def jacobians_by_jets(phi: MobiusMap, zs) -> np.ndarray:
    """`MobiusMap.jacobians` by the jet engine: order-1 jets of the
    coordinates pushed through phi_a(z) = (a - P_a z - s Q_a z) / (1 - <z, a>),
    the identity at a = 0 (every coordinate 0), then U applied; a (B, m, m)
    array."""
    zs = point_array(zs, phi.m)
    m, a = phi.m, phi.a
    img = variable_jets(zs, zs, m, 1, 0)[0]
    if any(a):
        s = math.sqrt(1 - sum(abs(c) ** 2 for c in a))
        ip = img[0] * a[0].conjugate()
        for k in range(1, m):
            ip = ip + img[k] * a[k].conjugate()
        denom = (1.0 - ip) ** -1
        # P_a z = <z, u> u for the unit vector u = a / |a|, scaled first:
        # |a|^2 may be subnormal, and so may a, whose reciprocal overflows
        u = np.array(a) * 2.0**600
        u = u / max(abs(c) for c in u)
        u = u / np.linalg.norm(u)
        proj = img[0] * u[0].conjugate()
        for k in range(1, m):
            proj = proj + img[k] * u[k].conjugate()
        img = [(a[k] - proj * u[k] - s * (img[k] - proj * u[k])) * denom for k in range(m)]
    zero = (0,) * m
    jac = np.stack(
        [np.stack([img[k].deriv(unit_index(m, i), zero) for i in range(m)], axis=-1)
         for k in range(m)],
        axis=-2,
    )
    return phi.unitary @ jac


def _cuts(bounds: np.ndarray, max_pairs: int):
    """Yield (k0, k1, s0, s1) for runs of consecutive outputs k0 .. k1 - 1,
    whose pairs s0 .. s1 - 1 (output k has bounds[k] .. bounds[k + 1] - 1)
    number at most `max_pairs` unless one output alone has more."""
    k0 = 0
    while k0 < len(bounds) - 1:
        k1 = max(int(np.searchsorted(bounds, bounds[k0] + max_pairs, "right")) - 1, k0 + 1)
        yield k0, k1, bounds[k0], bounds[k1]
        k0 = k1


@functools.cache
def _chunks(group: _Group, max_pairs: int) -> list:
    """The product tables cut into runs of consecutive product monomials,
    (rows, left, right, starts) each, with at most `max_pairs` pairs per
    run unless one monomial alone has more."""
    left, right, starts = group.pairs
    bounds = np.r_[starts, len(left)]
    return [(slice(k0, k1), left[s0:s1], right[s0:s1], starts[k0:k1] - s0)
            for k0, k1, s0, s1 in _cuts(bounds, max_pairs)]


def convolve_separable(x: np.ndarray, y: np.ndarray, gz: _Group, gw: _Group) -> np.ndarray:
    """Truncated Leibniz product of two coefficient arrays (batch broadcast).

    The w group is contracted first, for the z-pairs of a run of output
    z-monomials at a time; the z group is then summed over the pairs of each
    output monomial.  Both are segment sums in a fixed order, so how the
    outputs are cut into runs (by size) leaves every result unchanged.
    """
    if gz.size == gw.size == 1:  # constant jets: no pairs to sum
        return x * y
    wl, wr, wstarts = gw.pairs
    batch = np.broadcast_shapes(x.shape[:-2], y.shape[:-2])
    out = np.empty(batch + (gz.size, gw.size), dtype=complex)
    for rows, zl, zr, zstarts in _chunks(gz, _run_pairs(math.prod(batch) * len(wl))):
        terms = x[..., zl, :][..., wl]
        terms = np.multiply(terms, y[..., zr, :][..., wr],
                            out=terms if x.shape[:-2] == batch else None)
        terms = np.add.reduceat(terms, wstarts, axis=-1)
        out[..., rows, :] = np.add.reduceat(terms, zstarts, axis=-2)
        del terms  # free this run's temporaries before the next run's exist
    return out


def _sum_powers(self: Jet, u: Jet, weights) -> np.ndarray:
    """sum_k weights[k-1] u^k over k = 1 .. nz + nw, the truncation
    order; u has no constant term, so the sum stops once u^k vanishes."""
    acc = np.zeros_like(u.coeffs)
    term = None
    for w in itertools.islice(weights, self.nz + self.nw):
        term = u if term is None else term * u
        if not term.coeffs.any():
            break
        acc += term.coeffs * complex(w)
    return acc


def _split(f: Jet):
    """(c0, x) with f = c0 + x."""
    x = f.coeffs.copy()
    x[..., 0, 0] = 0
    return f.value, x


def pow_by_powers(f: Jet, t: float) -> np.ndarray:
    """(c0 + x)^t = c0^t (1 + sum_k binom(t, k) (x/c0)^k), truncated."""
    c0, x = _split(f)
    head = c0 ** t if t == int(t) else np.exp(t * np.log(c0))
    x *= (1.0 / c0)[..., None, None]
    binomials = itertools.accumulate(
        ((t - k) / (k + 1) for k in itertools.count()), operator.mul
    )
    out = _sum_powers(f, Jet(f.m, f.nz, f.nw, x), binomials)
    out[..., 0, 0] += 1
    return out * head[..., None, None]


def exp_by_powers(f: Jet) -> np.ndarray:
    c0, x = _split(f)
    inverse_factorials = itertools.accumulate(
        (1 / k for k in itertools.count(1)), operator.mul
    )
    out = _sum_powers(f, Jet(f.m, f.nz, f.nw, x), inverse_factorials)
    out[..., 0, 0] += 1
    return out * np.exp(c0)[..., None, None]


def log_by_powers(f: Jet) -> np.ndarray:
    c0, x = _split(f)
    x *= (1.0 / c0)[..., None, None]
    alternating = ((-1.0) ** (k + 1) / k for k in itertools.count(1))
    out = _sum_powers(f, Jet(f.m, f.nz, f.nw, x), alternating)
    out[..., 0, 0] += np.log(c0)
    return out


def inner_product_per_pair(e1: RkhsElement, e2: RkhsElement) -> complex:
    """`kernelcalc.rkhs.inner_product` with one `eval_jet` per pair of
    terms, each at the order that pair needs."""
    k = e1.kernel
    acc = 0j
    for s in e1.terms:
        for t in e2.terms:
            order = max(s.index.order, t.index.order)
            table = k.eval_jet(t.base, s.base, order)
            mat = table.entry(t.index.entries, s.index.entries)
            eta = np.array(s.direction)
            xi = np.array(t.direction)
            acc += s.coef * t.coef.conjugate() * (xi.conj() @ (mat @ eta))
    return acc


def _hermitian_copy(h) -> np.ndarray:
    """`hermitian_part` of a finite square matrix, refusing any other input."""
    a = np.asarray(h, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(a).all():
        raise EvaluationError("matrix has non-finite entries")
    return hermitian_part(a)


def tridiagonal_unplanned(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and |off-diagonal| of a real tridiagonal unitarily similar to
    the Hermitian `a` (n >= 1; its storage is reused).  H = I - u u^H maps
    column k below the diagonal to a multiple of e_1; the trailing block
    H A H = A - u w^H - w u^H is written once per column, contiguously; a
    diagonal unitary similarity then makes the off-diagonal real."""
    b, n = a, a.shape[0]
    d, e = np.empty(n), np.zeros(n - 1)
    flat = [a.reshape(-1), np.empty(n * n, dtype=complex)]
    uw, wu = np.empty((2, 2, n), dtype=complex)
    for k in range(n - 1):
        m, d[k], x = n - 1 - k, b[0, 0].real, b[1:, 0]
        e[k] = alpha = math.sqrt(np.vdot(x, x).real)
        b, trail = flat[(k + 1) % 2][: m * m].reshape(m, m), b[1:, 1:]
        if alpha == 0 or m == 1:  # nothing to reduce
            np.copyto(b, trail)
            continue
        # u = sqrt(beta) v, v = x / alpha normalised before beta = 2 / |v|^2
        # (summed: alpha may have lost entries whose squares underflow)
        u, w = uw[0, :m], uw[1, :m]
        np.divide(x, alpha, out=u)
        v0 = complex(u[0])
        u[0] = v0 + (v0 / abs(v0) if v0 else 1.0)
        u *= math.sqrt(2.0 / np.vdot(u, u).real)
        np.matmul(trail, u, out=w)
        w -= (0.5 * np.vdot(u, w).real) * u
        np.conjugate(uw[::-1, :m], out=wu[:, :m])
        np.subtract(trail, np.matmul(uw[:, :m].T, wu[:, :m], out=b), out=b)
    d[-1] = b[0, 0].real
    return d, e


def ldl_eliminate_unplanned(g: np.ndarray, tol: float) -> tuple[int | None, np.ndarray, float]:
    """LDL^H of A = G + tau I, tau = tol * (1 + max diag G), left-looking:
    (the first pivot k that is not > 0, or None; the factors; tau).  All
    pivots are > 0 exactly when the least eigenvalue of (the Hermitian part
    of) G exceeds -tau.  No eigenvalue and no witness is computed.

    Step k needs the entries of A only in column k, on and below the
    diagonal, so the factors overwrite A as they are made: below the
    diagonal, column j holds column j of L D (L's column times the pivot
    d_j); above it, row j holds row j of L^H.  Column k of the Schur
    complement is then A[k:, k] - (L D)[k:, :k] L^H[:k, k], one mat-vec.
    """
    a = _hermitian_copy(g)
    n = a.shape[0]
    if n == 0:
        raise ValueError("matrix is empty: there is no verdict to give")
    shift = tol * (1 + float(a.diagonal().real.max()))
    a.flat[:: n + 1] += shift
    for k in range(n):
        col = a[k:, k]
        if k:
            col -= a[k:, :k] @ a[:k, k]
        d = col[0].real
        if not d > 0:
            return k, a, shift
        a[k, k + 1 :] = col[1:].conj() / d  # row k of L^H
    return None, a, shift


def scaled_tridiagonal_unplanned(h) -> tuple[np.ndarray, np.ndarray, int] | None:
    """(d, e) of h as `eig.eigenvalues` reduced it before step plans (the
    Hermitian copy scaled by 2^-exponent, 2^exponent just above its largest
    entry) and the exponent; None when every entry is 0."""
    a = _hermitian_copy(h)
    big = float(np.max(np.abs(a.view(float)), initial=0.0))
    if big == 0:
        return None
    exponent = math.frexp(big)[1]
    return (*tridiagonal_unplanned(np.ldexp(a.view(float), -exponent).view(complex)), exponent)


def ldl_verdict_right_looking(g, tol: float) -> LdlVerdict:
    """`ldl_verdict` by the right-looking elimination: n rank-1 Schur updates
    of the trailing block, L stored below the diagonal."""
    a = _hermitian_copy(g)
    n = a.shape[0]
    if n == 0:
        raise ValueError("matrix is empty: there is no verdict to give")
    shift = tol * (1 + float(np.max(a.diagonal().real)))
    a.flat[:: n + 1] += shift
    for k in range(n):
        d = a[k, k].real
        if not d > 0:
            return _failed_right_looking(g, a, k, shift)
        col = a[k + 1 :, k] / d
        a[k + 1 :, k + 1 :] -= np.outer(col, a[k, k + 1 :])
        a[k + 1 :, k] = col  # column k of the unit lower factor L
    return LdlVerdict(True, shift)


def _failed_right_looking(g, factored: np.ndarray, k: int, shift: float) -> LdlVerdict:
    """Solve L^H v = e_k over the leading (k + 1) block by back substitution."""
    v = np.zeros(factored.shape[0], dtype=complex)
    v[k] = 1.0
    for i in range(k - 1, -1, -1):
        v[i] = -(factored[i + 1 : k + 1, i].conj() @ v[i + 1 : k + 1])
    gv = np.asarray(g, dtype=complex) @ v
    rayleigh = float(np.vdot(v, gv).real / np.vdot(v, v).real)
    return LdlVerdict(False, shift, k, v, rayleigh)


def _pivmin(e2: np.ndarray) -> float:
    return np.finfo(float).tiny * max(1.0, float(e2.max(initial=0.0)))


def _guarded_counts(d: np.ndarray, e2: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Eigenvalues of T below each shift in `x`: the negative pivots of
    T - x I = L D L^T.  A pivot below pivmin in size becomes -pivmin, as in
    LAPACK's dstebz, so that the count is monotone in x in IEEE arithmetic
    (Demmel, Dhillon & Ren, ETNA 3, 1995)."""
    pivmin = _pivmin(e2)
    count = np.zeros(x.shape, dtype=np.intp)
    q = d[0] - x
    for k in range(len(d)):
        if k:
            q = (d[k] - x) - e2[k - 1] / q
        q[np.abs(q) < pivmin] = -pivmin
        count += q < 0
    return count


def _multisection(d, e2, lo: float, hi: float, count: int, width: float) -> np.ndarray:
    """Midpoints of brackets 0 .. count - 1, each starting as [lo, hi].

    A pass counts at 15 interior shifts of every bracket and keeps the part
    where the count passes the bracket's index, until every bracket is at
    most `width` wide.
    """
    lo, hi = np.full(count, lo), np.full(count, hi)
    rows, steps = np.arange(count), np.arange(1, _SPLIT) / _SPLIT
    for p in range(_MAX_PASSES):
        x = lo[:, None] + (hi - lo)[:, None] * steps
        # every bracket starts as the same interval: pass 1 counts one row
        counts = _guarded_counts(d, e2, x[:1] if p == 0 else x)
        if np.any(np.diff(counts) < 0):
            raise EvaluationError("eigensolver failed: Sturm counts not monotone in the shift")
        below = np.count_nonzero(counts <= rows[:, None], axis=1)
        grid = np.column_stack([lo, x, hi])
        lo, hi = grid[rows, below], grid[rows, below + 1]
        if np.all(hi - lo <= width):
            return (lo + hi) / 2
    raise EvaluationError(f"eigensolver failed: no convergence in {_MAX_PASSES} passes")


def spectrum_by_multisection(h, count: int | None = None) -> np.ndarray:
    """The `count` least eigenvalues (all when None) by vectorised Sturm
    multisection of their brackets: 15 shifts of every bracket counted per
    pass by `_guarded_counts`, the search `eigenvalues` ran for spectra
    before it used the root-free QL iteration (its blocked unguarded counts
    equal the guarded ones wherever they did not fall back to them)."""
    with np.errstate(all="ignore"):  # overflow is detected, not warned about
        a = _hermitian_copy(h)
        n = a.shape[0]
        count = n if count is None else count
        big = float(np.max(np.abs(a.view(float)), initial=0.0))
        if big == 0:
            return np.zeros(count)
        exponent = math.frexp(big)[1]  # 2^-exponent rounds only subnormals
        d, e = tridiagonal_unplanned(np.ldexp(a.view(float), -exponent).view(complex))
        if not np.all(np.isfinite(np.r_[d, e])):
            raise EvaluationError("eigensolver failed: the tridiagonal form is not finite")
        radius = np.r_[e, 0.0] + np.r_[0.0, e]
        lo, hi = float(np.min(d - radius)), float(np.max(d + radius))
        eps, scale = float(np.finfo(float).eps), max(abs(lo), abs(hi))
        pad = 2.1 * n * eps * scale  # as in LAPACK's dstebz
        mids = _multisection(d, e * e, lo - pad, hi + pad, count, 2 * eps * scale)
        out = np.ldexp(np.sort(mids), exponent)
    if not np.all(np.isfinite(out)):
        raise EvaluationError("eigensolver failed: an eigenvalue overflows")
    return out


def min_eigenvalue_by_multisection(h) -> float:
    """The least eigenvalue by the vectorised multisection of bracket 0, the
    code `min_eigenvalue` ran before it searched the grid with early-exit
    scalar counts."""
    return float(spectrum_by_multisection(h, 1)[0])


def hermitian_part_by_halves(a: np.ndarray) -> np.ndarray:
    """(A + A^H) / 2 as the sum of two halved matrices."""
    return a / 2 + a.conj().T / 2


def pairwise_by_completion(points: np.ndarray, values_of) -> tuple:
    """The Grams `positivity._pairwise` gives for one (n, m) point set, each
    pair p <= q evaluated on its own: per array of values_of, the (n, k, n, k)
    array with block (p, q) the value and block (q, p) its conjugate
    transpose, then `hermitian_part_by_halves` of its nk x nk matrix."""
    n = len(points)
    grams = None
    for p in range(n):
        for q in range(p, n):
            outs = values_of(points[p : p + 1], points[q : q + 1])
            if grams is None:
                grams = [np.empty((n, v.shape[-1], n, v.shape[-1]), dtype=complex) for v in outs]
            for g, v in zip(grams, outs):
                g[q, :, p, :] = v[0].conj().T
                g[p, :, q, :] = v[0]
    return tuple(hermitian_part_by_halves(g.reshape(n * g.shape[1], -1)) for g in grams)


def phi_gram_by_entries(expr: KernelExpr, alpha: float, beta: float, z, w) -> np.ndarray:
    """The phi-section Gram entry by entry, two fresh jet tables each:
    b^2 d_i dbar_j K^a K^b + a^2 K^a d_i dbar_j K^b
    - a b (d_i K^a dbar_j K^b + dbar_j K^a d_i K^b)."""
    m, a, b = expr.m, alpha, beta
    zero = (0,) * m
    out = np.empty((m, m), dtype=complex)

    def entry(tab, di, dj):
        return tab.entry(di, dj)[0, 0]

    for i in range(m):
        for j in range(m):
            ka = Pow(expr, a).eval_jet(z, w, 1)
            kb = Pow(expr, b).eval_jet(z, w, 1)
            ei, ej = unit_index(m, i), unit_index(m, j)
            out[i, j] = (
                b * b * entry(ka, ei, ej) * entry(kb, zero, zero)
                + a * a * entry(ka, zero, zero) * entry(kb, ei, ej)
                - a * b * (entry(ka, ei, zero) * entry(kb, zero, ej)
                           + entry(ka, zero, ej) * entry(kb, ei, zero))
            )
    return out


@contextmanager
def full_tables():
    """Read every jet as unbalanced inside the block, so that products and
    series sum the full pair tables.  Yields the (m, nz, nw) of each balance
    check that was answered, so a caller can see that the block took
    effect."""
    asked = []

    def unbalanced(coeffs, m, nz, nw):
        asked.append((m, nz, nw))
        return False

    with mock.patch.object(jets, "_balanced", unbalanced):
        yield asked


def _shift_table(m: int, n: int, d: tuple) -> tuple:
    """(source, factor) of d/dz^d on the monomials of degree <= n: output
    monomial a reads a + d, times (a + d)! / a!, an integer."""
    index = {a: k for k, a in enumerate(graded_lex_tuples(m, n))}
    out = graded_lex_tuples(m, n - sum(d))
    source = [index[tuple(x + y for x, y in zip(a, d))] for a in out]
    factor = [math.prod(math.factorial(x + y) // math.factorial(x) for x, y in zip(a, d))
              for a in out]
    return np.array(source, dtype=np.intp), np.array(factor, dtype=float)


def shift_per_entry(f: Jet, di, dj) -> Jet:
    """The jet of (d/dz)^di (d/dwbar)^dj f at caps (nz - |di|, nw - |dj|),
    from index tables built monomial by monomial."""
    di, dj = tuple(di), tuple(dj)
    sz, fz = _shift_table(f.m, f.nz, di)
    sw, fw = _shift_table(f.m, f.nw, dj)
    coeffs = f.coeffs[..., sz[:, None], sw[None, :]] * (fz[:, None] * fw[None, :])
    return Jet(f.m, f.nz - sum(di), f.nw - sum(dj), coeffs)


def _entry_matrix(rows) -> np.ndarray:
    """The (B, r, c, ...) coefficients of r rows of c entry jets of batch
    (B, 1, 1), concatenated."""
    return np.concatenate([np.concatenate([e.coeffs for e in row], axis=2) for row in rows],
                          axis=1)


def hessian_per_entry(g: Jet) -> np.ndarray:
    """The (B, m, m) Hessian coefficients of a (B, 1, 1) jet g, from m^2
    separate shifts by (e_i, e_j)."""
    units = [unit_index(g.m, k) for k in range(g.m)]
    return _entry_matrix([[shift_per_entry(g, i, j) for j in units] for i in units])


def jet_kernel_per_entry(expr: JetKernel, z, w, nz: int, nw: int) -> Jet:
    """`JetKernel.jets` one entry at a time: K1 times the d^2 jets of K2,
    each truncated to caps (nz + |i|, nw + |j|) and then shifted by (i, j),
    so that every entry comes out at caps (nz, nw)."""
    j1 = expr.k1.jets(z, w, nz, nw)
    j2 = expr.k2.jets(z, w, nz + expr.order, nw + expr.order)
    indices = graded_lex_tuples(expr.m, expr.order)
    rows = [[shift_per_entry(j2.truncate(nz + sum(i), nw + sum(j)), i, j) for j in indices]
            for i in indices]
    return j1 * Jet(expr.m, nz, nw, _entry_matrix(rows))


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        while self.pos < len(text):
            m = _TOKEN_RE.match(text, self.pos)
            if m is None or m.end() == self.pos:
                # skip pure whitespace tail
                if text[self.pos :].strip() == "":
                    break
                raise ParseError(
                    f"unexpected character {text[self.pos:self.pos+1]!r}", self.pos
                )
            for kind in ("name", "number", "punct"):
                val = m.group(kind)
                if val is not None:
                    self.tokens.append((kind, val, m.start(kind)))
                    break
            self.pos = m.end()
        self.index = 0

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return ("eof", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.index += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}", pos)


def parse_kernel_by_tokenizer(text: str) -> KernelExpr:
    """Parse DSL text into a KernelExpr with shapes resolved."""
    tz = _Tokenizer(text)
    expr = _parse_expr(tz)
    kind, val, pos = tz.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {val!r}", pos)
    return expr


def _parse_expr(tz: _Tokenizer) -> KernelExpr:
    kind, name, pos = tz.next()
    if kind != "name":
        raise ParseError(f"expected a kernel name, found {name or 'end of input'!r}", pos)
    tz.expect("(")
    args = []
    if tz.peek()[1] != ")":
        while True:
            args.append(_parse_arg(tz))
            kind, val, p = tz.next()
            if val == ")":
                break
            if val != ",":
                raise ParseError(f"expected ',' or ')', found {val!r}", p)
    else:
        tz.next()
    try:
        return _build(name, args, pos)
    except ShapeError as exc:
        raise ParseError(str(exc), pos) from exc


def _parse_arg(tz: _Tokenizer):
    kind, val, pos = tz.peek()
    if kind == "number":
        tz.next()
        return float(val)
    if val == "[":
        tz.next()
        items = []
        if tz.peek()[1] != "]":
            while True:
                k, v, p = tz.next()
                if k != "number":
                    raise ParseError(f"expected a number in list, found {v!r}", p)
                items.append(float(v))
                k, v, p = tz.next()
                if v == "]":
                    break
                if v != ",":
                    raise ParseError(f"expected ',' or ']', found {v!r}", p)
        else:
            tz.next()
        return items
    if kind == "name":
        return _parse_expr(tz)
    raise ParseError(f"expected an argument, found {val or 'end of input'!r}", pos)


# -- the evaluation path with its per-call bookkeeping ------------------------
#
# Verbatim copies of the functions whose fixed per-call costs were cut: the
# series of pow, exp and log at caps (0, 0), the coefficient fill of
# coordinate products, the factorial table of derivatives, the moveaxis and
# tensordot glue of eval_jets and the torus, the generator that names a
# failing pair, the Gram families formed outside the elimination, the pair
# sums and balance check through np.take and the point coercion through
# dtype=complex, and the m x m loop of the Mobius Jacobians, which stays in
# the package (a vectorised form moves bits: numpy's complex product of a
# broadcast one-entry array and of a Python scalar can differ by an ulp).
# `with_per_call_bookkeeping()` patches them all in, so that one call gives
# the old path's answer.


def _pair_sums_by_np_take(x: np.ndarray, y: np.ndarray, runs, weights=None):
    """Yield (rows, sums) per run: sum x_l y_r (times weights[l], if given)
    over the pairs (l, r) of each output in rows, in table order.  y is read
    when a run starts, after the caller has stored the runs before it."""
    for rows, left, right, starts in runs:
        terms = np.take(x, left, axis=-1)
        if weights is not None:
            terms *= np.take(weights, left)
        yield rows, np.add.reduceat(terms * np.take(y, right, axis=-1), starts, axis=-1)


def _balanced_by_np_take(coeffs: np.ndarray, m: int, nz: int, nw: int) -> bool:
    """Whether every coefficient (a, b) with |a| != |b| is exactly 0, in
    every batch entry.  The row (0, b) and the column (a, 0), nonzero at
    every pair off the origin, are looked at first."""
    if np.count_nonzero(coeffs[..., 0, 1:]) or np.count_nonzero(coeffs[..., 1:, 0]):
        return False
    flat = coeffs.reshape(coeffs.shape[:-2] + (-1,))
    return not np.count_nonzero(np.take(flat, jets._off_balance(m, nz, nw), axis=-1))


def _derivatives_by_factorial_product(self) -> np.ndarray:
    """All mixed derivatives (d/dz)^a (d/dwbar)^b at the base point: the
    coefficients times a! b!, shape (*batch, Nz, Nw)."""
    gz, gw = jets._group(self.m, self.nz), jets._group(self.m, self.nw)
    return self.coeffs * (gz.factorials[:, None] * gw.factorials[None, :])


def _series_at_every_cap(self, scale, a: float, b: float, c: float, h0: float) -> np.ndarray:
    """The series h of x = (self - c0) * scale with h_0 = h0 and
    D h_D = c D x_D + sum (a |l| + b |r|) x_l h_r for D = 1 .. nz + nw.

    The sum runs over the pairs (l, r) with l + r of total degree D;
    x has no constant term, so h_D needs only lower degrees.  With
    |r| = D - |l| each term is x_l h_r weighted by ((a - b) |l| + b D) / D.
    Of a balanced x only the balanced outputs are summed.
    """
    h = np.zeros_like(self.coeffs)
    h[..., 0, 0] = h0
    if self.nz == self.nw == 0:
        return h
    x = self.coeffs * scale
    x[..., 0, 0] = 0
    m, nz, nw = self.m, self.nz, self.nw
    by_degree = jets._degree_runs(m, nz, nw, _run_pairs(math.prod(x.shape[:-2])),
                                  jets._balanced(x, m, nz, nw))
    shape = x.shape
    flat = shape[:-2] + (shape[-2] * shape[-1],)
    x, h = x.reshape(flat), h.reshape(flat)
    degrees = jets._total_degrees(m, nz, nw)
    for degree, runs in by_degree:
        if not degree:  # h_0 is set above
            continue
        # one weight per left monomial
        for rows, sums in jets._pair_sums(x, h, runs, degrees * ((a - b) / degree) + b):
            if c:
                sums += c * x[..., rows]
            h[..., rows] = sums
    return h.reshape(shape)


def _pow_through_series(self, t):
    t = float(t)
    if not math.isfinite(t):
        raise EvaluationError(f"jet power with non-finite exponent {t}")
    c0 = self._constant("pow base")
    jets._fail_where(c0 == 0, EvaluationError,
                     lambda i: "jet power of a series with zero constant term")
    is_integer = t == int(t)
    if not is_integer:
        jets._fail_where(c0.real <= 0, BranchError, lambda i: (
            f"pow base has non-positive real part ({complex(c0[i]):.6g}); "
            "principal branch unavailable"
        ))
    with np.errstate(all="ignore"):
        head = c0 ** t if is_integer else np.exp(t * np.log(c0))
        # (c0 + x)^t = c0^t (1 + x/c0)^t
        out = self._series((1.0 / c0)[..., None, None], t, -1.0, 0.0, 1.0)
        out *= head[..., None, None]
    jets.check_finite(out, "jet power")
    return self._like(out)


def _exp_through_series(self):
    c0 = self._constant("exp argument")
    with np.errstate(all="ignore"):
        out = self._series(1.0, 1.0, 0.0, 0.0, 1.0)
        out *= np.exp(c0)[..., None, None]
    jets.check_finite(out, "jet exp")
    return self._like(out)


def _log_through_series(self):
    c0 = self._constant("log argument")
    jets._fail_where(c0.real <= 0, BranchError, lambda i: (
        f"log base has non-positive real part ({complex(c0[i]):.6g}); "
        "principal branch unavailable"
    ))
    with np.errstate(all="ignore"):
        # log(c0 + x) = log(c0) + log(1 + x/c0)
        out = self._series((1.0 / c0)[..., None, None], 0.0, -1.0, 1.0, 0.0)
        out[..., 0, 0] += np.log(c0)
    jets.check_finite(out, "jet log")
    return self._like(out)


def coordinate_products_by_fancy_assignment(z, w, m, nz, nw, i, j) -> Jet:
    """The jets of z_i wbar_j for index arrays i and j of one shape S:
    batch (*batch, *S).

    z and w are as for `variable_jets`.  The coefficients are filled in
    directly: the constant z_i conj(w_j), the z-linear term wbar_j at e_i,
    the wbar-linear term z_i at e_j and 1 at (e_i, e_j); nothing else is
    nonzero.  The values equal the products of the `variable_jets` seeds.
    """
    zi = np.asarray(z, dtype=complex)[..., i]
    wj = np.conj(np.asarray(w, dtype=complex))[..., j]
    value = zi * wj
    if nz == nw == 0:  # a constant: the value alone
        return Jet(m, 0, 0, value[..., None, None])
    coeffs = np.zeros(value.shape + (jets._group(m, nz).size, jets._group(m, nw).size),
                      dtype=complex)
    coeffs[..., 0, 0] = value
    # one axis over the products; graded lex order puts e_k at position 1 + k
    flat = coeffs.reshape(value.shape[: value.ndim - i.ndim] + (i.size,) + coeffs.shape[-2:])
    each, i, j = np.arange(i.size), 1 + i.ravel(), 1 + j.ravel()
    if nz >= 1:
        flat[..., each, i, 0] = wj.reshape(flat.shape[:-2])
    if nw >= 1:
        flat[..., each, 0, j] = zi.reshape(flat.shape[:-2])
    if nz >= 1 and nw >= 1:
        flat[..., each, i, j] = 1.0
    return Jet(m, nz, nw, coeffs)


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


def _checked_values_in_a_generator(self, zs, ws, evaluate) -> tuple:
    """evaluate(zs, ws), a tuple of arrays at the B pairs (zs[p], ws[p]),
    after the domain check; a failing or non-finite pair is named."""
    zs, ws = expr_module.point_array(zs, self.m), expr_module.point_array(ws, self.m)
    if zs.shape != ws.shape:
        raise ShapeError("a batch of pairs needs as many z as w points")
    self._check_pairs(zs, ws)
    with _naming_pairs(zs, ws):
        out = evaluate(zs, ws)
        for a in out:
            jets.check_finite(a, "kernel value")
    return out


def _eval_jets_by_moveaxis(self, zs, ws, order: int) -> list:
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


@functools.cache
def _torus_rows(m: int, order: int) -> tuple:
    """The N^m node offsets in C^m and the (n, N^m) matrix F of scaled DFT
    rows, F[a, p] = i! e^(-2 pi i (i . k_p) / N) / (N^m r^|i|) for the a-th
    multi-index i in graded lex order and the angle indices k_p of node p;
    shared: do not modify."""
    _NODES, _RADIUS = fd._NODES, fd._RADIUS
    nodes = np.array(list(product(range(_NODES), repeat=m)))
    offsets = _RADIUS * np.exp(2j * np.pi * nodes / _NODES)
    indices = np.array(graded_lex_tuples(m, order))
    twiddles = np.exp(-2j * np.pi * np.arange(_NODES) / _NODES)
    scale = [math.prod(map(math.factorial, i)) / (_NODES**m * _RADIUS ** sum(i))
             for i in indices]
    return offsets, twiddles[indices @ nodes.T % _NODES] * np.array(scale)[:, None]


def _fd_derivatives_by_tensordot(expr: KernelExpr, z, w, order: int) -> np.ndarray:
    """The derivatives as one (n, n, k, k) array, entry (a, b) for the a-th
    and b-th multi-indices i, j in graded lex order."""
    if order > 2:
        raise ValueError("finite-difference oracle supports order <= 2 per variable")
    m = expr.m
    offsets, rows = _torus_rows(m, order)
    n = len(offsets)
    zs, ws = fd.point_array([z, w], m)[:, None] + offsets
    vals = expr.values(np.repeat(zs, n, 0), np.tile(ws, (n, 1)))
    grid = vals.reshape((n, n) + vals.shape[1:])
    # (a, q, k, k), then (a, k, k, b)
    coeffs = np.tensordot(np.tensordot(rows, grid, axes=(1, 0)), rows.conj(), axes=(1, 1))
    return np.moveaxis(coeffs, -1, 1)


def _gram_at_fresh(self, t: float) -> np.ndarray:
    # a product past the float range is left as inf or nan, without a
    # warning; `families_pass` refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        g = self.modulation(t)[:, None, :, None] * self.blocks
    return g.reshape(self.blocks.shape[0] * self.blocks.shape[1], -1)


def _families_pass_by_factors(fams, t: float, tol: float) -> bool:
    """Whether the Gram of every family at t has no failing pivot in
    `ldl_eliminate_unplanned`, which refuses a Gram that is not finite
    (EvaluationError, naming t here)."""
    try:
        return all(ldl_eliminate_unplanned(f.gram_at(t), tol)[0] is None for f in fams)
    except EvaluationError as exc:
        raise EvaluationError(f"the Gram family at t = {t} is not finite") from exc


def _jacobians_by_loop(self, zs) -> np.ndarray:
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


def point_array_by_complex_dtype(points, m: int) -> np.ndarray:
    """A (B, m) complex array from such an array or a sequence of points:
    `Point`s, sequences of coordinates or, when m = 1, scalars (numpy
    scalars and 0-d arrays included, and a 1-D array is B scalars)."""
    if isinstance(points, np.ndarray):
        arr = points.astype(complex, copy=False)
        if arr.ndim == 1 and m == 1:
            arr = arr.reshape(-1, 1)
    else:
        rows = [p.coords if isinstance(p, Point) else p for p in points]
        try:
            arr = np.array(rows, dtype=complex)
        except ValueError:  # rows of different lengths: name the first wrong one
            rows = [np.atleast_1d(np.asarray(p, dtype=complex)) for p in rows]
            for i, row in enumerate(rows):
                if row.shape != (m,):
                    raise DomainError(
                        f"expected points of C^{m}, got row {i} of dimension {row.size}")
            arr = np.array(rows)
        if arr.ndim == 1:  # scalars are points of C^1, and no rows is (0, m)
            arr = arr.reshape(len(rows), -1 if rows else m)
    if arr.ndim != 2 or arr.shape[1] != m:
        raise DomainError(f"expected points of C^{m}, got an array of shape {arr.shape}")
    return arr


@contextmanager
def with_per_call_bookkeeping():
    """Run the evaluation path on the copies above in place of the functions
    that replaced them (on every module that binds them by name)."""
    with contextlib.ExitStack() as stack:
        patch = lambda owner, name, value: stack.enter_context(
            mock.patch.object(owner, name, value))
        patch(jets, "_pair_sums", _pair_sums_by_np_take)
        patch(jets, "_balanced", _balanced_by_np_take)
        for name, value in (("derivatives", _derivatives_by_factorial_product),
                            ("_series", _series_at_every_cap), ("__pow__", _pow_through_series),
                            ("exp", _exp_through_series), ("log", _log_through_series)):
            patch(Jet, name, value)
        for module in (jets, expr_module):
            patch(module, "coordinate_products", coordinate_products_by_fancy_assignment)
        patch(KernelExpr, "_checked_values", _checked_values_in_a_generator)
        patch(KernelExpr, "eval_jets", _eval_jets_by_moveaxis)
        patch(fd, "_fd_derivatives", _fd_derivatives_by_tensordot)
        patch(positivity._CurvatureFamilyGram, "gram_at", _gram_at_fresh)
        for module in (positivity, repro):
            patch(module, "families_pass", _families_pass_by_factors)
        patch(MobiusMap, "jacobians", _jacobians_by_loop)
        for module in (expr_module, fd, positivity, automorphisms, rkhs):
            patch(module, "point_array", point_array_by_complex_dtype)
        yield
