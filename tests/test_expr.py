import dataclasses
import inspect
import math
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kernelcalc.automorphisms import MobiusMap
from kernelcalc.eig import ldl_verdict
from kernelcalc.errors import (
    BranchError,
    DomainError,
    EvaluationError,
    KernelCalcError,
    OrderCapError,
    ParseError,
    ShapeError,
)
from kernelcalc.expr import (
    DEFAULT_ORDER_CAP,
    BallCurvature,
    BallPower,
    Curvature,
    DiagonalSeries,
    JetKernel,
    KernelExpr,
    LogHessian,
    Pow,
    Product,
    Scale,
    Sum,
    SzegoDisc,
    Tensor,
    bergman_ball,
    bergman_disc,
    _hessian,
    _inner_terms,
    _one_minus,
    _one_minus_inner,
)
from kernelcalc.fd import fd_jet_table, fd_relative_error
from kernelcalc.geometry import (
    graded_lex_tuples,
    sample_points,
    unit_ball,
    unit_disc,
)
from kernelcalc import jets
from kernelcalc.parser import _NODES, parse_kernel
from kernelcalc.positivity import gram
from oracles import (fd_jet_table_per_term, full_tables, hessian_per_entry,
                     jet_kernel_per_entry)


def _scalar(expr, z, w):
    return complex(np.atleast_2d(expr.eval(z, w))[0, 0])


def test_szego_matches_the_closed_form():
    for z, w in [(0.3, 0.2), (0.5j, -0.1), (0.0, 0.9)]:
        assert _scalar(SzegoDisc(), z, w) == pytest.approx(
            1 / (1 - z * np.conj(w))
        )


def test_ball_power_matches_the_closed_form():
    z = [0.1 + 0.2j, 0.3]
    w = [0.2, -0.1j]
    ip = sum(a * np.conj(b) for a, b in zip(z, w))
    for lam in (1.0, 2.5, 3.0):
        assert _scalar(BallPower(2, lam), z, w) == pytest.approx(
            (1 - ip) ** -lam
        )
    assert _scalar(bergman_ball(2), z, w) == pytest.approx((1 - ip) ** -3)
    assert _scalar(bergman_disc(), 0.3, 0.2) == pytest.approx(
        (1 - 0.3 * 0.2) ** -2
    )


def test_diagonal_series_is_an_exact_finite_sum():
    e = DiagonalSeries([1.0])
    assert _scalar(e, 0.3, 0.2) == pytest.approx(1.06)
    e2 = DiagonalSeries([0.5, 0.25])
    p = 0.3 * 0.2
    assert _scalar(e2, 0.3, 0.2) == pytest.approx(1 + 0.5 * p + 0.25 * p * p)


def test_combinators_against_numpy_oracle():
    z, w = 0.4, 0.1 - 0.2j
    k = 1 / (1 - z * np.conj(w))
    assert _scalar(Pow(SzegoDisc(), 0.7), z, w) == pytest.approx(k ** 0.7)
    assert _scalar(Product(SzegoDisc(), SzegoDisc()), z, w) == pytest.approx(k * k)
    assert _scalar(Sum(SzegoDisc(), SzegoDisc()), z, w) == pytest.approx(2 * k)
    assert _scalar(Scale(SzegoDisc(), 0.5), z, w) == pytest.approx(0.5 * k)


def test_tensor_splits_the_variables():
    z, w = [0.3, 0.1], [0.2, -0.4]
    got = _scalar(Tensor(SzegoDisc(), SzegoDisc()), z, w)
    want = 1 / ((1 - z[0] * w[0]) * (1 - z[1] * w[1]))
    assert got == pytest.approx(want)


@pytest.mark.parametrize(
    "expr,domain",
    [
        (Curvature(SzegoDisc(), 1.0, 2.0), unit_disc()),
        (LogHessian(bergman_ball(2)), unit_ball(2)),
        (BallCurvature(2, 2.5), unit_ball(2)),
        (JetKernel(SzegoDisc(), SzegoDisc(), 1), unit_disc()),
        (Sum(bergman_disc(), Scale(SzegoDisc(), 0.3)), unit_disc()),
    ],
)
def test_sesqui_symmetry(expr, domain):
    pts = sample_points(domain, 6, 3)
    for z in pts[:3]:
        for w in pts[3:]:
            a = np.atleast_2d(expr.eval(z, w))
            b = np.atleast_2d(expr.eval(w, z))
            assert np.abs(a - b.conj().T).max() < 1e-12


def test_ball_curvature_equals_the_curvature_combinator():
    # the explicit matrix kernel with parameter lam agrees with
    # curvature(ball_power(m, 1), a, b) whenever a + b = lam - 2
    lam = 3.5
    explicit = BallCurvature(2, lam)
    combin = Curvature(BallPower(2, 1.0), (lam - 2) / 2, (lam - 2) / 2)
    pts = sample_points(unit_ball(2), 8, 5)
    for z, w in zip(pts[:4], pts[4:]):
        a = explicit.eval(z, w)
        b = combin.eval(z, w)
        assert np.abs(a - b).max() < 1e-10


def test_matrix_kernel_sizes():
    assert SzegoDisc().size == 1
    assert LogHessian(bergman_ball(3)).size == 3
    assert BallCurvature(2, 2.5).size == 2
    assert JetKernel(SzegoDisc(), SzegoDisc(), 1).size == 2
    assert JetKernel(bergman_ball(2), bergman_ball(2), 1).size == 3
    # combinators take m and size from their first child
    h, c, k = LogHessian(bergman_ball(3)), BallCurvature(2, 2.5), bergman_ball(3)
    for expr, m, size in [(Sum(h, h), 3, 3), (Scale(c, 2.0), 2, 2), (Pow(k, 0.5), 3, 1),
                          (Product(k, k), 3, 1), (Tensor(k, SzegoDisc()), 4, 1)]:
        assert (expr.m, expr.size) == (m, size)


def test_combinators_intersect_the_domains_of_their_children():
    # (0.8, 0.8) lies in the bidisc but not in the ball of C^2
    bidisc, ball = Tensor(SzegoDisc(), SzegoDisc()), bergman_ball(2)
    assert np.isfinite(bidisc.eval([0.8, 0.8], [0, 0])).all()
    pts = np.array([[0.8, 0.8], [0.1, 0.2j]])
    for expr in (Product(bidisc, ball), Product(ball, bidisc), Sum(bidisc, ball),
                 Sum(ball, bidisc), JetKernel(bidisc, ball, 1), JetKernel(ball, bidisc, 1)):
        assert expr.contains(pts).tolist() == [False, True]
        with pytest.raises(DomainError, match="outside the domain"):
            expr.eval([0.8, 0.8], [0, 0])


def test_shape_validation():
    with pytest.raises(ShapeError):
        Product(SzegoDisc(), bergman_ball(2))
    with pytest.raises(ShapeError):
        Sum(SzegoDisc(), LogHessian(bergman_ball(2)))
    with pytest.raises(ShapeError):
        BallCurvature(1, 2.5)
    # a size-2 child under every node that needs scalar children, built
    # directly and through the parser, which names the outer node's position
    H, K = "log_hessian(bergman_ball(2))", "bergman_ball(2)"
    h, k = parse_kernel(H), parse_kernel(K)
    for name, build, text in [
        ("pow", lambda: Pow(h, 0.5), f"pow({H}, 0.5)"),
        ("product", lambda: Product(h, k), f"product({H}, {K})"),
        ("product", lambda: Product(k, h), f"product({K}, {H})"),
        ("tensor", lambda: Tensor(h, SzegoDisc()), f"tensor({H}, szego_disc())"),
        ("tensor", lambda: Tensor(SzegoDisc(), h), f"tensor(szego_disc(), {H})"),
        ("log_hessian", lambda: LogHessian(h), f"log_hessian({H})"),
        ("curvature", lambda: Curvature(h, 1.0, 2.0), f"curvature({H}, 1.0, 2.0)"),
        ("jet", lambda: JetKernel(h, k, 1), f"jet({H}, {K}, 1)"),
        ("jet", lambda: JetKernel(k, h, 1), f"jet({K}, {H}, 1)"),
    ]:
        message = f"{name} requires a scalar kernel child, got size 2"
        with pytest.raises(ShapeError) as exc:
            build()
        assert str(exc.value) == message
        with pytest.raises(ParseError) as exc:
            parse_kernel(text)
        assert str(exc.value) == f"{message} (at position 0)"


def test_order_cap_is_enforced():
    with pytest.raises(OrderCapError):
        SzegoDisc().eval_jet(0.0, 0.0, 5)
    with pytest.raises(OrderCapError):
        JetKernel(SzegoDisc(), SzegoDisc(), 5)


def test_power_branch_error_is_reported():
    # 1 - z wbar can cross the negative real axis only outside the disc;
    # a scaled series with a large negative coefficient triggers it inside
    bad = Pow(DiagonalSeries([-40.0]), 0.5)
    with pytest.raises(BranchError):
        bad.eval(0.9, 0.9)


@pytest.mark.parametrize(
    "expr,domain",
    [
        (Pow(SzegoDisc(), 1.3), unit_disc(0.35)),
        (LogHessian(bergman_ball(2)), unit_ball(2, 0.35)),
        (Curvature(SzegoDisc(), 0.5, 1.0), unit_disc(0.35)),
    ],
)
def test_jet_tables_match_finite_differences(expr, domain):
    for seed in (1, 2, 3):
        z, w = sample_points(domain, 2, seed)
        assert fd_relative_error(expr, z, w, 2) < 1e-6


def test_jet_table_entries_are_derivative_values():
    # d/dz dbar/dwbar of 1/(1 - z wbar) at (0.2, 0.1):
    # (1 + z wbar) / (1 - z wbar)^3
    z, w = 0.2, 0.1
    tab = SzegoDisc().eval_jet(z, w, 1)
    p = z * w
    want = (1 + p) / (1 - p) ** 3
    assert complex(tab.entry((1,), (1,))[0, 0]) == pytest.approx(want)


@pytest.mark.parametrize("i, j", [((2,), (0,)), ((0,), (2,)), ((0, 0), (0,))])
def test_jet_table_entries_beyond_the_order_are_refused_naming_the_caps(i, j):
    tab = parse_kernel("szego_disc()").eval_jet(0.1, 0.2, 1)
    with pytest.raises(ValueError, match=r"lies beyond the caps \(1, 1\)"):
        tab.entry(i, j)


# Size-1 derived kernels (log_hessian or curvature of a disc kernel, and
# jet(K1, K2, 0)) next to the closed forms they reduce to.
SIZE_ONE_CLOSED_FORMS = [
    ("pow(log_hessian(szego_disc()),0.5)", "szego_disc()"),
    ("log_hessian(curvature(szego_disc(),1,1))", "scale(bergman_disc(),4)"),
    ("product(curvature(szego_disc(),1,1),szego_disc())", "ball_power(1,5)"),
    ("pow(jet(szego_disc(),szego_disc(),0),2)", "ball_power(1,4)"),
    (
        "tensor(curvature(szego_disc(),1,1),szego_disc())",
        "tensor(ball_power(1,4),szego_disc())",
    ),
    ("jet(szego_disc(),log_hessian(szego_disc()),1)", "jet(szego_disc(),bergman_disc(),1)"),
]


@pytest.mark.parametrize("text,closed_form", SIZE_ONE_CLOSED_FORMS)
def test_size_one_derived_kernels_compose_under_scalar_combinators(text, closed_form):
    expr, want = parse_kernel(text), parse_kernel(closed_form)
    domain = unit_disc(0.7) if expr.m == 1 else unit_ball(expr.m, 0.7)
    pts = sample_points(domain, 6, 17)
    for z, w in zip(pts[:3], pts[3:]):
        for order in (0, 1, 2):
            got, ref = expr.eval_jet(z, w, order), want.eval_jet(z, w, order)
            scale = max(np.abs(mat).max() for mat in ref.entries.values())
            assert got.entries.keys() == ref.entries.keys()
            for key, mat in ref.entries.items():
                assert np.abs(got.entries[key] - mat).max() <= 1e-12 * scale


_DISC_LEAVES = st.sampled_from(
    ["szego_disc()", "bergman_disc()", "ball_power(1, 1.5)", "diagonal_series([0.5, 0.25])"]
)
_PARAMS = st.sampled_from(["0.5", "1.0"])


def _disc_asts(depth: int):
    """DSL strings of m = 1 kernels, combinators nested at most `depth` deep,
    with the size-1 derived nodes among them."""
    if depth == 0:
        return _DISC_LEAVES
    sub = _disc_asts(depth - 1)
    return st.one_of(
        _DISC_LEAVES,
        st.builds("pow({}, {})".format, sub, st.sampled_from(["0.5", "1.5", "2.0"])),
        st.builds("product({}, {})".format, sub, sub),
        st.builds("sum({}, {})".format, sub, sub),
        st.builds("scale({}, 0.5)".format, sub),
        st.builds("log_hessian({})".format, sub),
        st.builds("curvature({}, {}, {})".format, sub, _PARAMS, _PARAMS),
        st.builds("jet({}, {}, 0)".format, sub, sub),
    )


@settings(max_examples=40, deadline=None)
@given(text=_disc_asts(3), seed=st.integers(1, 100))
def test_random_disc_asts_match_finite_differences(text, seed):
    expr = parse_kernel(text)
    # printing is canonical: it parses back to the same node and is a fixed point
    assert parse_kernel(expr.to_dsl()) == expr
    assert parse_kernel(expr.to_dsl()).to_dsl() == expr.to_dsl()
    assert expr.to_dsl() is expr.to_dsl()  # printed once per node
    z, w = sample_points(unit_disc(0.35), 2, seed)
    try:
        expr.eval_jet(z, w, 2)
    except BranchError:
        with pytest.raises(BranchError):
            fd_jet_table(expr, z, w, 2)
        assume(False)
    assert fd_relative_error(expr, z, w, 2) < 1e-6


_BALL_LEAVES = st.sampled_from(
    ["bergman_ball(2)", "ball_power(2, 1.5)", "ball_power(2, 0.5)"]
)


@settings(max_examples=40, deadline=None)
@given(
    text=st.one_of(_disc_asts(3), _BALL_LEAVES),
    order=st.integers(0, 2),
    seed=st.integers(1, 100),
)
@example(text="ball_curvature(2, 3.0)", order=2, seed=7)  # 2 x 2 entries
@example(text="jet(bergman_ball(2), bergman_ball(2), 1)", order=2, seed=7)  # 3 x 3
@example(text="log_hessian(bergman_ball(3))", order=1, seed=7)  # m = 3
def test_fd_torus_agrees_with_the_per_term_stencil_table(text, order, seed):
    # two independent numerical routes to the same derivatives, each within
    # a few 1e-7 of the truth at these radii
    expr = parse_kernel(text)
    domain = unit_disc(0.35) if expr.m == 1 else unit_ball(expr.m, 0.35)
    z, w = sample_points(domain, 2, seed)
    try:
        want = fd_jet_table_per_term(expr, z, w, order)
        got = fd_jet_table(expr, z, w, order).entries
    except BranchError:
        assume(False)
    assert got.keys() == want.keys()
    scale = max(max(np.abs(mat).max() for mat in want.values()), 1.0)
    for key, mat in want.items():
        assert np.abs(got[key] - mat).max() <= 1e-6 * scale


def _diagonal_series_derivative(coefficients, z, w, i: int, j: int) -> complex:
    """d^i dbar^j of 1 + sum_n a_n z^n wbar^n, term by term."""
    terms = enumerate((1.0, *coefficients))
    return sum(a * math.perm(n, i) * math.perm(n, j) * z ** (n - i) * np.conj(w) ** (n - j)
               for n, a in terms if n >= max(i, j))


@settings(max_examples=40, deadline=None)
@given(
    coefficients=st.lists(st.floats(-1, 1), min_size=1, max_size=4),
    order=st.integers(0, 2),
    seed=st.integers(1, 100),
)
@example(coefficients=[1.0, 0.5, 0.25], order=2, seed=1)
def test_fd_is_exact_on_polynomials(coefficients, order, seed):
    # degree < 5 per variable: no Fourier coefficient folds onto another,
    # so only rounding separates the table from the closed form
    expr = DiagonalSeries(coefficients)
    z, w = (complex(p.coords[0]) for p in sample_points(unit_disc(0.35), 2, seed))
    got = fd_jet_table(expr, z, w, order).entries
    want = {
        ((i,), (j,)): _diagonal_series_derivative(coefficients, z, w, i, j)
        for i in range(order + 1)
        for j in range(order + 1)
    }
    assert got.keys() == want.keys()
    scale = max(abs(v) for v in want.values())
    for key, value in want.items():
        assert abs(got[key][0, 0] - value) <= 1e-8 * scale


def test_fd_refuses_order_three_before_evaluating_the_grids(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the grid was evaluated")

    monkeypatch.setattr(SzegoDisc, "values", unreachable)
    with pytest.raises(ValueError, match=r"supports order <= 2 per variable"):
        fd_jet_table(SzegoDisc(), 0.1, 0.2, 3)


def _ball_scalars(depth: int):
    """DSL strings of scalar kernels on the ball of C^2: ball kernels and
    tensor products of disc trees, under pow, product, sum and scale."""
    leaves = st.one_of(
        _BALL_LEAVES, st.builds("tensor({}, {})".format, _disc_asts(1), _disc_asts(1))
    )
    if depth == 0:
        return leaves
    sub = _ball_scalars(depth - 1)
    return st.one_of(
        leaves,
        st.builds("pow({}, {})".format, sub, st.sampled_from(["0.5", "2.0"])),
        st.builds("product({}, {})".format, sub, sub),
        st.builds("sum({}, {})".format, sub, sub),
        st.builds("scale({}, 0.5)".format, sub),
    )


def _ball_asts():
    """m = 2 trees: scalar trees and the matrix nodes built on them."""
    sub = _ball_scalars(2)
    return st.one_of(
        sub,
        st.builds("log_hessian({})".format, sub),
        st.builds("curvature({}, {}, {})".format, sub, _PARAMS, _PARAMS),
        st.builds("jet({}, {}, 1)".format, sub, sub),
        st.just("ball_curvature(2, 3.0)"),
    )


def _assert_batch_equals_pairs(expr, zs, ws):
    """values over all pairs equals eval pair by pair, bit for bit; if some
    pair fails on its own, the batch fails with one of those errors."""
    singles = []
    for z, w in zip(zs, ws):
        try:
            singles.append(expr.eval(z, w))
        except KernelCalcError as exc:
            singles.append(exc)
    errors = tuple({type(s) for s in singles if isinstance(s, Exception)})
    if errors:
        with pytest.raises(errors):
            expr.values(zs, ws)
        return
    batch = expr.values(zs, ws)
    assert batch.shape == (len(zs), expr.size, expr.size)
    for got, want in zip(batch, singles):
        assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(text=_disc_asts(3), seed=st.integers(1, 1000), n=st.integers(1, 12))
def test_batched_values_equal_per_pair_eval_on_disc_trees(text, seed, n):
    pts = sample_points(unit_disc(0.7), 2 * n, seed)
    _assert_batch_equals_pairs(parse_kernel(text), pts[:n], pts[n:])


@settings(max_examples=60, deadline=None)
@given(text=_ball_asts(), seed=st.integers(1, 1000), n=st.integers(1, 12))
def test_batched_values_equal_per_pair_eval_on_ball_trees(text, seed, n):
    pts = sample_points(unit_ball(2, 0.7), 2 * n, seed)
    _assert_batch_equals_pairs(parse_kernel(text), pts[:n], pts[n:])


@settings(max_examples=40, deadline=None)
@given(text=_ball_asts(), seed=st.integers(1, 1000), n=st.integers(1, 4))
def test_batched_jet_tables_equal_per_pair_eval_jet(text, seed, n):
    # lower coefficients do not depend on the caps, so every table of the
    # order-2 batch restricts to each pair's own eval_jet at orders 0-2
    expr = parse_kernel(text)
    pts = sample_points(unit_ball(2, 0.6), 2 * n, seed)
    try:
        tables = expr.eval_jets(pts[:n], pts[n:], 2)
    except KernelCalcError:
        assume(False)
    for z, w, table in zip(pts[:n], pts[n:], tables):
        for order in range(3):
            for key, mat in expr.eval_jet(z, w, order).entries.items():
                assert np.array_equal(table.entry(*key), mat), (order, key)


def test_log_values_equal_the_log_of_the_values():
    expr = parse_kernel("product(pow(szego_disc(), 0.5), bergman_disc())")
    pts = sample_points(unit_disc(0.7), 8, 3)
    logs = expr.values(pts[:4], pts[4:], log=True)
    assert np.abs(np.exp(logs) - expr.values(pts[:4], pts[4:])).max() < 1e-13


def test_batched_branch_errors_name_the_failing_pair():
    bad = Pow(DiagonalSeries([-40.0]), 0.5)
    with pytest.raises(BranchError) as exc:
        bad.values([0.0, 0.9], [0.0, 0.9])
    assert "at pair (((0.9+0j),), ((0.9+0j),))" in str(exc.value)


def test_overflowing_values_raise_evaluation_errors():
    z = [0.6, 0.4]
    with pytest.raises(EvaluationError, match="not finite"):
        BallPower(2, 2000.0).eval(z, z)
    with pytest.raises(EvaluationError, match="not finite"):
        Curvature(bergman_ball(2), 5e299, 5e299).eval(z, z)


@pytest.mark.parametrize("text, message", [
    ("pow(szego_disc(), 1e999)", "exp argument is not finite"),
    ("log_hessian(diagonal_series([1e999]))", "log argument is not finite"),
])
def test_a_jet_that_is_not_finite_is_named_once(text, message):
    with pytest.raises(EvaluationError) as exc:
        parse_kernel(text).eval(0.1, 0.1)
    assert str(exc.value) == f"{message} at pair (((0.1+0j),), ((0.1+0j),))"


@contextmanager
def _recording_balance_checks():
    """Collect (coefficients, m, n, answer) of every balance check made
    inside the block."""
    seen, check = [], jets._balanced

    def record(coeffs, m, n):
        answer = check(coeffs, m, n)
        seen.append((coeffs.copy(), m, n, answer))
        return answer

    with mock.patch.object(jets, "_balanced", record):
        yield seen


def _unbalanced_mask(m, n) -> np.ndarray:
    degrees = np.array([sum(a) for a in graded_lex_tuples(m, n)])
    return degrees[:, None] != degrees


def _jets(expr, z, w, n, full=False):
    with np.errstate(all="ignore"), full_tables() if full else nullcontext() as asked:
        coeffs = expr.jets(z, w, n).coeffs
    assert not full or asked or n == 0  # the full tables were forced
    return coeffs


def _origin_jets(expr, n, full=False):
    z = np.zeros((1, expr.m))
    return _jets(expr, z, z, n, full)


@settings(max_examples=60, deadline=None)
@given(
    text=st.one_of(_disc_asts(2), _ball_asts()),
    where=st.sampled_from(["origin", "off", "z zero", "w zero"]),
    n=st.integers(0, 3),
    seed=st.integers(1, 1000),
)
def test_balanced_jets_are_zero_off_balance(text, where, n, seed):
    expr = parse_kernel(text)
    z, w = (p.array() for p in sample_points(unit_disc(0.3) if expr.m == 1
                                             else unit_ball(expr.m, 0.3), 2, seed))
    if where in ("origin", "z zero"):
        z = np.zeros_like(z)
    if where in ("origin", "w zero"):
        w = np.zeros_like(w)
    with _recording_balance_checks() as seen:
        try:
            with np.errstate(all="ignore"):
                expr.jets(z[None], w[None], n)
        except KernelCalcError:
            assume(False)
    for coeffs, m, cap, answer in seen:
        assert answer == (coeffs[..., _unbalanced_mask(m, cap)] == 0).all()
    assert seen or n == 0  # every leaf sums a product or a series
    if seen and where == "origin":  # every leaf is balanced there
        assert any(answer for *_, answer in seen)
    if seen and where == "off":  # no leaf is off the origin, and the first check reads a leaf
        assert not seen[0][-1]


#: origin tables that the benchmark, the README, CI and `repro` read
_EXACT_ORIGIN_CASES = (
    [(text, order) for text in ("szego_disc()", "bergman_disc()",
                                "diagonal_series([1.0, 0.5, 0.25])", "bergman_ball(2)",
                                "bergman_ball(3)", "ball_power(3, 4.2)",
                                "curvature(bergman_ball(2), 1.0, 1.0)",
                                "curvature(bergman_ball(3), 1.0, 1.0)")
     for order in range(5)]
    + [(f"ball_curvature(2, {lam})", order) for lam in (2.5, 2.9, 3.3, 4.1, 5.7)
       for order in range(5)]
    + [(f"ball_curvature(3, {lam})", order) for lam in (2.5, 2.9, 3.3, 4.1, 5.7)
       for order in range(4)]
    + [("ball_curvature(3, 4.0)", 4),
       ("product(pow(diagonal_series([1.0, 0.1]), 1.0), "
        "log_hessian(diagonal_series([1.0, 0.1])))", 1)]
)


@pytest.mark.parametrize("text, order", _EXACT_ORIGIN_CASES)
def test_balanced_origin_tables_equal_the_full_ones(text, order):
    expr = parse_kernel(text)
    assert np.array_equal(_origin_jets(expr, order), _origin_jets(expr, order, full=True))


@pytest.mark.parametrize("text, order", [
    # pair runs of 8 or more terms are summed pairwise, so dropping their
    # zeros can regroup the other terms and move an entry by an ulp
    ("ball_curvature(3, 2.9)", 4),
    ("ball_curvature(3, 4.1)", 4),
    ("curvature(product(bergman_ball(2), ball_power(2, 0.7)), 0.4, 0.6)", 4),
    ("bergman_ball(3)", 8),
    ("curvature(bergman_ball(2), 1.0, 1.0)", 8),
    ("curvature(bergman_ball(3), 1.0, 1.0)", 6),
])
def test_deep_balanced_origin_tables_agree_with_the_full_ones(text, order):
    expr = parse_kernel(text)
    full = _origin_jets(expr, order, full=True)
    got = _origin_jets(expr, order)
    assert np.abs(got - full).max() <= 1e-15 * np.abs(full).max()


@settings(max_examples=60, deadline=None)
@given(text=st.one_of(_disc_asts(3), _ball_asts()), n=st.integers(0, 4))
def test_balanced_origin_jets_of_random_trees_agree_with_the_full_ones(text, n):
    # log_hessian of a curvature cancels most of its digits, so a regrouped
    # sum moves its small entries by up to about 6e-14 of the largest one
    expr = parse_kernel(text)
    try:
        full = _origin_jets(expr, n, full=True)
    except KernelCalcError:
        assume(False)
    got = _origin_jets(expr, n)
    assert np.abs(got - full).max() <= 1e-12 * np.abs(full).max()


@settings(max_examples=60, deadline=None)
@given(
    text=st.one_of(_disc_asts(2), _ball_scalars(2), st.just("bergman_ball(3)")),
    n=st.integers(0, 3),
    seed=st.one_of(st.none(), st.integers(1, 100)),
)
def test_the_gathered_hessian_equals_the_per_entry_shifts(text, n, seed):
    # seed None is the origin pair, where the log jet is balanced
    expr = parse_kernel(text)
    m = expr.m
    if seed is None:
        z = w = np.zeros((1, m), dtype=complex)
    else:
        domain = unit_disc(0.35) if m == 1 else unit_ball(m, 0.35)
        z, w = (p.array()[None] for p in sample_points(domain, 2, seed))
    try:
        with np.errstate(all="ignore"):
            g = expr.log_jet(z, w, n + 1)
    except KernelCalcError:
        assume(False)
    assume(np.isfinite(g.coeffs).all())
    got = _hessian(g)
    assert (got.m, got.n) == (m, n)
    assert np.array_equal(got.coeffs, hessian_per_entry(g))


@settings(max_examples=60, deadline=None)
@given(
    k1=st.one_of(_disc_asts(1), _ball_scalars(1)),
    k2=st.one_of(_disc_asts(1), _ball_scalars(1)),
    k=st.integers(0, 3),
    n=st.integers(0, 2),
    seed=st.one_of(st.none(), st.integers(1, 100)),
)
def test_the_gathered_jet_kernel_equals_the_per_entry_shifts(k1, k2, k, n, seed):
    # seed None is the origin pair; a disc child of a ball kernel is refused
    try:
        expr = parse_kernel(f"jet({k1}, {k2}, {k})")
    except KernelCalcError:
        assume(False)
    m = expr.m
    if seed is None:
        z = w = np.zeros((1, m), dtype=complex)
    else:
        domain = unit_disc(0.35) if m == 1 else unit_ball(m, 0.35)
        z, w = (p.array()[None] for p in sample_points(domain, 2, seed))
    try:
        with np.errstate(all="ignore"):
            got = expr.jets(z, w, n)
            want = jet_kernel_per_entry(expr, z, w, n)
    except KernelCalcError:
        assume(False)
    assert (got.m, got.n) == (m, n)
    assert np.array_equal(got.derivatives(), want.derivatives(), equal_nan=True)


def _fd_relative_error_by_entries(expr, z, w, order):
    """`fd_relative_error` by two dict passes over `JetTable.entries`."""
    table = expr.eval_jet(z, w, order)
    numeric = fd_jet_table(expr, z, w, order).entries
    scale = max(max(np.abs(mat).max() for mat in table.entries.values()), 1.0)
    worst = 0.0
    for key, ref in table.entries.items():
        worst = max(worst, float(np.abs(numeric[key] - ref).max()))
    return worst / scale


@settings(max_examples=30, deadline=None)
@given(
    text=st.one_of(_disc_asts(2), _BALL_LEAVES, st.just("log_hessian(bergman_ball(2))")),
    order=st.integers(0, 2),
    seed=st.integers(1, 100),
)
def test_fd_relative_error_on_one_array_equals_the_entry_passes(text, order, seed):
    expr = parse_kernel(text)
    domain = unit_disc(0.35) if expr.m == 1 else unit_ball(expr.m, 0.35)
    z, w = sample_points(domain, 2, seed)
    try:
        want = _fd_relative_error_by_entries(expr, z, w, order)
    except KernelCalcError:
        assume(False)
    assert fd_relative_error(expr, z, w, order) == want


#: one kernel of every node kind
_EVERY_KIND = [
    "szego_disc()", "bergman_disc()", "bergman_ball(2)", "ball_power(3, 1.5)",
    "diagonal_series([0.5, 0.25])", "pow(szego_disc(), 0.5)",
    "product(szego_disc(), bergman_disc())", "sum(szego_disc(), scale(bergman_disc(), 0.5))",
    "tensor(szego_disc(), bergman_disc())", "log_hessian(bergman_ball(2))",
    "curvature(bergman_ball(2), 1.0, 1.0)", "jet(szego_disc(), szego_disc(), 2)",
    "ball_curvature(2, 3.0)",
]


@pytest.mark.parametrize("text", _EVERY_KIND)
def test_a_batch_of_no_pairs_gives_empty_results_at_every_cap(text):
    expr = parse_kernel(text)
    none = np.zeros((0, expr.m))
    k = expr.size
    for order in range(DEFAULT_ORDER_CAP + 1):
        assert expr.eval_jets(none, none, order) == []
        assert expr.eval_jets([], [], order) == []
    assert expr.values(none, none).shape == (0, k, k)
    assert gram(expr, []).shape == (0, 0)
    if expr.is_scalar:
        assert expr.values([], [], log=True).shape == (0, 1, 1)
        logk, hess = expr.log_hessian_values(none, none)
        assert logk.shape == (0, 1, 1) and hess.shape == (0, expr.m, expr.m)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("batch", [0, 1, 625])
def test_the_one_fill_base_is_one_minus_the_inner_terms_bit_for_bit(m, n, batch):
    rng = np.random.default_rng([m, n, n, batch])
    z, w = (0.5 / m * (rng.standard_normal((batch, m)) + 1j * rng.standard_normal((batch, m)))
            for _ in range(2))
    for part in (z.real, z.imag, w.real, w.imag):  # zeros of both signs
        part[rng.random(part.shape) < 0.2] = 0.0
        part[rng.random(part.shape) < 0.2] = -0.0
    got = _one_minus_inner(z, w, m, n)
    want = _one_minus(_inner_terms(z, w, m, n))
    assert (got.m, got.n) == (want.m, want.n)
    assert got.coeffs.shape == want.coeffs.shape
    assert np.array_equal(got.coeffs.view(np.int64), want.coeffs.view(np.int64))


def test_the_fd_oracle_refuses_a_torus_that_leaves_the_domain_naming_the_pair():
    with pytest.raises(DomainError) as info:
        fd_relative_error(SzegoDisc(), (0.99,), (0.1,), 2)
    assert str(info.value) == ("the torus of radius 0.02 about the pair (((0.99+0j),), "
                               "((0.1+0j),)) leaves the domain of szego_disc()")
    with pytest.raises(DomainError, match=r"about the pair \(\(\(0.1\+0j\), 0j\), "):
        fd_jet_table(parse_kernel("bergman_ball(2)"), (0.1, 0.0), (0.7, 0.7), 1)
    # a torus inside the domain is evaluated, up to its rim
    assert fd_relative_error(SzegoDisc(), (0.97,), (0.1,), 1) < 1e-6


def test_records_that_hold_arrays_compare_by_identity_and_hash():
    def twins():
        yield MobiusMap((0.1, 0.2)), MobiusMap((0.1, 0.2))
        z, w = (0.1, 0.2), (0.3, 0.0)
        yield BallPower(2, 3.0).eval_jet(z, w, 2), BallPower(2, 3.0).eval_jet(z, w, 2)
        yield ldl_verdict(np.diag([1.0, -1.0]), 1e-9), ldl_verdict(np.diag([1.0, -1.0]), 1e-9)

    for a, b in twins():
        assert a == a and a != b and not (a == b)
        assert hash(a) == hash(a) and len({a, b, a}) == 2


#: each node class, the keyword arguments of one instance, its repr and the
#: signature of its constructor
_NODE_CONTRACTS = [
    (SzegoDisc, {}, "SzegoDisc()", "() -> None"),
    (BallPower, {"dim": 2.0, "lam": 3.0}, "BallPower(dim=2, lam=3.0)",
     "(dim: 'int', lam: 'float') -> None"),
    (DiagonalSeries, {"coefficients": [0.5, 1]}, "DiagonalSeries(coefficients=(0.5, 1.0))",
     "(coefficients: 'tuple[float, ...]') -> None"),
    (Pow, {"child": SzegoDisc(), "t": 0.5}, "Pow(child=SzegoDisc(), t=0.5)",
     "(child: 'KernelExpr', t: 'float') -> None"),
    (Product, {"left": SzegoDisc(), "right": BallPower(1, 2.0)},
     "Product(left=SzegoDisc(), right=BallPower(dim=1, lam=2.0))",
     "(left: 'KernelExpr', right: 'KernelExpr') -> None"),
    (Sum, {"left": LogHessian(BallPower(2, 3.0)), "right": BallCurvature(2, 3.0)},
     "Sum(left=LogHessian(child=BallPower(dim=2, lam=3.0)), right=BallCurvature(dim=2, lam=3.0))",
     "(left: 'KernelExpr', right: 'KernelExpr') -> None"),
    (Scale, {"child": BallCurvature(2, 3.0), "factor": 2.0},
     "Scale(child=BallCurvature(dim=2, lam=3.0), factor=2.0)",
     "(child: 'KernelExpr', factor: 'float') -> None"),
    (Tensor, {"left": SzegoDisc(), "right": DiagonalSeries([0.5])},
     "Tensor(left=SzegoDisc(), right=DiagonalSeries(coefficients=(0.5,)))",
     "(left: 'KernelExpr', right: 'KernelExpr') -> None"),
    (LogHessian, {"child": BallPower(2, 3.0)}, "LogHessian(child=BallPower(dim=2, lam=3.0))",
     "(child: 'KernelExpr') -> None"),
    (Curvature, {"child": BallPower(2, 3.0), "alpha": 1.0, "beta": 1.0},
     "Curvature(child=BallPower(dim=2, lam=3.0), alpha=1.0, beta=1.0)",
     "(child: 'KernelExpr', alpha: 'float', beta: 'float') -> None"),
    (JetKernel, {"k1": SzegoDisc(), "k2": BallPower(1, 2.0), "order": 2},
     "JetKernel(k1=SzegoDisc(), k2=BallPower(dim=1, lam=2.0), order=2)",
     "(k1: 'KernelExpr', k2: 'KernelExpr', order: 'int') -> None"),
    (BallCurvature, {"dim": 3, "lam": 4.5}, "BallCurvature(dim=3, lam=4.5)",
     "(dim: 'int', lam: 'float') -> None"),
]


def test_every_node_class_has_its_contract_pinned():
    assert {cls for cls, *_ in _NODE_CONTRACTS} == set(KernelExpr.__subclasses__())


@pytest.mark.parametrize("cls, kwargs, text, signature", _NODE_CONTRACTS,
                         ids=[cls.__name__ for cls, *_ in _NODE_CONTRACTS])
def test_each_node_is_the_frozen_dataclass_of_its_args(cls, kwargs, text, signature):
    node = cls(**kwargs)
    assert repr(node) == text
    assert str(inspect.signature(cls)) == signature
    names = [name for name, _ in cls.args]
    assert [f.name for f in dataclasses.fields(cls)] == names == list(kwargs)
    assert _NODES[cls.dsl_name] == (cls, tuple(kind for _, kind in cls.args))
    for name in [*names, "dsl_name"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, getattr(node, name))
    # equal and hashed by the DSL: positionally, and through the printer and parser
    for twin in (cls(*kwargs.values()), parse_kernel(node.to_dsl())):
        assert twin is not node and twin == node and hash(twin) == hash(node)
        assert repr(twin) == text
