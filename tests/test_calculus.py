import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kernelcalc.calculus import (
    phi_gram,
    series_head_coefficients,
)
from kernelcalc.expr import (
    BallCurvature,
    BallPower,
    Curvature,
    JetKernel,
    Product,
    SzegoDisc,
    bergman_ball,
)
from kernelcalc.errors import ShapeError
from kernelcalc.geometry import sample_points, unit_ball, unit_disc
from kernelcalc.parser import parse_kernel

from oracles import ball_curvature_closed_form, log_hessian_eval, phi_gram_by_entries


def test_log_hessian_of_szego_closed_form():
    # log K = -log(1 - z wbar), so d dbar log K = 1 / (1 - z wbar)^2
    for z, w in [(0.3, 0.2), (0.1j, 0.5), (0.0, 0.0)]:
        got = log_hessian_eval(SzegoDisc(), z, w)
        want = (1 - z * np.conj(w)) ** -2
        assert complex(got[0, 0]) == pytest.approx(complex(want))


def test_curvature_kernel_power_law_on_the_disc():
    for alpha, beta in [(1.0, 1.0), (0.5, 2.0), (2.0, 3.0)]:
        curv = Curvature(SzegoDisc(), alpha, beta)
        ref = BallPower(1, alpha + beta + 2)
        for z, w in zip(*[iter(sample_points(unit_disc(), 20, 9))] * 2):
            a = complex(curv.eval(z, w)[0, 0])
            b = complex(ref.eval(z, w)[0, 0])
            assert abs(a - b) < 1e-12 * abs(b)


def test_curvature_params_validation():
    with pytest.raises(ValueError):
        phi_gram(SzegoDisc(), 0.0, 1.0, 0.1, 0.2)
    with pytest.raises(ValueError):
        phi_gram(SzegoDisc(), 1.0, -2.0, 0.1, 0.2)


@pytest.mark.parametrize("base,domain", [
    (SzegoDisc(), unit_disc()),
    (bergman_ball(2), unit_ball(2)),
    (bergman_ball(3), unit_ball(3)),
])
def test_phi_gram_factorization(base, domain):
    alpha, beta = 1.0, 2.0
    curv = Curvature(base, alpha, beta)
    factor = alpha * beta * (alpha + beta)
    pts = sample_points(domain, 10, 13)
    for z, w in zip(pts[:5], pts[5:]):
        mat = curv.eval(z, w)
        gram = phi_gram(base, alpha, beta, z, w)
        for i in range(base.m):
            for j in range(base.m):
                lhs = gram[i, j]
                rhs = factor * mat[i, j]
                assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


_PHI_KERNELS = ("szego_disc()", "bergman_disc()", "bergman_ball(2)", "ball_power(2, 2.5)",
                "bergman_ball(3)")


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_PHI_KERNELS), st.floats(0.1, 4.0), st.floats(0.1, 4.0),
       st.integers(0, 2**64 - 1))
def test_phi_gram_equals_the_entrywise_formula_bit_for_bit(text, alpha, beta, seed):
    base = parse_kernel(text)
    domain = unit_disc() if base.m == 1 else unit_ball(base.m)
    z, w = sample_points(domain, 2, seed)
    got = phi_gram(base, alpha, beta, z, w)
    want = phi_gram_by_entries(base, alpha, beta, z, w)
    assert got.shape == (base.m, base.m)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_phi_gram_refuses_a_matrix_kernel():
    with pytest.raises(ShapeError, match="phi_gram needs a scalar kernel"):
        phi_gram(BallCurvature(2, 3.0), 1.0, 2.0, (0.1, 0.0), (0.0, 0.2))


@pytest.mark.parametrize("alpha,beta", [(0.0, 1.0), (1.0, 0.0), (-0.5, 2.0), (2.0, -1e-300),
                                        (-1.0, -1.0)])
def test_phi_gram_refuses_exponents_that_are_not_positive(alpha, beta):
    with pytest.raises(ValueError, match="alpha and beta must be positive"):
        phi_gram(bergman_ball(2), alpha, beta, (0.1, 0.0), (0.0, 0.2))


def test_explicit_ball_matrix_against_hand_coded_form():
    expr = BallCurvature(2, 3.0)
    pts = sample_points(unit_ball(2), 10, 21)
    for z, w in zip(pts[:5], pts[5:]):
        got = expr.eval(z, w)
        want = ball_curvature_closed_form(2, 3.0, z, w)
        assert np.abs(got - want).max() < 1e-12


def test_series_head_examples():
    assert series_head_coefficients([1, 0.1], 1.0) == pytest.approx((1.0, -0.6))
    assert series_head_coefficients([1, 0.25], 2.0) == pytest.approx((1.0, 1.0))
    assert series_head_coefficients([0, 0.3], 1.5) == pytest.approx((0.0, 1.2))


def test_series_head_reads_any_iterable_of_coefficients_once():
    want = series_head_coefficients([1, 0.1], 1.0)
    assert series_head_coefficients((c for c in [1, 0.1]), 1.0) == want
    assert series_head_coefficients(np.array([1, 0.1]), 1.0) == want
    assert series_head_coefficients(iter((1, 0.1)), 1.0) == want


def test_series_head_matches_the_closed_form_on_random_input():
    rng = np.random.default_rng(42)
    for _ in range(20):
        a1, a2 = rng.uniform(0.05, 1.0, size=2)
        t = rng.uniform(0.2, 3.0)
        c0, c1 = series_head_coefficients([a1, a2], t)
        assert c0 == pytest.approx(a1, abs=1e-10)
        assert c1 == pytest.approx(4 * a2 + (t - 2) * a1 * a1, abs=1e-10)


def test_jet_kernel_order_zero_is_the_product_kernel():
    jk = JetKernel(SzegoDisc(), SzegoDisc(), 0)
    prod = Product(SzegoDisc(), SzegoDisc())
    pts = sample_points(unit_disc(), 20, 3)
    for z, w in zip(pts[:10], pts[10:]):
        a = complex(np.atleast_2d(jk.eval(z, w))[0, 0])
        b = complex(np.atleast_2d(prod.eval(z, w))[0, 0])
        assert abs(a - b) < 1e-14


def test_jet_kernel_entries_are_kernel_derivatives():
    # row/column 0 is the undifferentiated product; entry (1, 1) is
    # K1 * (d dbar K2)
    jk = JetKernel(SzegoDisc(), SzegoDisc(), 1)
    z, w = 0.3, 0.1 - 0.2j
    mat = jk.eval(z, w)
    k = 1 / (1 - z * np.conj(w))
    ddbar = (1 + z * np.conj(w)) / (1 - z * np.conj(w)) ** 3
    assert complex(mat[0, 0]) == pytest.approx(k * k)
    assert complex(mat[1, 1]) == pytest.approx(complex(k * ddbar))
