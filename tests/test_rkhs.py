import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kernelcalc.errors import BracketError, EvaluationError, ShapeError
from kernelcalc.expr import BallCurvature, Curvature, SzegoDisc, bergman_disc
from kernelcalc.geometry import sample_points, unit_ball, unit_disc
from kernelcalc.parser import parse_kernel
from kernelcalc.rkhs import (
    element,
    inner_product,
    multiplier_bound,
    norm,
    z2_tensor_e1_norm,
)
from oracles import inner_product_per_pair


def _section(kernel, base, index=(0,), direction=(1.0,)):
    return element(kernel, [(1.0, base, index, direction)])


def test_plain_sections_reproduce_the_kernel():
    k = SzegoDisc()
    v, w = 0.3, 0.1 - 0.2j
    ip = inner_product(_section(k, w), _section(k, v))
    # <K(., w), K(., v)> = K(v, w)
    assert ip == pytest.approx(1 / (1 - v * np.conj(w)))


def test_derivative_sections_against_the_closed_form():
    # <dbar K(., w), dbar K(., v)> = (d dbar K)(v, w)
    k = SzegoDisc()
    v, w = 0.4, 0.2j
    ip = inner_product(
        _section(k, w, index=(1,)), _section(k, v, index=(1,))
    )
    p = v * np.conj(w)
    assert ip == pytest.approx((1 + p) / (1 - p) ** 3)


@settings(max_examples=30, deadline=None)
@given(
    text=st.sampled_from(["szego_disc()", "ball_power(2, 3.5)", "ball_curvature(2, 3.0)",
                          "curvature(bergman_ball(2), 1.0, 0.5)"]),
    sizes=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_inner_product_equals_the_per_pair_loop(text, sizes, seed):
    # one jet batch at the largest order gives each pair's entries bit for bit
    kernel = parse_kernel(text)
    m, k = kernel.m, kernel.size
    rng = np.random.default_rng(seed)
    domain = unit_disc(0.6) if m == 1 else unit_ball(m, 0.6)
    points = sample_points(domain, sum(sizes), seed % 1000)

    def spec(p):
        coef = complex(rng.standard_normal(), rng.standard_normal())
        index = tuple(int(x) for x in rng.integers(0, 3 if m == 1 else 2, m))
        direction = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        return coef, p, index, direction

    e1 = element(kernel, [spec(p) for p in points[: sizes[0]]])
    e2 = element(kernel, [spec(p) for p in points[sizes[0]:]])
    got, want = inner_product(e1, e2), inner_product_per_pair(e1, e2)
    assert np.array_equal(got, want), (got, want)


def test_norm_is_linear_in_the_coefficient():
    k = SzegoDisc()
    e1 = element(k, [(2.0, 0.3, (0,), (1.0,))])
    assert norm(e1) == pytest.approx(2 * norm(_section(k, 0.3)))


def test_mixed_kernels_are_rejected():
    with pytest.raises(ShapeError):
        inner_product(_section(SzegoDisc(), 0.1), _section(Curvature(SzegoDisc(), 1, 1), 0.1))


def test_matrix_kernel_directions_must_match_the_size():
    with pytest.raises(ShapeError):
        element(BallCurvature(2, 3.0), [(1.0, (0.1, 0.2), (0, 0), (1.0,))])


@pytest.mark.parametrize("term", [(1.0, 0.1, (0,)), (1.0, 0.1, (0,), (1.0,), 0), 1.0, None])
def test_a_term_that_is_not_a_4_tuple_is_a_shape_error_naming_its_position(term):
    good = (1.0, 0.2, (0,), (1.0,))
    with pytest.raises(ShapeError, match=r"^term 1 is not a \(coef, base, index, direction\)"):
        element(SzegoDisc(), [good, term])


@pytest.mark.parametrize("index", [(1.5,), (-1,), (0.5, 0), 3, None])
def test_an_index_that_is_not_non_negative_integers_is_a_shape_error_naming_its_term(index):
    # (1.5,) used to be read as (1,): a first derivative nobody asked for
    with pytest.raises(ShapeError, match=r"^term 0: index must be non-negative integers"):
        element(SzegoDisc(), [(1.0, 0.1, index, (1.0,))])


@pytest.mark.parametrize("lam", [2.5, 3.0, 5.0, 10.0])
def test_monomial_section_norm_formula(lam):
    got = z2_tensor_e1_norm(2, lam)
    want = np.sqrt((lam - 1) / (lam * (lam - 2)))
    assert got == pytest.approx(want, rel=1e-8)


def test_monomial_section_norm_blows_up_at_the_threshold():
    assert z2_tensor_e1_norm(2, 2.01) > 5.0
    assert z2_tensor_e1_norm(2, 2.001) > z2_tensor_e1_norm(2, 2.01)
    with pytest.raises(EvaluationError):
        z2_tensor_e1_norm(2, 2.0)


@pytest.mark.parametrize("m", [1, 17])
def test_monomial_section_norm_refuses_dimensions_out_of_range(m):
    with pytest.raises(ShapeError, match="2 .. 16"):
        z2_tensor_e1_norm(m, 3.0)


def test_coordinate_multiplier_bound_on_the_disc():
    est = multiplier_bound(SzegoDisc(), 0, unit_disc())
    assert est.bound == pytest.approx(1.0, abs=0.01)
    assert est.bracket[0] <= est.bound <= est.bracket[1]
    assert est.function == "z1"


@pytest.mark.parametrize("kernel,bracket", [
    (SzegoDisc(), (0.9921875, 1.0)),
    (bergman_disc(), (0.9765625, 0.984375)),
])
def test_multiplier_bound_brackets_match_the_eigenvalue_predicate(kernel, bracket):
    # brackets the Jacobi predicate gave on the default families
    assert multiplier_bound(kernel, 0, unit_disc()).bracket == bracket


def test_multiplier_bound_transfers_to_the_curvature_kernel():
    base_est = multiplier_bound(SzegoDisc(), 0, unit_disc())
    curv_est = multiplier_bound(Curvature(SzegoDisc(), 1.0, 1.0), 0, unit_disc())
    assert curv_est.bound <= base_est.bound + 0.01 + 1e-12


def test_modulated_gram_at_c_equal_bound_is_psd():
    from kernelcalc.eig import min_eigenvalue
    from kernelcalc.geometry import sample_points
    from kernelcalc.positivity import gram

    pts = sample_points(unit_disc(), 20, 11)
    f = np.array([p.coords[0] for p in pts])

    def modulated_gram(c):
        """Gram matrix of (c^2 - z wbar) K(z, w) for the Szego kernel K."""
        return (c * c - np.outer(f, f.conj())) * gram(SzegoDisc(), pts)

    g = modulated_gram(1.0)
    assert min_eigenvalue(g) > -1e-9 * (1 + np.abs(np.diag(g)).max())
    g_low = modulated_gram(0.5)
    assert min_eigenvalue(g_low) < -1e-9


def test_callable_multiplier_functions_are_accepted():
    est = multiplier_bound(SzegoDisc(), lambda p: 0.5 * p[0], unit_disc())
    assert est.bound == pytest.approx(0.5, abs=0.01)


def test_a_bound_between_the_last_doubling_and_the_cap_is_found():
    # c doubles through 1, 2, 4 and 8; the cap 10 must be tried itself
    est = multiplier_bound(SzegoDisc(), lambda p: 9 * p[0], unit_disc())
    assert est.bound == pytest.approx(9.0, abs=0.02)
    with pytest.raises(BracketError, match="up to c = 10.0"):
        multiplier_bound(SzegoDisc(), lambda p: 11 * p[0], unit_disc())


def test_the_bound_search_bisects_from_the_last_failing_probe(monkeypatch):
    from kernelcalc import positivity

    probes = []

    def spy(fams, c, tol):
        probes.append(c)
        return families_pass(fams, c, tol)

    families_pass = positivity.families_pass
    monkeypatch.setattr(positivity, "families_pass", spy)
    est = multiplier_bound(SzegoDisc(), lambda p: 9 * p[0], unit_disc())
    # probes 1, 2, 4, 8 fail and 10 passes; 8 bisection steps take [8, 10]
    # below the resolution 0.01, and no probe goes back below 8
    assert len(probes) == 13
    assert probes[:5] == [1.0, 2.0, 4.0, 8.0, 10.0]
    assert min(probes[5:]) > 8.0
    assert est.bracket[0] >= 8.0 and est.bracket[1] - est.bracket[0] <= 0.01


@pytest.mark.parametrize("resolution", [0.0, -1.0, float("nan")])
def test_multiplier_bound_rejects_bad_resolution_before_sampling(resolution, monkeypatch):
    from kernelcalc import positivity

    def no_sampling(*args):
        raise AssertionError("a point family was built")

    monkeypatch.setattr(positivity, "sample_array", no_sampling)
    with pytest.raises(ValueError):
        multiplier_bound(SzegoDisc(), 0, unit_disc(), resolution=resolution)


def test_multiplier_bound_with_a_tiny_resolution_terminates():
    t0 = time.perf_counter()
    est = multiplier_bound(
        SzegoDisc(), 0, unit_disc(), family=((6, 1),), resolution=1e-300
    )
    assert time.perf_counter() - t0 < 1.0
    lo, hi = est.bracket
    assert lo < hi
    assert not lo < (lo + hi) / 2 < hi
