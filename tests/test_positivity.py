import json
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from kernelcalc.eig import ldl_verdict
from kernelcalc.errors import BracketError, ShapeError
from kernelcalc.expr import (
    BallCurvature,
    Curvature,
    DiagonalSeries,
    LogHessian,
    Pow,
    Scale,
    SzegoDisc,
    bergman_ball,
    bergman_disc,
)
from kernelcalc.geometry import Point, sample_points, unit_ball, unit_disc
from kernelcalc.positivity import (
    DEFAULT_FAMILIES,
    DEFAULT_TOL,
    _bisect,
    _power_families,
    _verdict,
    gram,
    kernel_order_check,
    ordinary_wallach_scan,
    psd_check,
    wallach_scan,
)


def test_gram_against_a_hand_computed_matrix():
    # szego at {0, 0.5}: K(0,0) = K(0,.5) = K(.5,0) = 1, K(.5,.5) = 4/3
    g = gram(SzegoDisc(), [Point((0.0,)), Point((0.5,))])
    assert np.allclose(g, [[1.0, 1.0], [1.0, 4 / 3]])


def test_gram_blocks_for_matrix_kernels():
    expr = BallCurvature(2, 3.0)
    pts = sample_points(unit_ball(2), 3, 5)
    g = gram(expr, pts)
    assert g.shape == (6, 6)
    block = g[0:2, 2:4]
    assert np.allclose(block, expr.eval(pts[0], pts[1]))
    assert np.abs(g - g.conj().T).max() < 1e-12


@pytest.mark.parametrize("expr,domain", [
    (SzegoDisc(), unit_disc()),
    (bergman_ball(2), unit_ball(2)),
    (Curvature(SzegoDisc(), 1.0, 1.0), unit_disc()),
    (BallCurvature(2, 2.5), unit_ball(2)),
])
def test_positive_kernels_certify_psd(expr, domain):
    rep = psd_check(expr, domain, 20, 11)
    assert rep.psd
    assert rep.min_eigenvalue >= -rep.tolerance * (1 + rep.max_diagonal)


def test_ball_matrix_kernel_fails_below_the_threshold():
    rep = psd_check(BallCurvature(2, 1.5), unit_ball(2), 30, 23)
    assert not rep.psd
    assert rep.min_eigenvalue < -rep.tolerance


def test_verdicts_are_deterministic_for_a_fixed_seed():
    a = psd_check(SzegoDisc(), unit_disc(), 15, 4)
    b = psd_check(SzegoDisc(), unit_disc(), 15, 4)
    assert a.min_eigenvalue == b.min_eigenvalue
    assert a.points == b.points


def test_report_serialization_schema():
    rep = psd_check(SzegoDisc(), unit_disc(), 5, 2)
    data = json.loads(rep.to_json())
    assert set(data) == {
        "kernel", "points", "size", "min_eig", "psd", "tol", "seed", "max_diagonal", "threshold"
    }
    assert data["threshold"] == data["tol"] * (1 + data["max_diagonal"])
    assert data["psd"] == (data["min_eig"] >= -data["threshold"])
    assert data["kernel"] == "szego_disc()"
    assert len(data["points"]) == 5


def test_kernel_order_is_one_directional():
    # szego dominates its half, not the other way around
    half = Scale(SzegoDisc(), 0.5)
    ok = kernel_order_check(half, SzegoDisc(), unit_disc(), 20, 11)
    bad = kernel_order_check(SzegoDisc(), half, unit_disc(), 20, 11)
    assert ok.psd
    assert not bad.psd


def test_wallach_scan_brackets_the_disc_boundary():
    est = wallach_scan(bergman_disc(), -2.0, 0.0, unit_disc())
    assert abs(est.boundary - (-1.0)) <= 0.05
    assert est.bracket[0] < est.boundary < est.bracket[1]
    lo_verdict = dict(est.verdicts)[-2.0]
    assert lo_verdict is False


def test_numpy_integer_seeds_give_the_same_results_as_int_seeds():
    from kernelcalc.rkhs import multiplier_bound

    sizes, seeds = (8, 12), np.array([11, 23])
    np_family = tuple(zip(sizes, seeds))
    int_family = tuple(zip(sizes, seeds.tolist()))
    assert isinstance(np_family[0][1], np.integer)

    def bracket(fam):
        return wallach_scan(bergman_disc(), -2.0, 0.0, unit_disc(), family=fam).bracket

    assert bracket(np_family) == bracket(int_family)
    bound_np = multiplier_bound(SzegoDisc(), 0, unit_disc(), np_family)
    bound_int = multiplier_bound(SzegoDisc(), 0, unit_disc(), int_family)
    assert bound_np.bracket == bound_int.bracket
    assert bound_np.to_json() == bound_int.to_json()
    rep = psd_check(SzegoDisc(), unit_disc(), 5, np.int64(3))
    assert rep.to_json() == psd_check(SzegoDisc(), unit_disc(), 5, 3).to_json()


def test_wallach_scan_requires_a_sign_change():
    with pytest.raises(BracketError):
        wallach_scan(bergman_disc(), 0.5, 1.0, unit_disc())
    with pytest.raises(BracketError):
        wallach_scan(bergman_disc(), -3.0, -2.0, unit_disc())


def test_wallach_scan_rejects_matrix_bases():
    with pytest.raises(ShapeError):
        wallach_scan(BallCurvature(2, 3.0), -1.0, 1.0, unit_ball(2))


def test_ordinary_wallach_powers_of_szego_stay_positive():
    verdicts = ordinary_wallach_scan(SzegoDisc(), [0.5, 1.0, 2.0], unit_disc())
    assert all(ok for _, ok in verdicts)
    with pytest.raises(ValueError):
        ordinary_wallach_scan(SzegoDisc(), [0.0], unit_disc())


def test_failing_pair_is_named_in_evaluation_errors():
    from kernelcalc.errors import EvaluationError

    from kernelcalc.expr import DiagonalSeries

    # a large negative series coefficient pushes the kernel value across
    # the branch cut at some off-diagonal pairs
    bad = Pow(DiagonalSeries([-40.0]), 0.5)
    pts = sample_points(unit_disc(), 10, 1)
    with pytest.raises(EvaluationError) as exc:
        gram(bad, pts)
    assert "pair" in str(exc.value)


def test_gram_names_the_one_pair_that_breaks_the_branch():
    from kernelcalc.errors import BranchError, EvaluationError

    from kernelcalc.expr import DiagonalSeries

    # 1 - 40 z wbar leaves the right half-plane only at the pair (0.2, 0.2)
    bad = Pow(DiagonalSeries([-40.0]), 0.5)
    with pytest.raises(EvaluationError) as exc:
        gram(bad, [0.0, 0.2, 0.1j])
    assert "at pair (((0.2+0j),), ((0.2+0j),))" in str(exc.value)
    assert isinstance(exc.value.__cause__, BranchError)


@pytest.mark.parametrize("resolution", [0.0, -1.0, float("nan")])
def test_wallach_scan_rejects_bad_resolution_before_sampling(resolution, monkeypatch):
    from kernelcalc import positivity

    def no_sampling(*args):
        raise AssertionError("a point family was built")

    monkeypatch.setattr(positivity, "sample_points", no_sampling)
    with pytest.raises(ValueError):
        wallach_scan(bergman_disc(), -2.0, 0.0, unit_disc(), resolution=resolution)


def test_wallach_scan_with_a_tiny_resolution_terminates():
    t0 = time.perf_counter()
    est = wallach_scan(
        bergman_disc(), -2.0, 0.0, unit_disc(), family=((6, 1),), resolution=1e-300
    )
    assert time.perf_counter() - t0 < 1.0
    lo, hi = est.bracket
    assert lo < hi
    assert not lo < (lo + hi) / 2 < hi


@settings(max_examples=15, deadline=None)
@given(st.floats(0.05, 3.0), st.sampled_from([0, 1]))
def test_curvature_family_matches_the_curvature_gram(t, which):
    base, domain = [(bergman_disc(), unit_disc()), (bergman_ball(2), unit_ball(2))][which]
    (fam,) = _power_families(
        base, domain, ((6, 3),), lambda pts: gram(LogHessian(base), pts)
    )
    ref = gram(Curvature(base, t / 2, t / 2), fam.points)
    assert np.abs(fam.gram_at(t) - ref).max() <= 1e-12 * np.abs(ref).max()


@settings(max_examples=10, deadline=None)
@given(
    st.lists(
        st.one_of(st.floats(0.05, 3.0), st.sampled_from([1.0, 2.0, 3.0])),
        min_size=1,
        max_size=4,
    )
)
def test_ordinary_scan_verdicts_match_per_t_power_grams(ts):
    # K^t fails for small t and passes at integer t
    base = DiagonalSeries([0.5, 0.0, 0.2])
    family = ((6, 2), (8, 5))
    got = ordinary_wallach_scan(base, ts, unit_disc(), family=family)
    fams = [sample_points(unit_disc(), n, s) for n, s in family]
    want = [
        (t, all(_verdict(gram(Pow(base, t), pts), DEFAULT_TOL)[2] for pts in fams))
        for t in ts
    ]
    assert got == want


@given(
    st.floats(-10.0, 10.0),
    st.floats(0.1, 10.0),
    st.floats(0.0, 1.0),
    st.floats(1e-9, 1.0),
)
def test_bisect_brackets_a_threshold(lo, width, frac, resolution):
    hi = lo + width
    threshold = lo + frac * width
    assume(lo < threshold <= hi)
    a, b = _bisect(lambda t: t >= threshold, lo, hi, resolution)
    assert a < threshold <= b
    assert b - a <= resolution


@pytest.mark.parametrize("lo,hi,resolution", [
    (0.0, 1.0, 0.0),
    (0.0, 1.0, -1.0),
    (0.0, 1.0, float("nan")),
    (0.0, 1.0, float("inf")),
    (1.0, 0.0, 0.1),
    (0.0, float("inf"), 0.1),
    (float("nan"), 1.0, 0.1),
])
def test_bisect_rejects_bad_input(lo, hi, resolution):
    with pytest.raises(ValueError):
        _bisect(lambda t: True, lo, hi, resolution)


# The bisection brackets and verdict sequences the Jacobi predicate gave on
# the battery's three cases (default families) and on three benchmark-sized
# scans (families of 8, 12 and 16 points).  The first two verdicts are at the
# ends of the interval, the rest at the successive midpoints.
_SCAN_HISTORY = (False, True, True, False, False, False, False, False)


@pytest.mark.parametrize("base,domain,lo,hi,bracket,family", [
    (bergman_ball(2), unit_ball(2), -1.0, 1.0, (-0.03125, 0.0), DEFAULT_FAMILIES),
    (bergman_ball(3), unit_ball(3), -1.0, 1.0, (-0.03125, 0.0), DEFAULT_FAMILIES),
    (bergman_disc(), unit_disc(), -2.0, 0.0, (-1.03125, -1.0), DEFAULT_FAMILIES),
    (bergman_disc(), unit_disc(), -2.0, 0.0, (-1.03125, -1.0), ((8, 1), (12, 2), (16, 3))),
    (bergman_ball(2), unit_ball(2), -1.0, 1.0, (-0.03125, 0.0), ((8, 1), (12, 2), (16, 3))),
    (bergman_ball(3), unit_ball(3), -1.0, 1.0, (-0.03125, 0.0), ((8, 1), (12, 2), (16, 3))),
])
def test_scan_verdicts_match_the_eigenvalue_predicate(base, domain, lo, hi, bracket, family):
    est = wallach_scan(base, lo, hi, domain, family)
    assert est.bracket == bracket
    assert tuple(ok for _, ok in est.verdicts) == _SCAN_HISTORY


@pytest.mark.parametrize("base,domain", [
    (bergman_disc(), unit_disc()),
    (bergman_ball(2), unit_ball(2)),
])
def test_family_verdicts_agree_with_jacobi_and_fail_with_a_witness(base, domain):
    (fam,) = _power_families(
        base, domain, ((10, 4),), lambda pts: gram(LogHessian(base), pts)
    )
    for t in np.linspace(-2.0, 1.0, 13):
        g = fam.gram_at(t)
        res = ldl_verdict(g, DEFAULT_TOL)
        assert res.psd == _verdict(g, DEFAULT_TOL)[2]
        if not res.psd:
            v = res.witness
            assert np.vdot(v, g @ v).real < -res.shift * np.vdot(v, v).real
