import json
import time
from unittest import mock

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
from kernelcalc.geometry import Point, point_array, sample_array, sample_points, unit_ball, unit_disc
from kernelcalc.parser import parse_kernel
from kernelcalc.positivity import (
    DEFAULT_FAMILIES,
    DEFAULT_TOL,
    _bisect,
    _pairwise,
    _power_families,
    _verdict,
    _wallach_families,
    gram,
    kernel_order_check,
    multiplier_bound,
    multiplier_families,
    ordinary_wallach_scan,
    psd_check,
    wallach_scan,
)

from oracles import hermitian_part_by_halves, pairwise_by_completion


def test_gram_against_a_hand_computed_matrix():
    # szego at {0, 0.5}: K(0,0) = K(0,.5) = K(.5,0) = 1, K(.5,.5) = 4/3
    g = gram(SzegoDisc(), [Point((0.0,)), Point((0.5,))])
    assert np.allclose(g, [[1.0, 1.0], [1.0, 4 / 3]])


_PAIRWISE_KERNELS = ("szego_disc()", "bergman_ball(2)", "ball_curvature(2,1.5)",
                     "jet(szego_disc(),szego_disc(),1)", "log_hessian(bergman_ball(3))")


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_PAIRWISE_KERNELS),
       st.lists(st.tuples(st.integers(1, 7), st.integers(0, 2**64 - 1)), min_size=1, max_size=3))
def test_pairwise_grams_are_hermitian_and_equal_the_completed_halves(text, family):
    # every sampled Gram is made Hermitian once, in `_pairwise`; it must be
    # the conjugate completion of its pairs, symmetrized as two halves
    expr = parse_kernel(text)
    domain = unit_disc() if expr.m == 1 else unit_ball(expr.m)
    sets = [sample_array(domain, n, s) for n, s in family]
    batches = [lambda zs, ws: (expr.values(zs, ws),)]
    if expr.is_scalar:  # the log K and log-Hessian pair of a Wallach scan
        batches.append(expr.log_hessian_values)
    for values_of in batches:
        for pts, grams in zip(sets, _pairwise(sets, values_of), strict=True):
            for got, want in zip(grams, pairwise_by_completion(pts, values_of), strict=True):
                assert np.array_equal(got, got.conj().T)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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
    data = json.loads(json.dumps(rep.to_dict(), allow_nan=False))
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


@pytest.mark.parametrize("k1,k2,domain", [
    (SzegoDisc(), bergman_disc(), unit_disc()),
    (Scale(SzegoDisc(), 0.5), SzegoDisc(), unit_disc(0.5)),
    (parse_kernel("bergman_ball(2)"), parse_kernel("ball_power(2, 3.0)"), unit_ball(2)),
])
def test_kernel_order_gram_is_the_difference_of_grams_from_one_batch(k1, k2, domain, monkeypatch):
    from kernelcalc import positivity

    pairwise = mock.Mock(wraps=positivity._pairwise)
    verdict = mock.Mock(wraps=positivity._verdict)
    monkeypatch.setattr(positivity, "_pairwise", pairwise)
    monkeypatch.setattr(positivity, "_verdict", verdict)
    rep = kernel_order_check(k1, k2, domain, 12, 5)
    assert pairwise.call_count == 1
    monkeypatch.undo()
    pts = sample_points(domain, 12, 5)
    assert np.array_equal(verdict.call_args.args[0], gram(k2, pts) - gram(k1, pts))
    assert rep.min_eigenvalue == _verdict(gram(k2, pts) - gram(k1, pts), DEFAULT_TOL)[0]


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
    assert json.dumps(bound_np.to_dict()) == json.dumps(bound_int.to_dict())
    rep = psd_check(SzegoDisc(), unit_disc(), 5, np.int64(3))
    assert json.dumps(rep.to_dict()) == json.dumps(psd_check(SzegoDisc(), unit_disc(), 5, 3).to_dict())


def test_numpy_integer_coordinates_give_the_same_bound_as_int_ones():
    family = ((8, 1), (12, 2))
    want = multiplier_bound(bergman_ball(2), 1, unit_ball(2), family).to_dict()
    for index in (np.int64(1), np.uint8(1), np.intp(1)):
        got = multiplier_bound(bergman_ball(2), index, unit_ball(2), family).to_dict()
        assert json.dumps(got) == json.dumps(want)
    assert want["function"] == "z2"


@pytest.mark.parametrize("f", [True, False, np.True_, 1.0, "z1", None])
def test_a_multiplier_that_is_no_coordinate_index_or_callable_is_refused(f):
    with pytest.raises(ShapeError, match="coordinate index or a callable"):
        multiplier_bound(bergman_ball(2), f, unit_ball(2), ((8, 1),))


def test_wallach_scan_requires_a_sign_change():
    with pytest.raises(BracketError):
        wallach_scan(bergman_disc(), 0.5, 1.0, unit_disc())
    with pytest.raises(BracketError):
        wallach_scan(bergman_disc(), -3.0, -2.0, unit_disc())


def test_wallach_scan_rejects_matrix_bases():
    with pytest.raises(ShapeError):
        wallach_scan(BallCurvature(2, 3.0), -1.0, 1.0, unit_ball(2))


@pytest.mark.parametrize("name,scan", [
    ("wallach_scan", lambda base: wallach_scan(base, -1.0, 1.0, unit_ball(2))),
    ("ordinary_wallach_scan", lambda base: ordinary_wallach_scan(base, [0.5], unit_ball(2))),
])
def test_a_matrix_base_is_refused_by_name_before_sampling(name, scan, monkeypatch):
    from kernelcalc import positivity

    monkeypatch.setattr(positivity, "sample_array", mock.Mock(side_effect=AssertionError))
    with pytest.raises(ShapeError, match=f"^{name} needs a scalar base kernel, got size 2$"):
        scan(BallCurvature(2, 3.0))


def test_ordinary_wallach_powers_of_szego_stay_positive():
    verdicts = ordinary_wallach_scan(SzegoDisc(), [0.5, 1.0, 2.0], unit_disc())
    assert all(ok for _, ok in verdicts)
    with pytest.raises(ValueError):
        ordinary_wallach_scan(SzegoDisc(), [0.0], unit_disc())


def test_an_ordinary_wallach_grid_given_as_a_generator_is_read_once():
    # the t > 0 check used to exhaust it, leaving no t to scan
    family = ((4, 1),)
    want = ordinary_wallach_scan(SzegoDisc(), [0.5, 1.0], unit_disc(), family)
    assert ordinary_wallach_scan(SzegoDisc(), (t for t in [0.5, 1.0]), unit_disc(), family) == want
    assert len(want) == 2


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

    monkeypatch.setattr(positivity, "sample_array", no_sampling)
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
    (fam,) = _wallach_families(base, domain, ((6, 3),))
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
    (0.0, 1.0, float("inf")),
    (1.0, 0.0, 0.1),
    (0.0, float("inf"), 0.1),
    (float("nan"), 1.0, 0.1),
])
def test_wallach_scan_rejects_bad_input_before_sampling(lo, hi, resolution, monkeypatch):
    from kernelcalc import positivity

    def no_sampling(*args):
        raise AssertionError("a point family was built")

    monkeypatch.setattr(positivity, "sample_array", no_sampling)
    with pytest.raises(ValueError):
        wallach_scan(bergman_disc(), lo, hi, unit_disc(), resolution=resolution)


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
    (fam,) = _wallach_families(base, domain, ((10, 4),))
    for t in np.linspace(-2.0, 1.0, 13):
        g = fam.gram_at(t)
        res = ldl_verdict(g, DEFAULT_TOL)
        assert res.psd == _verdict(g, DEFAULT_TOL)[2]
        if not res.psd:
            v = res.witness
            assert np.vdot(v, g @ v).real < -res.shift * np.vdot(v, v).real


@pytest.mark.parametrize("scan", ["wallach", "ordinary", "bound"])
def test_an_empty_family_is_refused_before_sampling(scan, monkeypatch):
    from kernelcalc import positivity, rkhs

    def no_sampling(*args):
        raise AssertionError("a point family was built")

    monkeypatch.setattr(positivity, "sample_array", no_sampling)
    with pytest.raises(ValueError, match="family is empty"):
        if scan == "wallach":
            wallach_scan(bergman_disc(), -2.0, 0.0, unit_disc(), family=())
        elif scan == "ordinary":
            ordinary_wallach_scan(SzegoDisc(), [0.5, 1.0], unit_disc(), family=())
        else:
            rkhs.multiplier_bound(SzegoDisc(), 0, unit_disc(), ())


@pytest.mark.parametrize("check", [
    lambda d: psd_check(SzegoDisc(), d, 5),
    lambda d: kernel_order_check(SzegoDisc(), bergman_disc(), d, 5),
    lambda d: wallach_scan(bergman_disc(), -2.0, 0.0, d),
    lambda d: ordinary_wallach_scan(SzegoDisc(), [0.5], d),
    lambda d: multiplier_bound(SzegoDisc(), 0, d),
], ids=["psd_check", "kernel_order_check", "wallach_scan", "ordinary_wallach_scan",
        "multiplier_bound"])
def test_a_domain_of_another_dimension_is_refused_before_sampling(check, monkeypatch):
    from kernelcalc import positivity

    def no_sampling(*args):
        raise AssertionError("a point family was built")

    monkeypatch.setattr(positivity, "sample_array", no_sampling)
    with pytest.raises(ShapeError, match="domain dimension does not match the kernel"):
        check(unit_ball(2))


@pytest.mark.parametrize("lo,hi", [
    (0.0, -2.0), (-2.0, -2.0), (float("nan"), 0.0), (-1.0, float("inf")),
])
def test_wallach_scan_rejects_a_bad_interval_before_sampling(lo, hi, monkeypatch):
    from kernelcalc import positivity

    def no_sampling(*args):
        raise AssertionError("a point family was built")

    monkeypatch.setattr(positivity, "sample_array", no_sampling)
    with pytest.raises(ValueError, match="lo < hi"):
        wallach_scan(bergman_disc(), lo, hi, unit_disc())


def test_an_infinite_tolerance_is_refused_not_read_as_a_pass():
    # the README's failing example: its least eigenvalue is -3.42
    with pytest.raises(ValueError, match="tol must be positive and finite, got inf"):
        psd_check(parse_kernel("ball_curvature(2,1.5)"), unit_ball(2), 30, 23, tol=float("inf"))


_TOL_CHECKS = {
    "psd_check": lambda tol: psd_check(SzegoDisc(), unit_disc(), 5, tol=tol),
    "kernel_order_check": lambda tol: kernel_order_check(
        SzegoDisc(), Scale(SzegoDisc(), 2.0), unit_disc(), 5, tol=tol),
    "wallach_scan": lambda tol: wallach_scan(
        SzegoDisc(), -1.0, 1.0, unit_disc(), ((5, 1),), tol=tol),
    "ordinary_wallach_scan": lambda tol: ordinary_wallach_scan(
        SzegoDisc(), [0.5, 1.0], unit_disc(), ((5, 1),), tol=tol),
    "multiplier_bound": lambda tol: multiplier_bound(
        SzegoDisc(), 0, unit_disc(), ((5, 1),), tol=tol),
}


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf"), 0.0])
@pytest.mark.parametrize("check", sorted(_TOL_CHECKS))
def test_every_verdict_refuses_a_tolerance_that_is_not_positive_and_finite(check, tol):
    # the Szego Gram of 5 points is positive definite (least eigenvalue
    # 6.8e-3), and a nan or negative tolerance used to call it "not psd"
    with pytest.raises(ValueError, match="^tol must be positive and finite"):
        _TOL_CHECKS[check](tol)


@pytest.mark.parametrize("tol", [True, "1e-9", None])
def test_a_tolerance_that_is_not_a_real_is_a_type_error_naming_it(tol):
    with pytest.raises(TypeError, match="^tol must be a real"):
        psd_check(SzegoDisc(), unit_disc(), 5, tol=tol)


# scalar built-ins and every scalar combinator, on their own domains
_ONE_PASS_BASES = [
    ("szego_disc()", unit_disc()),
    ("bergman_disc()", unit_disc()),
    ("bergman_ball(2)", unit_ball(2)),
    ("ball_power(3, 4.5)", unit_ball(3)),
    ("diagonal_series([0.5, 0.0, 0.2])", unit_disc()),
    ("pow(szego_disc(), 0.7)", unit_disc()),
    ("pow(bergman_ball(2), 1.5)", unit_ball(2)),
    ("product(szego_disc(), bergman_disc())", unit_disc()),
    ("sum(szego_disc(), bergman_disc())", unit_disc()),
    ("scale(bergman_ball(2), 2.5)", unit_ball(2)),
    ("tensor(szego_disc(), bergman_disc())", None),
]


@pytest.mark.parametrize("text,domain", _ONE_PASS_BASES)
def test_one_jet_pass_equals_the_per_family_evaluations(text, domain):
    base = parse_kernel(text)
    domain = domain or unit_ball(base.m, 0.6)  # inside the bidisc
    family = ((8, 1), (12, 2), (16, 3))
    sets = [sample_points(domain, n, s) for n, s in family]
    for curvature, build in ((True, _wallach_families), (False, _power_families)):
        for pts, fam in zip(sets, build(base, domain, family)):
            n = len(pts)
            arr = point_array(pts, base.m)
            assert np.array_equal(fam.points, arr)
            ((logk,),) = _pairwise([arr], lambda zs, ws: (base.values(zs, ws, log=True),))
            for t in (-1.5, 0.25, 2.0):
                assert np.array_equal(fam.modulation(t), np.exp(t * logk.reshape(n, n)))
            blocks = fam.blocks.reshape(fam.blocks.shape[0] * fam.blocks.shape[1], -1)
            if curvature:
                assert np.array_equal(blocks, gram(LogHessian(base), pts))
            else:
                assert np.array_equal(blocks, np.ones((n, n)))


def _kron_gram(fam, t):
    """G(t) by the Kronecker formula, symmetrized."""
    n, k = fam.blocks.shape[:2]
    b = fam.blocks.reshape(n * k, n * k)
    return hermitian_part_by_halves(np.kron(fam.modulation(t), np.ones((k, k))) * b)


@settings(max_examples=10, deadline=None)
@given(st.floats(-2.0, 3.0), st.sampled_from([0, 1, 2]))
def test_broadcast_family_grams_equal_the_kronecker_formula(t, which):
    base, domain = [(bergman_disc(), unit_disc()), (bergman_ball(2), unit_ball(2)),
                    (bergman_ball(3), unit_ball(3))][which]
    family = ((8, 1), (12, 2))
    fams = (
        _wallach_families(base, domain, family)
        + _power_families(base, domain, family)
        + multiplier_families(base, lambda p: p[0], domain, family)
        + multiplier_families(base, lambda p: p[0], domain, family, power=2)
    )
    for fam in fams:
        assert np.array_equal(hermitian_part_by_halves(fam.gram_at(t)), _kron_gram(fam, t))


def test_multiplier_grams_of_one_pass_equal_the_per_family_grams():
    family = ((8, 1), (12, 2), (16, 3))
    for text in ("szego_disc()", "bergman_disc()", "curvature(szego_disc(), 1, 1)"):
        expr = parse_kernel(text)
        sets = [sample_points(unit_disc(), n, s) for n, s in family]
        plains = multiplier_families(expr, lambda p: p[0], unit_disc(), family)
        squares = multiplier_families(expr, lambda p: p[0], unit_disc(), family, power=2)
        for pts, plain, squared in zip(sets, plains, squares):
            assert np.array_equal(plain.points, point_array(pts, 1))
            assert np.array_equal(plain.blocks.reshape(len(pts), len(pts)), gram(expr, pts))
            assert np.array_equal(squared.blocks, plain.blocks)
            f = np.array([p[0] for p in pts])
            for c in (0.5, 1.0, 1.5):
                want = c * c - np.outer(f, f.conj())
                assert np.array_equal(plain.modulation(c), want)
                assert np.array_equal(squared.modulation(c), np.square(want))


def _families_pass_by_verdicts(fams, t, tol):
    """`families_pass` by full `ldl_verdict`s, witnesses and all."""
    return all(ldl_verdict(f.gram_at(t), tol).psd for f in fams)


@pytest.mark.parametrize("seeds", [(1, 2, 3), (1911, 1912, 1913), (2**40 + 7, 5, 2**63)])
def test_sign_only_scans_and_bounds_equal_the_full_verdict_runs(seeds):
    # the benchmark's scan workload: three Wallach cases and two bounds
    from kernelcalc import positivity

    family = tuple(zip((8, 12, 16), seeds))
    runs = [
        lambda: wallach_scan(bergman_disc(), -2.0, 0.0, unit_disc(), family),
        lambda: wallach_scan(bergman_ball(2), -1.0, 1.0, unit_ball(2), family),
        lambda: wallach_scan(bergman_ball(3), -1.0, 1.0, unit_ball(3), family),
        lambda: multiplier_bound(SzegoDisc(), 0, unit_disc(), family),
        lambda: multiplier_bound(bergman_disc(), 0, unit_disc(), family),
    ]
    fast = [json.dumps(run().to_dict()) for run in runs]
    with mock.patch.object(positivity, "families_pass", wraps=_families_pass_by_verdicts) as ref:
        full = [json.dumps(run().to_dict()) for run in runs]
    assert ref.call_count > 5 * 5
    assert fast == full
