import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kernelcalc.automorphisms import CocycleSpec, MobiusMap
from kernelcalc.errors import DomainError
from kernelcalc.fd import fd_relative_error
from kernelcalc import geometry
from kernelcalc.geometry import (
    MultiIndex,
    Point,
    graded_lex_tuples,
    point_array,
    polydisc,
    sample_array,
    sample_points,
    unit_ball,
    unit_disc,
)
from kernelcalc.parser import parse_kernel
from kernelcalc.rkhs import element, norm

from oracles import as_point, sample_array_by_linalg_norm, sample_points_per_attempt


def test_point_basics():
    p = Point((0.3 + 0.4j, 0.0))
    assert p.dim == 2
    assert np.linalg.norm(p.coords) == pytest.approx(0.5)
    assert list(p) == [0.3 + 0.4j, 0.0]


def test_as_point_coercion_and_dimension_check():
    assert as_point(0.5, 1).coords == (0.5 + 0j,)
    assert as_point([0.1, 0.2], 2).coords == (0.1 + 0j, 0.2 + 0j)
    with pytest.raises(DomainError):
        as_point([0.1], 2)


def test_point_arrays_of_points_tuples_and_scalars():
    pts = [Point((0.1, 0.2j)), Point((0.3, -0.4))]
    want = np.array([[0.1, 0.2j], [0.3, -0.4]], dtype=complex)
    for got in (point_array(pts, 2), point_array([p.coords for p in pts], 2),
                point_array([[0.1, 0.2j], (0.3, -0.4)], 2), point_array(want, 2)):
        assert got.dtype == complex and np.array_equal(got, want)
    scalars = point_array([0.1, 0.2j, 3], 1)
    assert np.array_equal(scalars, np.array([[0.1], [0.2j], [3.0]], dtype=complex))
    for mixed in ((Point((0.5,)), (0.25,)), [Point((0.5,)), 0.25]):
        assert np.array_equal(point_array(mixed, 1), [[0.5], [0.25]])
    assert point_array([], 2).shape == (0, 2)


@pytest.mark.parametrize("points, m, dimension", [
    ([(0.1, 0.2, 0.3)], 2, r"\(1, 3\)"),
    ([Point((0.1,))], 2, r"\(1, 1\)"),
    ([(0.1, 0.2), (0.3,)], 2, "dimension 1"),
    ([(0.1,), (0.2, 0.3)], 1, "dimension 2"),
    (np.zeros((3, 1)), 2, r"\(3, 1\)"),
    ([[[0.1, 0.2]]], 2, r"\(1, 1, 2\)"),
])
def test_point_arrays_of_the_wrong_dimension_are_refused_by_name(points, m, dimension):
    with pytest.raises(DomainError, match=f"C\\^{m}, got .*{dimension}"):
        point_array(points, m)


def test_scalars_are_points_only_of_c1():
    with pytest.raises(DomainError, match=r"C\^2, got an array of shape \(2, 1\)"):
        point_array([0.3, 0.5], 2)
    with pytest.raises(DomainError, match=r"C\^2, got an array of shape \(2,\)"):
        point_array(np.array([0.3, 0.5]), 2)


def test_a_1d_array_is_scalars_of_c1_like_the_list():
    zs, ws = [0.1, 0.2j, -0.0], [0.0, 0.1, 3e-310]
    assert _bit_pattern(point_array(np.array(zs), 1)) == _bit_pattern(point_array(zs, 1))
    assert point_array(np.array(zs), 1).shape == (3, 1)
    assert point_array(np.array([]), 1).shape == (0, 1)
    kern = parse_kernel("szego_disc()")
    got, want = kern.values(np.array(zs), np.array(ws)), kern.values(zs, ws)
    assert got.shape == want.shape == (3, 1, 1)
    assert _bit_pattern(got) == _bit_pattern(want)


_COORDS = st.one_of(
    st.integers(-10, 10),
    st.floats(width=64),
    st.complex_numbers(),
    st.floats(width=64).map(np.float64),
    st.complex_numbers().map(np.complex128),
)


@st.composite
def _single_points(draw):
    """A point in each form a caller may pass, and its dimension."""
    kind = draw(st.sampled_from(["scalar", "tuple", "list", "Point", "array"]))
    if kind == "scalar":
        return draw(_COORDS), 1
    coords = draw(st.lists(_COORDS, min_size=1, max_size=4))
    wrap = {"tuple": tuple, "list": list, "Point": Point, "array": np.array}[kind]
    return wrap(coords), len(coords)


def _bit_pattern(a) -> bytes:
    return np.ascontiguousarray(a, dtype=complex).tobytes()


@settings(max_examples=300, deadline=None)
@given(point=_single_points(), m=st.integers(1, 3))
def test_a_batch_of_one_point_is_the_reference_coercion_bit_for_bit(point, m):
    p, dimension = point
    if dimension != m:
        with pytest.raises(DomainError, match=f"C\\^{m}"):
            as_point(p, m)
        with pytest.raises(DomainError, match=f"C\\^{m}"):
            point_array([p], m)
        return
    want = as_point(p, m).array()[None]
    got = point_array([p], m)
    assert got.shape == want.shape == (1, m) and got.dtype == complex
    assert _bit_pattern(got) == _bit_pattern(want)


_DISC_MAP = MobiusMap([0.5])


def _element_base_and_norm(x):
    e = element(parse_kernel("szego_disc()"), [(1.0, x, (1,), (1.0,))])
    return [*e.terms[0].base.coords, norm(e)]


#: every entry that takes one point, on C^1
_SINGLE_POINT_ENTRIES = {
    "eval z": lambda x: parse_kernel("szego_disc()").eval(x, 0.2),
    "eval w": lambda x: parse_kernel("bergman_disc()").eval(0.3j, x),
    "eval_jet": lambda x: parse_kernel("szego_disc()").eval_jet(x, x, 2).derivatives,
    "fd_relative_error": lambda x: fd_relative_error(parse_kernel("bergman_disc()"), x, 0.2, 2),
    "MobiusMap.apply": lambda x: _DISC_MAP.apply(x).coords,
    "MobiusMap.derivative": _DISC_MAP.derivative,
    "CocycleSpec.matrix": lambda x: CocycleSpec("curvature_cocycle", 0.5).matrix(_DISC_MAP, x, 1),
    "rkhs.element": _element_base_and_norm,
}


@pytest.mark.parametrize("x", [np.int64(0), np.float64(0.1), np.array(0.1)],
                         ids=["int64", "float64", "0-d array"])
@pytest.mark.parametrize("entry", list(_SINGLE_POINT_ENTRIES))
def test_numpy_scalars_are_points_of_c1_at_every_single_point_entry(entry, x):
    f = _SINGLE_POINT_ENTRIES[entry]
    assert _bit_pattern(f(x)) == _bit_pattern(f(float(x)))


def test_multi_index_order_and_partial_order():
    i = MultiIndex((1, 2))
    assert i.order == 3
    with pytest.raises(ValueError):
        MultiIndex((-1, 0))


@pytest.mark.parametrize("entries", [(1.5,), (0, 0.5), (1, float("nan")), (float("inf"),),
                                     (True,), ("1",), (1j,)])
def test_a_multi_index_refuses_entries_that_are_not_integral(entries):
    # int(1.5) would round it to the first derivative
    with pytest.raises(ValueError, match="non-negative integers"):
        MultiIndex(entries)


def test_a_multi_index_stores_integral_reals_as_ints():
    i = MultiIndex((2.0, np.int64(1), 0))
    assert i.entries == (2, 1, 0)
    assert all(type(e) is int for e in i.entries)


def test_enumeration_matches_hand_listing():
    got = graded_lex_tuples(2, 1)
    assert got == [(0, 0), (1, 0), (0, 1)]
    got2 = graded_lex_tuples(2, 2)
    assert got2 == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


@given(st.integers(1, 3), st.integers(0, 4))
def test_enumeration_is_strictly_increasing_and_complete(m, max_order):
    idxs = graded_lex_tuples(m, max_order)
    assert len(set(idxs)) == len(idxs)
    orders = [sum(i) for i in idxs]
    assert orders == sorted(orders)
    # within a degree the tuples decrease lexicographically
    from itertools import groupby

    for _, grp in groupby(idxs, key=sum):
        grp = list(grp)
        assert grp == sorted(grp, reverse=True)
    # completeness: every multi-index of total order <= max_order appears
    from math import comb

    assert len(idxs) == comb(m + max_order, m)


@pytest.mark.parametrize("domain", [unit_disc(), unit_ball(2), polydisc(3)])
def test_sampling_is_deterministic_and_in_domain(domain):
    a = sample_points(domain, 25, 7)
    b = sample_points(domain, 25, 7)
    assert a == b
    c = sample_points(domain, 25, 8)
    assert a != c
    for p in a:
        if domain.kind == "unit-ball":
            assert np.linalg.norm(p.coords) < 1
        else:
            assert np.abs(p.coords).max() < 1


def test_sample_radius_bounds_the_points():
    for p in sample_points(unit_ball(2, 0.3), 50, 1):
        assert np.linalg.norm(p.coords) <= 0.3 + 1e-12


def test_seeds_are_integers_below_2_to_the_64():
    dom = unit_disc()
    assert sample_points(dom, 3, np.uint64(7)) == sample_points(dom, 3, 7)
    assert len(sample_points(dom, 3, 2**64 - 1)) == 3
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match="64 bits"):
            sample_points(dom, 3, bad)
    with pytest.raises(TypeError):
        sample_points(dom, 3, 1.5)


def test_ball_sampling_over_the_attempt_budget_is_refused_at_once():
    # the ball of C^12 keeps 1/12! of the polydisc attempts
    for count in (1, 20):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"unit ball of C\^12"):
            sample_points(unit_ball(12), count, 0)
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("domain, count, words", [
    (unit_ball(10**400), 3, "3 point(s) of the unit ball of C^" + "1" + "0" * 400),
    (unit_ball(10**5), 1, "1 point(s) of the unit ball of C^100000"),
    (unit_ball(8), 53, "53 point(s) of the unit ball of C^8"),
    (unit_disc(), 10**12, "1000000000000 point(s) of the unit disc of C^1"),
    (unit_disc(), 2**64, f"{2**64} point(s) of the unit disc of C^1"),
    (unit_disc(), 2**24 + 1, f"{2**24 + 1} point(s) of the unit disc of C^1"),
    (polydisc(2), 2**23 + 1, f"{2**23 + 1} point(s) of the polydisc of C^2"),
    (polydisc(10**400), 1, "1 point(s) of the polydisc of C^1" + "0" * 400),
], ids=["ball 10^400", "ball 10^5", "ball 8", "disc 10^12", "disc 2^64", "disc 2^24+1",
        "polydisc 2", "polydisc 10^400"])
def test_every_domain_refuses_a_draw_over_the_coordinate_budget_at_once(domain, count, words):
    # count * m coordinates, times m! attempts per point on the ball
    start = time.perf_counter()
    with pytest.raises(ValueError) as info:
        sample_array(domain, count, 0)
    assert str(info.value) == (f"sampling {words} draws more coordinates than the budget "
                               f"of {geometry._MAX_COORDINATES}")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("domain, count, per_point", [
    (unit_ball(8), 40, 40320), (unit_ball(8), 52, 40320), (unit_ball(9), 5, 362880),
    (unit_ball(2), 2**21, 2), (unit_disc(), 2**24, 1), (polydisc(2), 2**23, 1),
    (polydisc(2**24), 1, 1),
], ids=["ball 8 at 40", "ball 8 at 52", "ball 9", "ball 2", "disc", "polydisc 2",
        "polydisc 2^24"])
def test_draws_within_the_budget_are_accepted(domain, count, per_point):
    # every ball request the attempt budget of 2^21 accepted still is
    assert geometry._attempts_per_point(domain, count) == per_point


def test_off_the_ball_every_attempt_is_kept_so_none_is_spare(monkeypatch):
    shapes, make = [], np.random.default_rng

    class Spy:
        def __init__(self, seed):
            self.rng = make(seed)

        def random(self, shape):
            shapes.append(shape)
            return self.rng.random(shape)

    monkeypatch.setattr(np.random, "default_rng", Spy)
    sample_array(polydisc(3), 5, 1)
    sample_array(unit_disc(), 70000, 2)
    assert shapes == [(5, 2, 3), (65536, 2, 1), (70000 - 65536, 2, 1)]


def test_domain_validation():
    with pytest.raises(ValueError):
        unit_disc(1.5)
    with pytest.raises(ValueError):
        unit_ball(0)


def _bits(points) -> np.ndarray:
    return np.array([p.coords for p in points], dtype=complex).view(np.uint64)


@pytest.mark.parametrize(
    "domain",
    [unit_disc(), unit_disc(0.35)]
    + [unit_ball(m, r) for m in (1, 2, 3, 4) for r in (0.8, 0.5)]
    + [polydisc(2), polydisc(3, 0.9)],
    ids=repr,
)
def test_sampling_equals_the_per_attempt_loop(domain):
    for seed in range(120):
        count = (1, 2, 13, 40)[seed % 4]
        got = sample_points(domain, count, seed)
        want = sample_points_per_attempt(domain, count, seed)
        assert len(got) == count
        assert np.array_equal(_bits(got), _bits(want)), seed


@pytest.mark.parametrize("domain", [unit_disc(), unit_ball(2), unit_ball(3, 0.5), polydisc(3)],
                         ids=["disc", "ball2", "ball3", "polydisc3"])
@pytest.mark.parametrize("seed", [0, 17, np.int64(17), np.uint64(2**64 - 1)])
def test_sample_points_are_the_sample_array_rows_bit_for_bit(domain, seed):
    arr = sample_array(domain, 25, seed)
    assert arr.shape == (25, domain.dim) and arr.dtype == complex
    coords = np.array([p.coords for p in sample_points(domain, 25, seed)], dtype=complex)
    assert np.array_equal(coords.view(np.uint64), arr.view(np.uint64))


_SAMPLED_DOMAINS = [unit_disc(), unit_disc(0.35), unit_ball(2), unit_ball(3, 0.5),
                    unit_ball(4), polydisc(2), polydisc(3, 0.9)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_SAMPLED_DOMAINS), st.integers(1, 64), st.integers(0, 2**64 - 1))
@example(unit_ball(3), 64, 0)
@example(unit_disc(), 1, 2**64 - 1)
def test_sampling_equals_the_draw_it_replaced_bit_for_bit(domain, count, seed):
    # the ball's rejection test inlines np.linalg.norm's operations, and a
    # one-chunk draw is returned without a concatenation
    got = sample_array(domain, count, seed)
    want = sample_array_by_linalg_norm(domain, count, seed)
    assert got.shape == want.shape == (count, domain.dim) and got.dtype == complex
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
