import numpy as np
import pytest
from hypothesis import given, strategies as st

from kernelcalc.errors import DomainError
from kernelcalc.geometry import (
    MultiIndex,
    Point,
    as_point,
    graded_lex_tuples,
    polydisc,
    sample_points,
    unit_ball,
    unit_disc,
)


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


def test_multi_index_order_and_partial_order():
    i = MultiIndex((1, 2))
    assert i.order == 3
    with pytest.raises(ValueError):
        MultiIndex((-1, 0))


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


def test_domain_validation():
    with pytest.raises(ValueError):
        unit_disc(1.5)
    with pytest.raises(ValueError):
        unit_ball(0)
