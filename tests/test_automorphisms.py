import cmath
import itertools
import json
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kernelcalc.automorphisms import (
    MAX_QUASI_PAIRS,
    CocycleSpec,
    MobiusMap,
    check_pair_count,
    curvature_quasi_check,
    quasi_invariance_residual,
)
from kernelcalc.errors import BranchError, DomainError, EvaluationError, ShapeError
from kernelcalc.expr import Curvature, LogHessian, bergman_ball, bergman_disc
from kernelcalc.geometry import point_array, sample_points, unit_ball, unit_disc
from kernelcalc.parser import parse_kernel
from oracles import jacobians_by_jets, quasi_invariance_residual_two_calls


def _pairs(domain, n, seed):
    pts = sample_points(domain, 2 * n, seed)
    return list(zip(pts[:n], pts[n:]))


def _random_map(m, seed, with_unitary=False):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    a = 0.5 * rng.random() * v / np.linalg.norm(v)
    u = None
    if with_unitary:
        q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        u = q
    return MobiusMap(a, u)


def test_zero_base_point_is_the_identity():
    phi = MobiusMap([0.0, 0.0])
    z = (0.3, 0.1j)
    assert phi.apply(z).coords == pytest.approx(z)
    assert np.allclose(phi.derivative(z), np.eye(2))
    assert np.linalg.det(phi.derivative(z)) == pytest.approx(1.0)


def test_base_point_maps_to_zero_and_back():
    phi = MobiusMap([0.5])
    assert phi.apply(0.5).coords[0] == pytest.approx(0.0)
    assert phi.apply(0.0).coords[0] == pytest.approx(0.5)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_involution_property(m):
    phi = _random_map(m, 11)
    rng = np.random.default_rng(5)
    for _ in range(20):
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        z = 0.7 * rng.random() * v / np.linalg.norm(v)
        back = phi.apply(phi.apply(z)).array()
        assert np.abs(back - z).max() < 1e-12


def test_disc_derivative_matches_hand_differentiation():
    # phi_a(z) = (a - z)/(1 - abar z) gives phi'(0) = |a|^2 - 1
    a = 0.4 + 0.3j
    phi = MobiusMap([a])
    got = phi.derivative(0.0)[0, 0]
    assert got == pytest.approx(abs(a) ** 2 - 1)


def test_chain_rule_for_compositions():
    phi = _random_map(2, 3)
    psi = _random_map(2, 4)
    z = (0.1, -0.2j)
    w = psi.apply(z)
    # finite-difference free: jets give the Jacobians directly
    lhs_fn = lambda z: phi.apply(psi.apply(z))  # noqa: E731
    # compare through the quasi-invariance machinery instead: evaluate
    # D(phi o psi) = Dphi(psi(z)) Dpsi(z) entrywise
    h = 1e-6
    jac = np.empty((2, 2), dtype=complex)
    base = np.array(lhs_fn(z), dtype=complex)
    for k in range(2):
        dz = np.array(z, dtype=complex)
        dz[k] += h
        jac[:, k] = (np.array(lhs_fn(tuple(dz)), dtype=complex) - base) / h
    want = phi.derivative(w) @ psi.derivative(z)
    assert np.abs(jac - want).max() < 1e-5


def test_validation_of_map_data():
    with pytest.raises(DomainError):
        MobiusMap([1.2])
    with pytest.raises(DomainError):
        MobiusMap([float("nan")])
    with pytest.raises(DomainError):
        MobiusMap([0.1, complex(0, float("inf"))])
    with pytest.raises(ShapeError):
        MobiusMap([0.1], [[float("nan")]])
    with pytest.raises(ShapeError):
        MobiusMap([0.1, 0.2], [[1, 0], [0, float("inf")]])
    with pytest.raises(ShapeError):
        MobiusMap([0.1, 0.2], np.ones((2, 2)))
    for empty in ((), [], np.zeros(0)):
        with pytest.raises(ShapeError, match="^base point needs at least one coordinate$"):
            MobiusMap(empty)
    with pytest.raises(ShapeError):
        CocycleSpec("unknown_kind")


def test_points_outside_the_ball_are_rejected():
    phi = MobiusMap([0.2, 0.1])
    with pytest.raises(DomainError):
        phi.apply((1.5, 0.0))


_OUTSIDE = [(MobiusMap([0.5]), [[1.5]]), (MobiusMap([0.2, 0.1]), [(0.1, 0.0), (0.8, 0.8)]),
            (MobiusMap([0.0, 0.0]), [(1.0, 0.0)])]


@pytest.mark.parametrize("phi, zs", _OUTSIDE)
def test_jacobians_refuse_points_outside_the_ball(phi, zs):
    # the closed form is finite there: [[-12]] for a = 0.5 at z = 1.5
    with pytest.raises(DomainError, match="outside the unit ball"):
        phi.jacobians(zs)


@pytest.mark.parametrize("phi, zs", _OUTSIDE)
def test_derivative_refuses_a_point_outside_the_ball(phi, zs):
    with pytest.raises(DomainError, match="outside the unit ball"):
        phi.derivative(zs[-1])


@pytest.mark.parametrize("phi, zs", _OUTSIDE)
def test_log_det_derivatives_refuse_points_outside_the_ball(phi, zs):
    with pytest.raises(DomainError, match="outside the unit ball"):
        phi.log_det_derivatives(zs)


@pytest.mark.parametrize("kind", ["det_jacobian_power", "curvature_cocycle"])
@pytest.mark.parametrize("phi, zs", _OUTSIDE)
def test_cocycle_matrices_refuse_points_outside_the_ball(phi, zs, kind):
    with pytest.raises(DomainError, match="outside the unit ball"):
        CocycleSpec(kind, 1.5).matrices(phi, zs, phi.m)


@pytest.mark.parametrize("kind", ["det_jacobian_power", "curvature_cocycle"])
@pytest.mark.parametrize("phi, zs", _OUTSIDE)
def test_cocycle_matrix_refuses_a_point_outside_the_ball(phi, zs, kind):
    with pytest.raises(DomainError, match="outside the unit ball"):
        CocycleSpec(kind, 1.5).matrix(phi, zs[-1], phi.m)


def test_serialization_round_trip():
    phi = _random_map(2, 9, with_unitary=True)
    data = json.loads(json.dumps(phi.to_dict(), allow_nan=False))
    a = [complex(re, im) for re, im in data["a"]]
    u = np.array([[complex(re, im) for re, im in row] for row in data["U"]])
    phi2 = MobiusMap(a, u)
    z = (0.1, 0.2j)
    assert np.abs(phi2.apply(z).array() - phi.apply(z).array()).max() < 1e-15


@pytest.mark.parametrize("m", [1, 2, 3])
def test_bergman_kernel_transformation_rule(m):
    base = bergman_disc() if m == 1 else bergman_ball(m)
    domain = unit_disc() if m == 1 else unit_ball(m)
    cocycle = CocycleSpec("det_jacobian_power", 1.0)
    for seed in range(3):
        phi = _random_map(m, seed + 20)
        res = quasi_invariance_residual(base, cocycle, phi, _pairs(domain, 10, seed))
        assert res < 1e-10


def test_identity_map_has_zero_residual():
    base = bergman_ball(2)
    phi = MobiusMap([0.0, 0.0])
    res = quasi_invariance_residual(
        base, CocycleSpec("det_jacobian_power", 1.0), phi, _pairs(unit_ball(2), 5, 1)
    )
    assert res == 0.0


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_curvature_transformation_rule(t):
    phi = _random_map(2, 31)
    res = curvature_quasi_check(bergman_ball(2), t, phi, _pairs(unit_ball(2), 10, 2))
    assert res < 1e-8


@pytest.mark.parametrize("m,t", [(1, 0.5), (3, 0.5), (3, 1.5)])
def test_fractional_cocycle_powers_at_odd_dimension(m, t):
    # det D phi carries the sign (-1)^m, so its principal log jumps between
    # z and w; the branch through 1 - <z, a> does not
    base = bergman_disc() if m == 1 else bergman_ball(m)
    domain = unit_disc() if m == 1 else unit_ball(m)
    for seed in range(3):
        phi = _random_map(m, seed + 60, with_unitary=seed == 2)
        res = curvature_quasi_check(base, t, phi, _pairs(domain, 10, seed))
        assert res < 1e-8


@pytest.mark.parametrize("m", [1, 2, 3])
def test_log_det_derivative_is_a_log_of_the_determinant(m):
    domain = unit_disc() if m == 1 else unit_ball(m)
    phi = _random_map(m, 70 + m, with_unitary=True)
    for z in sample_points(domain, 10, m):
        assert cmath.exp(phi.log_det_derivatives([z])[0]) == pytest.approx(
            np.linalg.det(phi.derivative(z)), rel=1e-12
        )


@pytest.mark.parametrize("kind", ["det_jacobian_power", "curvature_cocycle"])
@pytest.mark.parametrize("t", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_integer_cocycle_powers_equal_powers_of_the_jet_determinant(m, t, kind):
    phi = _random_map(m, 80 + m, with_unitary=m == 2)
    zs = point_array(sample_points(_base_and_domain(m)[1], 8, m), m)
    jac = jacobians_by_jets(phi, zs)
    factor = jac.transpose(0, 2, 1) if kind == "curvature_cocycle" else np.eye(m)
    want = (np.linalg.det(jac) ** int(t))[:, None, None] * factor
    got = CocycleSpec(kind, t).matrices(phi, zs, m)
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 3),
    radius=st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
    with_unitary=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# |a|^2 subnormal, where 1 / |a|^2 overflows, and |a|^2 = 0 for a != 0
@example(m=1, radius=1.744183200610716e-162, with_unitary=False, seed=0)
@example(m=2, radius=1e-155, with_unitary=True, seed=1)
@example(m=1, radius=2.225073858507203e-309, with_unitary=False, seed=0)
def test_closed_form_jacobians_equal_the_jet_jacobians(m, radius, with_unitary, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    u = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
    phi = MobiusMap(radius * v / np.linalg.norm(v), u if with_unitary else None)
    zs = point_array(sample_points(_base_and_domain(m)[1], 6, seed), m)
    for got, want in zip(phi.jacobians(zs), jacobians_by_jets(phi, zs)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("radius", [0.0, 0.3, 0.9])
def test_log_det_at_the_origin_is_a_log_of_the_jet_determinant(m, radius):
    phi = _random_map(m, 90 + m, with_unitary=True)
    phi = MobiusMap(radius * np.array(phi.a) / np.linalg.norm(phi.a), phi.unitary)
    want = np.linalg.det(jacobians_by_jets(phi, np.zeros((1, m)))[0])
    assert cmath.exp(phi._log_det_at_origin) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("m", [1, 2])
def test_a_base_point_whose_norm_underflows_maps_like_any_tiny_one(m):
    # |a|^2 underflows to 0 at 1e-170 and 5e-324 but not at 1e-160; a = 0
    # alone is the identity
    zs = point_array(sample_points(_base_and_domain(m)[1], 6, 17), m)
    maps = [MobiusMap([a] + [0.0] * (m - 1)) for a in (1e-160, 1e-170, 5e-324)]
    for phi in maps:
        np.testing.assert_allclose(phi.images(zs), -zs, rtol=1e-15, atol=1e-150)
        np.testing.assert_allclose(phi.jacobians(zs), np.broadcast_to(-np.eye(m), (6, m, m)),
                                   rtol=1e-15, atol=1e-150)
        assert phi.log_det_derivatives(zs) == pytest.approx(np.full(6, maps[0]._log_det_at_origin))
        assert cmath.exp(phi._log_det_at_origin) == pytest.approx((-1) ** m)
    assert MobiusMap([0.0] * m).images(zs) == pytest.approx(zs)
    if m == 1:
        for phi in maps:
            res = quasi_invariance_residual(bergman_disc(), CocycleSpec("det_jacobian_power", 1.0),
                                            phi, _pairs(unit_disc(), 10, 5))
            assert res < 1e-12


def test_unitary_factors_preserve_the_residual():
    phi = _random_map(2, 41, with_unitary=True)
    res = curvature_quasi_check(bergman_ball(2), 1.0, phi, _pairs(unit_ball(2), 10, 3))
    assert res < 1e-8
    res_det = quasi_invariance_residual(
        bergman_ball(2),
        CocycleSpec("det_jacobian_power", 1.0),
        phi,
        _pairs(unit_ball(2), 10, 4),
    )
    assert res_det < 1e-8


def test_negative_curvature_power_is_rejected():
    phi = _random_map(2, 51)
    with pytest.raises(ShapeError):
        curvature_quasi_check(bergman_ball(2), -1.0, phi, [])


def test_a_residual_of_more_than_2_16_pairs_is_refused():
    pairs = [((0.1,), (0.2,))] * 65_537
    for check in (lambda: quasi_invariance_residual(bergman_disc(), CocycleSpec(
                      "det_jacobian_power", 1.0), MobiusMap((0.3,)), pairs),
                  lambda: curvature_quasi_check(bergman_disc(), 1.0, MobiusMap((0.3,)), pairs)):
        with pytest.raises(ValueError) as info:
            check()
        assert str(info.value) == ("a quasi-invariance residual of 65537 pairs is over the "
                                   "bound of 65536")
    assert MAX_QUASI_PAIRS == 65_536
    check_pair_count(65_536)


class _CountedPairs(Sequence):
    """2^23 pairs of the disc made on demand, counting the entries read."""

    def __init__(self):
        self.reads = 0

    def __len__(self):
        return 1 << 23

    def __getitem__(self, i):
        if not 0 <= i < len(self):
            raise IndexError(i)
        self.reads += 1
        return (0.1,), (0.2,)


def test_a_sized_input_over_the_bound_is_refused_before_an_entry_is_read():
    pairs = _CountedPairs()
    with pytest.raises(ValueError) as info:
        quasi_invariance_residual(bergman_disc(), CocycleSpec("det_jacobian_power", 1.0),
                                  MobiusMap((0.3,)), pairs)
    assert str(info.value) == ("a quasi-invariance residual of 8388608 pairs is over the "
                               "bound of 65536")
    assert pairs.reads == 0


def test_an_input_without_a_length_is_read_one_entry_past_the_bound_at_most():
    reads = itertools.count()

    def pairs():
        while True:
            next(reads)
            yield (0.1,), (0.2,)

    with pytest.raises(ValueError) as info:
        quasi_invariance_residual(bergman_disc(), CocycleSpec("det_jacobian_power", 1.0),
                                  MobiusMap((0.3,)), pairs())
    assert str(info.value) == ("a quasi-invariance residual of 65537 pairs is over "
                               "the bound of 65536")
    assert next(reads) == MAX_QUASI_PAIRS + 1
    # a generator within the bound is read to its end
    few = (pair for pair in [((0.1,), (0.2,))] * 3)
    assert quasi_invariance_residual(bergman_disc(), CocycleSpec("det_jacobian_power", 1.0),
                                     MobiusMap((0.3,)), few) < 1e-12


def _base_and_domain(m):
    if m == 1:
        return bergman_disc(), unit_disc()
    return bergman_ball(m), unit_ball(m)


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(1, 3),
    kind=st.sampled_from(["det_jacobian_power", "curvature_cocycle"]),
    t=st.sampled_from([0.0, 0.5, 1.0, 1.5]),
    with_unitary=st.booleans(),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_stacked_batch_equals_the_two_call_residual(m, kind, t, with_unitary, n, seed):
    base, domain = _base_and_domain(m)
    phi = _random_map(m, seed, with_unitary)
    pairs = _pairs(domain, n, seed)
    if kind == "det_jacobian_power":
        expr, got = base, quasi_invariance_residual(base, CocycleSpec(kind, t), phi, pairs)
    else:
        expr = LogHessian(base) if t == 0 else Curvature(base, t / 2, t / 2)
        got = curvature_quasi_check(base, t, phi, pairs)
    assert got == quasi_invariance_residual_two_calls(expr, CocycleSpec(kind, t), phi, pairs)


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(1, 3),
    with_unitary=st.booleans(),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_maps_and_cocycles_of_a_batch_equal_those_of_each_point(m, with_unitary, n, seed):
    # a one-point batch must not take another matrix-product path
    phi = _random_map(m, seed, with_unitary)
    zs = point_array(sample_points(_base_and_domain(m)[1], n, seed), m)
    cocycle = CocycleSpec("curvature_cocycle", 0.5)
    images, logs, mats = phi.images(zs), phi.log_det_derivatives(zs), cocycle.matrices(phi, zs, m)
    for p, z in enumerate(zs):
        assert np.array_equal(images[p], phi.apply(z).array())
        assert logs[p] == phi.log_det_derivatives(z[None])[0]
        assert np.array_equal(mats[p], cocycle.matrix(phi, z, m))


def _error_text(fn, *args):
    with pytest.raises((BranchError, EvaluationError)) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_a_non_finite_cocycle_names_the_first_bad_z_before_any_w():
    # |det D phi| > 1 near 0.6 and < 1 near -0.6, so its 10^4-th power
    # overflows at w = 0.6 of pair 0 and at z = 0.7 of pair 1
    phi, cocycle = MobiusMap([0.5]), CocycleSpec("det_jacobian_power", 1e4)
    pairs = [(-0.6, 0.6), (0.7, -0.6)]
    got = _error_text(quasi_invariance_residual, bergman_disc(), cocycle, phi, pairs)
    assert got == (EvaluationError, "cocycle (det D phi)^10000.0 is not finite at point ((0.7+0j),)")
    assert got == _error_text(quasi_invariance_residual_two_calls, bergman_disc(), cocycle, phi, pairs)


#: log K of the left factor fails where Re(z wbar) > 1/4, of the right one
#: where Re(z wbar) < -1/4; the left one is evaluated first
_TWO_BRANCHES = "pow(product(diagonal_series([-4.0]), diagonal_series([4.0])), 0.5)"


@pytest.mark.parametrize(
    "pairs,named",
    [
        # pair 0 fails unmoved in the left factor, pair 1 only moved in the
        # right one: the moved pair is named, as a call of its own names it
        ([(0.6, 0.6), (-0.1, 0.9)], "((0.5714285714285714+0j),), ((-0.7272727272727273+0j),)"),
        # no moved pair fails: the unmoved one is named
        ([(0.6, 0.6), (-0.1, 0.1)], "((0.6+0j),), ((0.6+0j),)"),
    ],
)
def test_a_failing_kernel_pair_is_named_moved_pairs_first(pairs, named):
    expr, phi = parse_kernel(_TWO_BRANCHES), MobiusMap([0.5])
    cocycle = CocycleSpec("det_jacobian_power", 1.0)
    got = _error_text(quasi_invariance_residual, expr, cocycle, phi, pairs)
    assert got[0] is BranchError and got[1].endswith(f"at pair ({named})")
    assert got == _error_text(quasi_invariance_residual_two_calls, expr, cocycle, phi, pairs)


def test_a_residual_past_the_float_range_names_its_pair():
    # (det D phi)^1000 is about 1e185 at 0.6 and 1e249 at 0.7, so J K J^*
    # overflows at pair 1
    phi, cocycle = MobiusMap([0.5]), CocycleSpec("det_jacobian_power", 1000.0)
    pairs = [(-0.6, -0.6), (0.6, 0.7)]
    got = _error_text(quasi_invariance_residual, bergman_disc(), cocycle, phi, pairs)
    assert got == (EvaluationError, "the residual is not finite at pair (((0.6+0j),), ((0.7+0j),))")
    assert got == _error_text(quasi_invariance_residual_two_calls, bergman_disc(), cocycle, phi, pairs)
