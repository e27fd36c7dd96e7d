import cmath
import json

import numpy as np
import pytest

from kernelcalc.automorphisms import (
    CocycleSpec,
    MobiusMap,
    curvature_quasi_check,
    quasi_invariance_residual,
)
from kernelcalc.errors import DomainError, ShapeError
from kernelcalc.expr import bergman_ball, bergman_disc
from kernelcalc.geometry import sample_points, unit_ball, unit_disc


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
    with pytest.raises(ShapeError):
        MobiusMap([0.1, 0.2], np.ones((2, 2)))
    with pytest.raises(ShapeError):
        CocycleSpec("unknown_kind")


def test_points_outside_the_ball_are_rejected():
    phi = MobiusMap([0.2, 0.1])
    with pytest.raises(DomainError):
        phi.apply((1.5, 0.0))


def test_serialization_round_trip():
    phi = _random_map(2, 9, with_unitary=True)
    data = json.loads(phi.to_json())
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


@pytest.mark.parametrize("t", [1.0, 2.0])
def test_integer_cocycle_powers_use_the_determinant(t):
    phi = _random_map(3, 81)
    z = sample_points(unit_ball(3), 1, 8)[0]
    jac = phi.derivative(z)
    want = complex(np.linalg.det(jac)) ** int(t) * jac.T
    got = CocycleSpec("curvature_cocycle", t).matrix(phi, z, 3)
    assert np.array_equal(got, want)


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
