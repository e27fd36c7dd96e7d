"""The Python API's contract on malformed arguments.

Each entry point that `kernelcalc/__init__.py` exports and whose arguments
follow a rule of `kernelcalc.params.RULES` or a node kind is called with one
such argument replaced by a malformed value.  The call returns, or raises a
`KernelCalcError`, a `ValueError` or a `TypeError` that names the parameter.
It never raises `AttributeError` or an unpack error, and it never returns
for a value the rule refuses.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kernelcalc as kc
from kernelcalc.eig import eigenvalues, ldl_verdict
from kernelcalc.errors import (BracketError, DomainError, EvaluationError, KernelCalcError,
                               ShapeError)
from kernelcalc.fd import fd_jet_table, fd_relative_error
from kernelcalc.params import shown

K = kc.SzegoDisc()
DISC = kc.unit_disc()


def _real(v) -> bool:
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


def _integer(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _float(v) -> bool:
    """A real that a float holds: an int past the float range is not one."""
    return _real(v) and not (_integer(v) and abs(int(v)) >= 2**1024 - 2**970)


def _matrix(v) -> bool:
    """A square nested sequence of floats, as a matrix of the solvers."""
    return isinstance(v, (list, tuple)) and len(v) > 0 and all(
        isinstance(row, (list, tuple)) and len(row) == len(v) and all(map(_float, row))
        for row in v)


def _point(v) -> bool:
    """A point of C^1: a number that is not a bool, or a sequence of one."""
    if isinstance(v, (list, tuple)):
        return len(v) == 1 and _point(v[0]) and not isinstance(v[0], (list, tuple))
    return isinstance(v, (int, float, complex, np.number)) and not isinstance(v, bool) and (
        not _integer(v) or _float(v))


#: rule -> whether it accepts a value, written apart from the package's table
ACCEPTS = {
    "positive": lambda v: _float(v) and 0 < v < math.inf,
    "non_negative": lambda v: _float(v) and 0 <= v < math.inf,
    "positive_int": lambda v: _integer(v) and v > 0,
    "seed": lambda v: _integer(v) and 0 <= v < 2**64,
    "radius": lambda v: _real(v) and 0 < v < 1,
    "norm_dim": lambda v: _integer(v) and 2 <= v <= 16,
    "finite": lambda v: _float(v) and math.isfinite(v),
    "term": lambda v: False,  # no malformed value is a (coef, base, index, direction)
    "pair": lambda v: False,  # nor a (count, seed) entry of a point family
    "expr": lambda v: isinstance(v, kc.KernelExpr),
    "scalar": lambda v: isinstance(v, kc.KernelExpr),
    "num": _float,
    "int": lambda v: _integer(v) or (_real(v) and float(v).is_integer()),
    "list": lambda v: isinstance(v, (list, tuple)) and all(map(_float, v)),
    "point": _point,
    "points": lambda v: isinstance(v, (list, tuple)) and all(map(_point, v)),
    "matrix": _matrix,
    "count": lambda v: v is None or (_integer(v) and 1 <= v <= 2),  # of a 2 x 2 matrix
}

#: a Hermitian positive definite matrix
_H = [[2.0, 1j], [-1j, 2.0]]

#: entry point -> (call with valid defaults, {parameter: rule})
ENTRIES = {
    "psd_check": (lambda n=4, seed=0, tol=1e-9: kc.psd_check(K, DISC, n, seed, tol),
                  {"n": "positive_int", "seed": "seed", "tol": "positive"}),
    "kernel_order_check": (
        lambda n=4, seed=0, tol=1e-9: kc.kernel_order_check(
            K, kc.Scale(K, 2.0), DISC, n, seed, tol),
        {"n": "positive_int", "seed": "seed", "tol": "positive"}),
    "wallach_scan": (
        lambda count=4, seed=1, tol=1e-9, resolution=0.05: kc.wallach_scan(
            kc.bergman_disc(), -2.0, 0.0, DISC, ((count, seed),), tol, resolution),
        {"count": "positive_int", "seed": "seed", "tol": "positive", "resolution": "positive"}),
    "ordinary_wallach_scan": (
        lambda count=4, seed=1, tol=1e-9: kc.ordinary_wallach_scan(
            K, [0.5, 1.0], DISC, ((count, seed),), tol),
        {"count": "positive_int", "seed": "seed", "tol": "positive"}),
    "multiplier_bound": (
        lambda count=4, seed=1, resolution=0.01, tol=1e-9: kc.multiplier_bound(
            K, 0, DISC, ((count, seed),), resolution, tol),
        {"count": "positive_int", "seed": "seed", "tol": "positive", "resolution": "positive"}),
    "sample_points": (lambda count=3, seed=0: kc.sample_points(DISC, count, seed),
                      {"count": "positive_int", "seed": "seed"}),
    "unit_disc": (lambda sample_radius=0.8: kc.unit_disc(sample_radius),
                  {"sample_radius": "radius"}),
    # the m of unit_ball is the dim of its DomainSpec, which names it
    "unit_ball": (lambda dim=2, sample_radius=0.8: kc.unit_ball(dim, sample_radius),
                  {"dim": "positive_int", "sample_radius": "radius"}),
    "DomainSpec": (lambda dim=2, sample_radius=0.8: kc.DomainSpec("polydisc", dim, sample_radius),
                   {"dim": "positive_int", "sample_radius": "radius"}),
    "z2_tensor_e1_norm": (lambda m=2, lam=3.0: kc.z2_tensor_e1_norm(m, lam),
                          {"m": "norm_dim", "lam": "finite"}),
    "curvature_quasi_check": (
        lambda t=1.0: kc.curvature_quasi_check(kc.bergman_disc(), t, kc.MobiusMap((0.3,)),
                                               [(0.1, 0.2j)]),
        {"t": "finite"}),
    "CocycleSpec": (lambda t=1.0: kc.CocycleSpec("det_jacobian_power", t), {"t": "finite"}),
    "element": (lambda term=(1.0, 0.1, (0,), (1.0,)): kc.element(K, [term]), {"term": "term"}),
    "wallach_scan interval": (
        lambda t_lo=-2.0, t_hi=0.0: kc.wallach_scan(kc.bergman_disc(), t_lo, t_hi, DISC, ((4, 1),)),
        {"t_lo": "finite", "t_hi": "finite"}),
    "wallach_scan family": (
        lambda entry=(4, 1): kc.wallach_scan(kc.bergman_disc(), -2.0, 0.0, DISC, (entry,)),
        {"entry": "pair"}),
    "ordinary_wallach_scan t_grid": (
        lambda t_grid=0.5: kc.ordinary_wallach_scan(K, [t_grid, 1.0], DISC, ((4, 1),)),
        {"t_grid": "positive"}),
    "multiplier_bound family": (
        lambda entry=(4, 1): kc.multiplier_bound(K, 0, DISC, (entry,)), {"entry": "pair"}),
    "phi_gram": (lambda alpha=1.0, beta=2.0: kc.phi_gram(K, alpha, beta, 0.1, 0.2),
                 {"alpha": "positive", "beta": "positive"}),
    "series_head_coefficients": (
        lambda coefficients=(1.0, 0.1), t=1.0: kc.series_head_coefficients(coefficients, t),
        {"coefficients": "list", "t": "num"}),
    "gram": (lambda points=[0.1, 0.2j]: kc.gram(K, points), {"points": "points"}),
    "values": (lambda zs=[0.1], ws=[0.2j]: K.values(zs, ws), {"zs": "points", "ws": "points"}),
    "eval": (lambda z=0.1, w=0.2j: K.eval(z, w), {"z": "point", "w": "point"}),
    "eval_jet": (lambda z=0.1, w=0.2j: K.eval_jet(z, w, 2), {"z": "point", "w": "point"}),
    "eval_jets": (lambda zs=[0.1], ws=[0.2j]: K.eval_jets(zs, ws, 2),
                  {"zs": "points", "ws": "points"}),
    "fd_relative_error": (lambda z=0.1, w=0.2j: fd_relative_error(K, z, w, 2),
                          {"z": "point", "w": "point"}),
    "min_eigenvalue": (lambda h=_H: kc.min_eigenvalue(h), {"h": "matrix"}),
    "eigenvalues": (lambda h=_H, count=1: eigenvalues(h, count),
                    {"h": "matrix", "count": "count"}),
    "ldl_verdict": (lambda g=_H, tol=1e-9: ldl_verdict(g, tol),
                    {"g": "matrix", "tol": "non_negative"}),
}

#: a valid value of each node kind
VALID = {"expr": K, "scalar": K, "num": 1.0, "int": 2, "list": [0.5]}


def _node_entry(make, fields, kinds):
    def call(**given):
        return make(*[given.get(field, VALID[kind]) for field, kind in zip(fields, kinds)])

    return call, dict(zip(fields, kinds))


for _cls in (kc.BallCurvature, kc.BallPower, kc.Curvature, kc.DiagonalSeries, kc.JetKernel,
             kc.LogHessian, kc.Pow, kc.Product, kc.Scale, kc.Sum, kc.Tensor):
    ENTRIES[_cls.__name__] = _node_entry(_cls, *zip(*_cls.args))
ENTRIES["bergman_ball"] = _node_entry(kc.bergman_ball, ["m"], ["int"])

MALFORMED = st.sampled_from([
    None, "1", "", True, False, 0, -1, 2**64, 2**64 - 1, 10**400, 0.0, -0.0, 0.5, 1.5, 2.0,
    1e-300, 1e300, math.nan, math.inf, -math.inf, 1j, [], [1.0], (1,), [True], np.float64(0.5),
    np.int64(3), np.float32(2.0), np.uint64(7), K, object(), "0.1", [None], [0.1, "0.2", 0.3],
    [[0.1]], [0.1j, 0.2, np.bool_(True)], b"0", (0.1, "0.2"),
]) | st.integers(-3, 40) | st.floats()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_malformed_arguments_are_refused_by_name(data):
    name = data.draw(st.sampled_from(sorted(ENTRIES)))
    call, rules = ENTRIES[name]
    param = data.draw(st.sampled_from(sorted(rules)))
    rule = rules[param]
    value = data.draw(MALFORMED)
    try:
        call(**{param: value})
    except TypeError as exc:
        assert str(exc).startswith(f"{param} must be"), (name, param, value, exc)
        assert not ACCEPTS[rule](value), (name, param, value, exc)
    except ValueError as exc:
        assert "unpack" not in str(exc), (name, param, value, exc)
    except KernelCalcError as exc:
        # a scan names the family entry whose count or seed it refuses
        assert f": {param} must be" not in str(exc) or not ACCEPTS[rule](value), (
            name, param, value, exc)
    else:
        assert ACCEPTS[rule](value), f"{name}({param}={value!r}) returned"


def test_every_entry_point_returns_at_its_valid_defaults():
    # so that a refusal in the property above is the malformed value's
    for call, _ in ENTRIES.values():
        call()


@pytest.mark.parametrize("call,error,words", [
    (lambda: kc.wallach_scan(K, 2.0, 3.0, DISC, ((4,),)), ShapeError,
     "family entry 0 is not a (count, seed) pair"),
    (lambda: kc.multiplier_bound(K, 0, DISC, ((4, 1), (4,))), ShapeError,
     "family entry 1 is not a (count, seed) pair"),
    (lambda: kc.wallach_scan(kc.bergman_disc(), -2.0, 0.0, DISC, ((4, 1), (0.1, "0.2"))),
     ShapeError, "family entry 1: count must be an integer, got 0.1"),
    (lambda: kc.multiplier_bound(K, 0, DISC, ((4, -1),)), ShapeError,
     "family entry 0: seed must be an integer of 64 bits, in [0, 2^64), got -1"),
    (lambda: kc.wallach_scan(kc.bergman_disc(), "a", 0, DISC, ((4, 1),)), TypeError,
     "t_lo must be a real"),
    (lambda: kc.ordinary_wallach_scan(K, [0.5, "a"], DISC, ((4, 1),)), TypeError,
     "t_grid must be a real"),
    (lambda: kc.phi_gram(K, "a", 1.0, 0.1, 0.2), TypeError, "alpha must be a real"),
    (lambda: kc.series_head_coefficients(5, 1.0), ShapeError,
     "expected a coefficient list argument for coefficients"),
    (lambda: kc.series_head_coefficients("", 1.0), ShapeError,
     "expected a coefficient list argument for coefficients"),
    (lambda: kc.series_head_coefficients(b"0", 1.0), ShapeError,
     "expected a coefficient list argument for coefficients"),
    (lambda: kc.multiplier_bound(K, lambda p: [1, 2], DISC, ((4, 1),)), ShapeError,
     "the multiplier must give one complex number at point 0 ("),
    (lambda: kc.multiplier_bound(K, lambda p: "1", DISC, ((4, 1),)), ShapeError,
     "the multiplier must give one complex number at point 0 ("),
    (lambda: kc.multiplier_bound(K, lambda p: None, DISC, ((4, 1),)), ShapeError,
     "the multiplier must give one complex number at point 0 ("),
    (lambda: kc.multiplier_bound(K, lambda p: 1e200, DISC, ((4, 1),)), EvaluationError,
     "the multiplier's |f|^2 is not finite at point 0 ("),
    (lambda: kc.multiplier_bound(K, lambda p: math.inf, DISC, ((4, 1),)), EvaluationError,
     "the multiplier's |f|^2 is not finite at point 0 ("),
    (lambda: kc.quasi_invariance_residual(K, kc.CocycleSpec("det_jacobian_power", 1.0),
                                          kc.MobiusMap((0.3,)), [(0.1, 0.2j), 0.5]),
     ShapeError, "pairs entry 1 is not a (z, w) pair, got 0.5"),
    (lambda: kc.curvature_quasi_check(kc.bergman_disc(), 1.0, kc.MobiusMap((0.3,)), [(0.1,)]),
     ShapeError, "pairs entry 0 is not a (z, w) pair, got (0.1,)"),
    (lambda: kc.CocycleSpec("det_jacobian_power", "a"), TypeError, "t must be a real"),
    (lambda: kc.quasi_invariance_residual(kc.bergman_disc(), kc.CocycleSpec("det_jacobian_power"),
                                          kc.MobiusMap((0.3,)), [(0.1, 0.2), (0.1, "x")]),
     DomainError, "pairs entry 1: w is not a point of C^1, got 'x'"),
    (lambda: kc.quasi_invariance_residual(kc.bergman_disc(), kc.CocycleSpec("det_jacobian_power"),
                                          kc.MobiusMap((0.3,)), [(0.1, 0.2), (0.3, 1.5)]),
     DomainError, "pairs entry 1: w = ((1.5+0j),) lies outside the unit ball"),
    (lambda: kc.curvature_quasi_check(kc.bergman_ball(2), 1.0, kc.MobiusMap((0.3, 0.0)),
                                      [((0.1, 0.0), (0.0, 0.1)), ((0.1,), (0.0, 0.1))]),
     DomainError, "pairs entry 1: z is not a point of C^2, got (0.1,)"),
    (lambda: kc.curvature_quasi_check(kc.bergman_ball(2), 1.0, kc.MobiusMap((0.3, 0.0)),
                                      [((0.1, 0.0), (0.0, 0.1)), ((0.9, 0.9), (0.0, 0.1))]),
     DomainError, "pairs entry 1: z = ((0.9+0j), (0.9+0j)) lies outside the unit ball"),
    (lambda: kc.curvature_quasi_check(kc.bergman_disc(), 0.0, kc.MobiusMap((0.3,)),
                                      [(0.1, math.nan)]),
     DomainError, "pairs entry 0: w = ((nan+0j),) lies outside the unit ball"),
    (lambda: kc.psd_check(K, DISC, 4, 0, 10**400), ValueError,
     "tol must be positive and finite, got 1000"),
    (lambda: kc.CocycleSpec("det_jacobian_power", -10**400), ValueError,
     "t must be finite, got -1000"),
    (lambda: kc.phi_gram(K, 1.0, 10**400, 0.1, 0.2), ValueError, "beta must be finite, got 1000"),
    (lambda: kc.wallach_scan(kc.bergman_disc(), -10**400, 0.0, DISC, ((4, 1),)), ValueError,
     "the interval needs finite lo < hi, got [-1000"),
    (lambda: kc.wallach_scan(kc.bergman_disc(), -2.0, 0.0, DISC, None), ShapeError,
     "the point family is not a sequence of (count, seed) pairs, got None"),
    (lambda: kc.multiplier_bound(K, 0, DISC, 4), ShapeError,
     "the point family is not a sequence of (count, seed) pairs, got 4"),
    (lambda: fd_jet_table(K, 0.1, 0.2, "2"), TypeError, "order must be an integer, got '2'"),
    (lambda: fd_jet_table(K, 0.1, 0.2, True), TypeError, "order must be an integer, got True"),
    (lambda: fd_jet_table(K, 0.1, 0.2, -1), ValueError,
     "order must be a non-negative integer, got -1"),
    (lambda: kc.MobiusMap(["a"]), DomainError, "base point is not a point of C^1, got ['a']"),
    (lambda: kc.MobiusMap([[0.1]]), DomainError, "base point is not a point of C^1, got [[0.1]]"),
    (lambda: kc.MobiusMap(None), DomainError, "base point is not a point of C^1, got None"),
    (lambda: kc.MobiusMap([0.1], "x"), ShapeError,
     "unitary factor must be a numeric 1 x 1 array, got 'x'"),
    (lambda: kc.MobiusMap([0.1, 0.2], [[1, 0], [0, "x"]]), ShapeError,
     "unitary factor must be a numeric 2 x 2 array, got [[1, 0], [0, 'x']]"),
    (lambda: kc.element(K, [("x", 0.1, (0,), (1.0,))]), ShapeError,
     "term 0: coef must be a finite number, got 'x'"),
    (lambda: kc.element(K, [(1.0, 0.1, (0,), (1.0,)), (math.nan, 0.1, (0,), (1.0,))]),
     ShapeError, "term 1: coef must be a finite number, got nan"),
    (lambda: kc.element(K, [(1.0, 0.1, (0,), ("x",))]), ShapeError,
     "term 0: a direction entry must be a finite number, got 'x'"),
    (lambda: kc.element(K, [(1.0, 0.1, (0,), (complex(0, math.inf),))]), ShapeError,
     "term 0: a direction entry must be a finite number, got infj"),
    (lambda: kc.element(K, [(1.0, 0.1, (0,), None)]), ShapeError,
     "term 0: direction must be a sequence, got None"),
])
def test_malformed_scan_and_calculus_inputs_are_refused_by_name(call, error, words):
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(words) or f": {words}" in str(info.value)


@pytest.mark.parametrize("value", [1e200, math.inf, math.nan, complex(1e155, 1e155)])
def test_a_multiplier_past_the_float_range_is_refused_without_a_warning(value):
    # numpy used to warn of the overflow in f fbar^T before the Gram was refused
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match=r"^the multiplier's \|f\|\^2 is not finite"):
            kc.multiplier_bound(K, lambda p: value, DISC, ((4, 1),))


@pytest.mark.parametrize("values, error, point", [
    ([1.0, 1e200, "x"], EvaluationError, 1),
    ([1.0, [1, 2], math.nan], ShapeError, 1),
    ([0.5, 0.5, 10**400, None], EvaluationError, 2),
])
def test_a_multiplier_is_refused_at_its_first_bad_point_and_not_called_after_it(
        values, error, point):
    calls = []

    def f(p):
        calls.append(p)
        return values[len(calls) - 1] if len(calls) <= len(values) else 0.5

    with pytest.raises(error, match=rf" at point {point} \("):
        kc.multiplier_bound(K, f, DISC, ((6, 1),))
    assert len(calls) == point + 1


def test_a_one_element_array_is_one_multiplier_value():
    # `lambda p: p` gives each point of the disc as a length-1 row
    got = kc.multiplier_bound(K, lambda p: p, DISC)
    assert got.bracket == kc.multiplier_bound(K, 0, DISC).bracket


def test_an_unsigned_integer_tolerance_gives_the_verdict_of_its_float():
    # -tol of a numpy unsigned integer overflows; the threshold is negated last
    for check in (lambda tol: kc.psd_check(K, DISC, 6, 1, tol),
                  lambda tol: kc.kernel_order_check(K, kc.Scale(K, 2.0), DISC, 6, 1, tol)):
        assert check(np.uint64(7)).to_dict() == check(7.0).to_dict()


@pytest.mark.parametrize("call, words", [
    (lambda: K.eval("0.1", "0.2"),
     "expected points of C^1 with numeric coordinates, got row 0: '0.1'"),
    (lambda: K.eval(None, 0.2), "expected points of C^1 with numeric coordinates, got row 0: None"),
    (lambda: K.eval(0.1, True), "expected points of C^1 with numeric coordinates, got row 0: True"),
    (lambda: K.values([0.1, 0.2, [None]], [0.1, 0.2, 0.3]),
     "expected points of C^1 with numeric coordinates, got row 2: [None]"),
    (lambda: kc.gram(K, None), "expected a sequence of points of C^1, got None"),
    (lambda: kc.gram(K, "0.1"), "expected a sequence of points of C^1, got '0.1'"),
    (lambda: kc.gram(K, b"0"), "expected a sequence of points of C^1, got b'0'"),
    (lambda: kc.BallPower(2, 3.0).eval((0.1, "x"), (0.1, 0.2)),
     "expected points of C^2 with numeric coordinates, got row 0: (0.1, 'x')"),
    (lambda: kc.BallPower(2, 3.0).values([(0.1, 0.2), (0.1, 0.2, "x")], [(0.1, 0.2)] * 2),
     "expected points of C^2 with numeric coordinates, got row 1: (0.1, 0.2, 'x')"),
    (lambda: fd_relative_error(K, [None], 0.2, 1),
     "expected points of C^1 with numeric coordinates, got row 0: [None]"),
    (lambda: K.eval(10**400, 0.2), "expected points of C^1 within the float range, got row 0"),
    (lambda: kc.BallPower(2, 3.0).values([(0.1, 0.2), (0.1, -10**400)], [(0.1, 0.2)] * 2),
     "expected points of C^2 within the float range, got row 1"),
])
def test_points_that_are_not_numbers_are_refused_naming_the_row(call, words):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == words


#: an int with more digits than Python prints by default (4300)
_LONG = 10**5000


@pytest.mark.parametrize("call, words", [
    (lambda: kc.geometry.sample_array(DISC, 1, _LONG),
     "seed must be an integer of 64 bits, in [0, 2^64), got <int of 5001 digits>"),
    (lambda: kc.sample_points(kc.unit_ball(_LONG), 1, 0),
     "sampling 1 point(s) of the unit ball of C^<int of 5001 digits> draws more coordinates "
     "than the budget of 16777216"),
    (lambda: kc.psd_check(K, DISC, _LONG),
     "a Gram of <int of 5001 digits> points with 1 x 1 blocks is <int of 5001 digits> wide, "
     "over the bound of 2048"),
], ids=["sample_array seed", "sample_points ball dimension", "psd_check n"])
def test_a_refusal_writes_an_int_too_long_to_print_by_its_digits(call, words):
    # each used to fail in its own message: "Exceeds the limit (4300 digits)"
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == words


@pytest.mark.parametrize("value", [_LONG, -_LONG, [_LONG], (1, -_LONG)],
                         ids=["long", "negative long", "list", "tuple"])
def test_no_refusal_fails_while_writing_a_value_too_long_to_print(value):
    for name, (call, rules) in ENTRIES.items():
        for param in rules:
            try:
                call(**{param: value})
            except (KernelCalcError, TypeError, ValueError) as exc:
                assert "Exceeds the limit" not in str(exc), (name, param, exc)


def test_shown_is_repr_but_for_ints_too_long_to_print():
    assert [shown(v) for v in (7, -7, "7", 0.5, np.int64(3))] == [
        "7", "-7", "'7'", "0.5", "np.int64(3)"]
    assert shown(np.float64(0.5), str) == "0.5"
    assert shown(10**4300 - 1) == "9" * 4300  # 4300 digits still print
    assert shown(10**4300) == "<int of 4301 digits>"
    assert shown(-_LONG, str) == "-<int of 5001 digits>"
    assert shown([1, _LONG]) == "<list holding an int too long to print>"


@pytest.mark.parametrize("call, error, words", [
    (lambda: kc.Scale(K, -1), ShapeError, "scale factor must be positive"),
    (lambda: kc.JetKernel(K, K, -1), ShapeError, "jet order must be >= 0"),
    (lambda: kc.kernel_order_check(K, kc.bergman_ball(2), DISC, 4), ShapeError,
     "kernels must share dimension and output size"),
    # K = 1 + 0.1 z wbar: K^t d dbar log K = 0.1 (1 + 0.1 z wbar)^(t - 2) is psd
    # at t = 2, and at t = 2.5 its z^2 wbar^2 coefficient is negative
    (lambda: kc.wallach_scan(kc.DiagonalSeries([1, 0.1]), 2.0, 2.5, DISC), BracketError,
     "psd region must lie at the upper end of the scanned interval"),
    (lambda: kc.multiplier_bound(K, 5, DISC), ShapeError, "coordinate index out of range"),
    (lambda: kc.quasi_invariance_residual(K, kc.CocycleSpec("det_jacobian_power"),
                                          kc.MobiusMap((0.1, 0.0)), [((0.1, 0.0), (0.0, 0.1))]),
     ShapeError, "map and kernel dimensions differ"),
    (lambda: kc.CocycleSpec("curvature_cocycle").matrix(kc.MobiusMap((0.1, 0.0)), (0.1, 0.0), 3),
     ShapeError, "curvature cocycle needs an m x m kernel"),
    (lambda: kc.element(K, [(1.0, 0.1, (0, 0), (1.0,))]), ShapeError,
     "term index has the wrong dimension"),
    (lambda: kc.element(K, [(10**400, 0.1, (0,), (1.0,))]), ShapeError,
     f"term 0: coef must be a finite number, got {10**400}"),
    # <dbar K(., 0), dbar K(., 0)> = d dbar K(0, 0) = -1 for K = 1 - z wbar
    (lambda: kc.norm(kc.element(kc.Pow(K, -1.0), [(1.0, 0.0, (1,), (1.0,))])), EvaluationError,
     "negative self inner product -1.000e+00+0.000e+00j: kernel is not NND here"),
    # 1e200 and -1e200 times one section: the products overflow, inf - inf
    (lambda: kc.norm(kc.element(K, [(1e200, 0.5, (0,), (1,)), (-1e200, 0.5, (0,), (1,))])),
     EvaluationError, "no norm: the self inner product nan+nanj is not finite"),
    (lambda: kc.inner_product(kc.element(K, [(1e200, 0.5, (0,), (1,))]),
                              kc.element(K, [(1e200, 0.5, (0,), (1,))])),
     EvaluationError, "the inner product inf+nanj is not finite"),
    (lambda: kc.BallPower(2, math.inf).eval((0.1, 0.0), (0.1, 0.0)), EvaluationError,
     "jet power with non-finite exponent -inf"),
], ids=["scale", "jet order", "kernel_order_check m", "wallach_scan upper end fails",
        "multiplier index", "quasi m", "curvature cocycle size", "element index dimension",
        "element coef 10^400", "norm negative", "norm not finite", "inner product not finite",
        "ball_power inf"])
def test_refusals_reached_only_through_the_api_name_their_cause(call, error, words):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == words


def test_the_inner_product_of_empty_elements_is_zero():
    got = kc.inner_product(kc.element(K, []), kc.element(K, []))
    assert got == 0j and isinstance(got, complex)
