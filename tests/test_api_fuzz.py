"""The Python API's contract on malformed arguments.

Each entry point that `kernelcalc/__init__.py` exports and whose arguments
follow a rule of `kernelcalc.params.RULES` or a node kind is called with one
such argument replaced by a malformed value.  The call returns, or raises a
`KernelCalcError`, a `ValueError` or a `TypeError` that names the parameter.
It never raises `AttributeError` or an unpack error, and it never returns
for a value the rule refuses.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kernelcalc as kc
from kernelcalc.errors import DomainError, KernelCalcError, ShapeError
from kernelcalc.fd import fd_relative_error

K = kc.SzegoDisc()
DISC = kc.unit_disc()


def _real(v) -> bool:
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


def _integer(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _point(v) -> bool:
    """A point of C^1: a number that is not a bool, or a sequence of one."""
    if isinstance(v, (list, tuple)):
        return len(v) == 1 and _point(v[0]) and not isinstance(v[0], (list, tuple))
    return isinstance(v, (int, float, complex, np.number)) and not isinstance(v, bool)


#: rule -> whether it accepts a value, written apart from the package's table
ACCEPTS = {
    "positive": lambda v: _real(v) and 0 < v < math.inf,
    "positive_int": lambda v: _integer(v) and v > 0,
    "seed": lambda v: _integer(v) and 0 <= v < 2**64,
    "radius": lambda v: _real(v) and 0 < v < 1,
    "norm_dim": lambda v: _integer(v) and 2 <= v <= 16,
    "finite": lambda v: _real(v) and math.isfinite(v),
    "term": lambda v: False,  # no malformed value is a (coef, base, index, direction)
    "pair": lambda v: False,  # nor a (count, seed) entry of a point family
    "expr": lambda v: isinstance(v, kc.KernelExpr),
    "scalar": lambda v: isinstance(v, kc.KernelExpr),
    "num": _real,
    "int": lambda v: _real(v) and float(v).is_integer(),
    "list": lambda v: isinstance(v, (list, tuple)) and all(map(_real, v)),
    "point": _point,
    "points": lambda v: isinstance(v, (list, tuple)) and all(map(_point, v)),
}

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
}

#: a valid value of each node kind
VALID = {"expr": K, "scalar": K, "num": 1.0, "int": 2, "list": [0.5]}


def _node_entry(make, fields, kinds):
    def call(**given):
        return make(*[given.get(field, VALID[kind]) for field, kind in zip(fields, kinds)])

    return call, dict(zip(fields, kinds))


for _cls in (kc.BallCurvature, kc.BallPower, kc.Curvature, kc.DiagonalSeries, kc.JetKernel,
             kc.LogHessian, kc.Pow, kc.Product, kc.Scale, kc.Sum, kc.Tensor):
    ENTRIES[_cls.__name__] = _node_entry(
        _cls, [f.name for f in dataclasses.fields(_cls)], _cls.kinds)
ENTRIES["bergman_ball"] = _node_entry(kc.bergman_ball, ["m"], ["int"])

MALFORMED = st.sampled_from([
    None, "1", "", True, False, 0, -1, 2**64, 2**64 - 1, 0.0, -0.0, 0.5, 1.5, 2.0, 1e-300,
    1e300, math.nan, math.inf, -math.inf, 1j, [], [1.0], (1,), [True], np.float64(0.5),
    np.int64(3), np.float32(2.0), np.uint64(7), K, object(), "0.1", [None], [0.1, "0.2", 0.3],
    [[0.1]], [0.1j, 0.2, np.bool_(True)], b"0", (0.1, "0.2"),
]) | st.integers(-3, 40) | st.floats()
#: parameters whose accepted values set how many points are sampled
COUNTS = ("n", "count")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_malformed_arguments_are_refused_by_name(data):
    name = data.draw(st.sampled_from(sorted(ENTRIES)))
    call, rules = ENTRIES[name]
    param = data.draw(st.sampled_from(sorted(rules)))
    rule = rules[param]
    # a huge count that is accepted would sample for ever
    value = data.draw(MALFORMED.filter(lambda v: not (param in COUNTS and _integer(v) and v > 40)))
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
])
def test_malformed_scan_and_calculus_inputs_are_refused_by_name(call, error, words):
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(words) or f": {words}" in str(info.value)


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
])
def test_points_that_are_not_numbers_are_refused_naming_the_row(call, words):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == words
