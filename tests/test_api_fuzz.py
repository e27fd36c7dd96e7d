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
from hypothesis import given, settings, strategies as st

import kernelcalc as kc
from kernelcalc.errors import KernelCalcError

K = kc.SzegoDisc()
DISC = kc.unit_disc()


def _real(v) -> bool:
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


def _integer(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


#: rule -> whether it accepts a value, written apart from the package's table
ACCEPTS = {
    "positive": lambda v: _real(v) and 0 < v < math.inf,
    "positive_int": lambda v: _integer(v) and v > 0,
    "seed": lambda v: _integer(v) and 0 <= v < 2**64,
    "radius": lambda v: _real(v) and 0 < v < 1,
    "norm_dim": lambda v: _integer(v) and 2 <= v <= 16,
    "finite": lambda v: _real(v) and math.isfinite(v),
    "term": lambda v: False,  # no malformed value is a (coef, base, index, direction)
    "expr": lambda v: isinstance(v, kc.KernelExpr),
    "scalar": lambda v: isinstance(v, kc.KernelExpr),
    "num": _real,
    "int": lambda v: _real(v) and float(v).is_integer(),
    "list": lambda v: isinstance(v, (list, tuple)) and all(map(_real, v)),
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
    np.int64(3), np.float32(2.0), np.uint64(7), K, object(),
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
    except KernelCalcError:
        pass
    else:
        assert ACCEPTS[rule](value), f"{name}({param}={value!r}) returned"


def test_every_entry_point_returns_at_its_valid_defaults():
    # so that a refusal in the property above is the malformed value's
    for call, _ in ENTRIES.values():
        call()
