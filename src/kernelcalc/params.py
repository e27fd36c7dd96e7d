"""The numeric rules of the public parameters, in one table.

`checked(rule, value, name)` applies a rule of `RULES`: a value of the
wrong type (a bool is neither an integer nor a real here) raises TypeError,
and one out of range ValueError, both naming the parameter.  The CLI builds
its flag types from the same table.
"""

import math
import numbers
import operator

#: largest m of rkhs.z2_tensor_e1_norm; its jets take memory of order m^4
MAX_NORM_DIM = 16

#: rule -> (int or float, test of the range, the range in words)
RULES = {
    "positive": (float, lambda v: 0 < v < math.inf, "positive and finite"),
    "positive_int": (int, lambda v: v > 0, "a positive integer"),
    "non_negative_int": (int, lambda v: v >= 0, "a non-negative integer"),
    "seed": (int, lambda v: 0 <= v < 2**64, "an integer of 64 bits, in [0, 2^64)"),
    "radius": (float, lambda v: 0 < v < 1, "in (0, 1)"),
    "norm_dim": (int, lambda v: 2 <= v <= MAX_NORM_DIM, f"an integer in 2 .. {MAX_NORM_DIM}"),
    "finite": (float, math.isfinite, "finite"),
}


def is_real(value) -> bool:
    """A real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_integral(value) -> bool:
    """An integral real that is not a bool (2 and 2.0, not 2.5): the node
    kind `int` and the entries of a multi-index."""
    return is_real(value) and (isinstance(value, numbers.Integral) or float(value).is_integer())


def checked(rule: str, value, name: str):
    """`value` of parameter `name` under `rule`; an integer comes back as an int."""
    kind, in_range, what = RULES[rule]
    cls, words = (numbers.Integral, "an integer") if kind is int else (numbers.Real, "a real")
    if isinstance(value, bool) or not isinstance(value, cls):
        raise TypeError(f"{name} must be {words}, got {value!r}")
    value = operator.index(value) if kind is int else value
    if not in_range(value):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value
