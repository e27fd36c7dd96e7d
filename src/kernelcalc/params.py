"""The numeric rules of the public parameters, in one table.

`checked(rule, value, name)` applies a rule of `RULES`: a value of the
wrong type (a bool is neither an integer nor a real here) raises TypeError,
and one out of range ValueError, both naming the parameter.  The CLI builds
its flag types from the same table.  A refusal writes the value it refuses
with `shown`, which also writes an int too long for Python to print.
"""

import math
import numbers
import operator

#: largest m of rkhs.z2_tensor_e1_norm; its jets take memory of order m^4
MAX_NORM_DIM = 16


def _finite(value) -> bool:
    """Whether a float holds the real `value` finite: an int past the float
    range is not finite."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


#: rule -> (int or float, test of the range, the range in words)
RULES = {
    "positive": (float, lambda v: v > 0 and _finite(v), "positive and finite"),
    "non_negative": (float, lambda v: v >= 0 and _finite(v), "non-negative and finite"),
    "positive_int": (int, lambda v: v > 0, "a positive integer"),
    "non_negative_int": (int, lambda v: v >= 0, "a non-negative integer"),
    "seed": (int, lambda v: 0 <= v < 2**64, "an integer of 64 bits, in [0, 2^64)"),
    "radius": (float, lambda v: 0 < v < 1, "in (0, 1)"),
    "norm_dim": (int, lambda v: 2 <= v <= MAX_NORM_DIM, f"an integer in 2 .. {MAX_NORM_DIM}"),
    "finite": (float, _finite, "finite"),
}


def shown(value, text=repr) -> str:
    """text(value) for a refusal to name the value by: an int with more
    digits than Python prints (sys.get_int_max_str_digits) is written by
    its digit count, and a value holding one by its type."""
    try:
        return text(value)
    except ValueError:
        if not isinstance(value, numbers.Integral):
            return f"<{type(value).__name__} holding an int too long to print>"
    size = abs(int(value))
    digits = max(1, int(size.bit_length() * math.log10(2)))  # the count, or one less
    while 10**digits <= size:
        digits += 1
    return f"{'-' if value < 0 else ''}<int of {digits} digits>"


def is_number(value) -> bool:
    """A number that is not a bool: a coordinate of a point, an entry of a
    matrix."""
    return isinstance(value, numbers.Number) and not isinstance(value, bool)


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
        raise TypeError(f"{name} must be {words}, got {shown(value)}")
    value = operator.index(value) if kind is int else value
    if not in_range(value):
        raise ValueError(f"{name} must be {what}, got {shown(value)}")
    return value
