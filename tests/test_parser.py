import inspect
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kernelcalc.errors import ParseError, ShapeError
from kernelcalc.expr import (MAX_DEPTH, BallCurvature, BallPower, Curvature, DiagonalSeries,
                             JetKernel, Pow, Scale, SzegoDisc, bergman_ball)
from kernelcalc.geometry import unit_disc
from kernelcalc.parser import _NODES, parse_kernel
from kernelcalc.positivity import psd_check

from oracles import parse_kernel_by_tokenizer

ROUND_TRIP = [
    "szego_disc()",
    "ball_power(2, 3.0)",
    "ball_power(1, 2.5)",
    "diagonal_series([1.0, 0.5, 0.25])",
    "pow(szego_disc(), 0.7)",
    "product(szego_disc(), ball_power(1, 2.0))",
    "sum(szego_disc(), scale(szego_disc(), 0.5))",
    "scale(ball_power(2, 3.0), 2.0)",
    "tensor(szego_disc(), szego_disc())",
    "log_hessian(ball_power(2, 3.0))",
    "curvature(szego_disc(), 1.0, 2.0)",
    "jet(szego_disc(), szego_disc(), 1)",
    "ball_curvature(2, 2.5)",
]


@pytest.mark.parametrize("text", ROUND_TRIP)
def test_round_trip_is_identity(text):
    expr = parse_kernel(text)
    assert expr.to_dsl() == text
    assert parse_kernel(expr.to_dsl()) == expr


def test_sugar_names_normalize():
    assert parse_kernel("bergman_ball(2)").to_dsl() == "ball_power(2, 3.0)"
    assert parse_kernel("bergman_disc()").to_dsl() == "ball_power(1, 2.0)"


def test_whitespace_and_exponent_literals():
    e = parse_kernel(" ball_power( 2 ,  3e0 ) ")
    assert e.to_dsl() == "ball_power(2, 3.0)"
    e2 = parse_kernel("scale(szego_disc(), 2.5e-1)")
    assert e2.eval(0.0, 0.0) == pytest.approx(0.25)


@pytest.mark.parametrize(
    "bad",
    [
        "szego_disc",  # missing parens
        "unknown_kernel()",
        "pow(szego_disc())",  # missing exponent
        "pow(0.5, szego_disc())",  # swapped arguments
        "ball_power(2.5, 3)",  # non-integer dimension
        "product(szego_disc(), )",
        "curvature(szego_disc(), 1.0)",
        "diagonal_series(1.0)",
        "szego_disc() trailing",
        "log_hessian(1.0)",  # a number where a scalar kernel goes
        "tensor(szego_disc(), 2.0)",
    ],
)
def test_malformed_input_raises(bad):
    with pytest.raises(ParseError):
        parse_kernel(bad)


# a valid value of each argument kind, as DSL text and as the Python value
VALID = {"expr": ("szego_disc()", SzegoDisc()), "scalar": ("szego_disc()", SzegoDisc()),
         "num": ("1.0", 1.0), "int": ("1", 1), "list": ("[0.5]", [0.5])}
KIND_WORDS = {"expr": "a kernel expression", "scalar": "a kernel expression",
              "num": "a numeric", "int": "an integer", "list": "a coefficient list"}
# values the DSL can write, each with the kinds it has
DSL_VALUES = [("szego_disc()", SzegoDisc(), {"expr", "scalar"}), ("1.5", 1.5, {"num"}),
              ("[1.0]", [1.0], {"list"})]
# values only the Python API can pass, which have no kind
API_VALUES = [True, None, "2", 1j]


def _kind_cases():
    for name, (make, kinds) in sorted(_NODES.items()):
        fields = list(inspect.signature(make).parameters)
        for i, kind in enumerate(kinds):
            for text, value, has in DSL_VALUES:
                if kind not in has:
                    yield name, fields[i], i, text, value
            for value in API_VALUES:
                yield name, fields[i], i, None, value


@pytest.mark.parametrize("name,field,i,text,value", list(_kind_cases()))
def test_an_argument_of_the_wrong_kind_is_refused_naming_the_node_and_field(
        name, field, i, text, value):
    make, kinds = _NODES[name]
    args = [VALID[kind][1] for kind in kinds]
    args[i] = value
    message = f"{name}: expected {KIND_WORDS[kinds[i]]} argument for {field}, got {value!r}"
    with pytest.raises(ShapeError) as exc:
        make(*args)
    assert str(exc.value) == message
    if text is not None:  # the parser reports the same text at the node's position
        texts = [VALID[kind][0] for kind in kinds]
        texts[i] = text
        with pytest.raises(ParseError) as exc:
            parse_kernel(f"pow({name}({', '.join(texts)}), 1.0)")
        assert str(exc.value) == f"{message} (at position 4)"
        assert exc.value.position == 4


@pytest.mark.parametrize("build,message", [
    (lambda: Scale(5, 2.0), "scale: expected a kernel expression argument for child, got 5"),
    (lambda: JetKernel(SzegoDisc(), SzegoDisc(), 1.5),
     "jet: expected an integer argument for order, got 1.5"),
    (lambda: BallPower("2", 1.0), "ball_power: expected an integer argument for dim, got '2'"),
    (lambda: BallPower(float("inf"), 1.0),
     "ball_power: expected an integer argument for dim, got inf"),
    (lambda: DiagonalSeries(x for x in [1.0]), "diagonal_series: expected a coefficient list"),
    (lambda: BallPower(2, 10**400), "ball_power: lam holds a number past the float range"),
    (lambda: Pow(SzegoDisc(), 10**400), "pow: t holds a number past the float range"),
    (lambda: Scale(SzegoDisc(), 10**400), "scale: factor holds a number past the float range"),
    (lambda: Curvature(SzegoDisc(), 1.0, -10**400),
     "curvature: beta holds a number past the float range"),
    (lambda: BallCurvature(2, 10**400), "ball_curvature: lam holds a number past the float range"),
    (lambda: DiagonalSeries([0.5, 10**400]),
     "diagonal_series: coefficients holds a number past the float range"),
    (lambda: bergman_ball(10**400), "ball_power: lam holds a number past the float range"),
])
def test_api_probes_of_the_wrong_kind_are_shape_errors(build, message):
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}"):
        build()


def test_a_count_that_is_a_bool_is_a_type_error_naming_it():
    with pytest.raises(TypeError, match="^n must be an integer, got True$"):
        psd_check(SzegoDisc(), unit_disc(), True)


def test_integral_reals_are_stored_as_ints_and_lists_as_float_tuples():
    expr = BallPower(np.int64(2), 3)
    assert type(expr.dim) is int and expr == BallPower(2.0, 3.0) == parse_kernel("ball_power(2, 3)")
    # a numeric is the float the DSL prints and parses back
    for node in (expr, Pow(SzegoDisc(), np.float32(0.3)), Scale(SzegoDisc(), np.uint8(2)),
                 Curvature(expr, 1, np.float16(0.5))):
        assert repr(parse_kernel(node.to_dsl())) == repr(node)
        assert all(type(getattr(node, name)) is float for name, kind in node.args if kind == "num")
    series = DiagonalSeries(np.array([1, 2]))
    assert series.coefficients == (1.0, 2.0) and type(series.coefficients[0]) is float


def test_errors_carry_a_position():
    with pytest.raises(ParseError) as exc:
        parse_kernel("product(szego_disc(), unknown())")
    assert exc.value.position > 0


def test_structural_equality_via_dsl():
    a = parse_kernel("curvature(szego_disc(), 1.0, 2.0)")
    b = parse_kernel("curvature(szego_disc(), 1.0, 2.0)")
    c = parse_kernel("curvature(szego_disc(), 2.0, 1.0)")
    assert a == b
    assert hash(a) == hash(b)
    assert a != c


# Valid kernels to mutate, and the pieces a mutation inserts: DSL names and
# punctuation, a character outside the DSL, whitespace and number literals.
MUTATED = [
    "szego_disc()",
    "bergman_ball(2)",
    "diagonal_series([1.0, -0.5, 0.25])",
    "pow(szego_disc(), 0.7)",
    "product(szego_disc(), ball_power(1, 2.0))",
    "sum(szego_disc(), scale(szego_disc(), 0.5))",
    "curvature(tensor(szego_disc(), szego_disc()), 1.0, 2.0)",
    "jet(szego_disc(), bergman_disc(), 1)",
    "ball_curvature(2, 2.5)",
]
PIECES = sorted(_NODES) + [
    "x", "(", ")", "[", "]", ",", "@", " ", "\t", "\n ",
    "-1e2", ".5", "1.", "+3", "2", "0", "-0.0", "1e999", "e5", "5e",
]
_PIECE_RE = re.compile(r"\s+|[A-Za-z_][A-Za-z_0-9]*|[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|.")


@st.composite
def mutated_kernels(draw):
    """A valid kernel with 1-4 pieces inserted or deleted."""
    pieces = _PIECE_RE.findall(draw(st.sampled_from(MUTATED)))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(pieces)))
        if pieces and draw(st.booleans()):
            del pieces[min(at, len(pieces) - 1)]
        else:
            pieces.insert(at, draw(st.sampled_from(PIECES)))
    return "".join(pieces)


def _outcome(parse, text):
    """The printed kernel, or the type and message of the error raised."""
    try:
        return parse(text).to_dsl()
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(mutated_kernels() | st.lists(st.sampled_from(PIECES), max_size=12).map("".join))
@example("szego_disc() @")  # an unexpected character is reported after the last token
@example("pow(szego_disc() 0.5)")
@example("diagonal_series([1.0 2.0])")
@example("diagonal_series([1.0, ])")
@example("pow(szego_disc(),")
@example("pow(szego_disc()")
@example("jet(szego_disc(), szego_disc(), 5)")  # an OrderCapError, not a ParseError
def test_the_parser_agrees_with_the_tokenizer_it_replaced(text):
    # the inputs nest at most a few levels, far inside MAX_DEPTH, where the
    # two parsers give the same kernel or the same error and position
    assert _outcome(parse_kernel, text) == _outcome(parse_kernel_by_tokenizer, text)


def _pow_chain(depth: int) -> str:
    return "pow(" * depth + "szego_disc()" + ", 0.5)" * depth


def test_a_kernel_at_the_depth_limit_round_trips_and_evaluates():
    expr = SzegoDisc()
    for _ in range(MAX_DEPTH):
        expr = Pow(expr, 0.5)
    assert expr.to_dsl() == _pow_chain(MAX_DEPTH)
    assert parse_kernel(expr.to_dsl()) == expr
    assert expr.eval(0.1, 0.2)[0, 0] == pytest.approx((1 / (1 - 0.02)) ** 0.5**MAX_DEPTH)


def test_nesting_past_the_limit_raises_a_shape_error_naming_it():
    expr = parse_kernel(_pow_chain(MAX_DEPTH))
    with pytest.raises(ShapeError, match=f"^kernel nested deeper than {MAX_DEPTH} levels$"):
        Pow(expr, 0.5)


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 1000])
def test_the_parser_refuses_deep_nesting_at_a_position(depth):
    with pytest.raises(ParseError) as exc:
        parse_kernel(_pow_chain(depth))
    # at the name of the first node past the limit, before any deeper one
    assert exc.value.position == len("pow(") * (MAX_DEPTH + 1)
    assert str(exc.value).startswith(f"kernel nested deeper than {MAX_DEPTH} levels")
