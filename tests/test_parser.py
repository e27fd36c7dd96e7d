import pytest

from kernelcalc.errors import ParseError
from kernelcalc.parser import parse_kernel

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
