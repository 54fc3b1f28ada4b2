"""Expression language: precedence, round-trips, errors, fuzz totality, and
the closure compiler against the tree-walking reference evaluator."""

import struct

import numpy as np
import pytest

from symred.errors import NonFiniteError, ParseError, ValidationError
from symred.exprlang import (
    BinOp,
    Coord,
    Neg,
    Num,
    Pow,
    compile_expr,
    eval_expr,
    format_expr,
    free_names,
    parse_expression,
    validate_expr,
)

from util import random_expr, reference_eval_expr


def evaluate(text, env=None):
    return eval_expr(parse_expression(text), env or {})


def test_precedence_facts():
    assert evaluate("1+2*3^2") == 19.0
    assert evaluate("-2^2") == -4.0


def test_left_associativity():
    assert evaluate("8-4-2") == 2.0
    assert evaluate("16/4/2") == 2.0


def test_power_tower_is_right_associative():
    assert evaluate("2^3^2") == 512.0  # 2^(3^2)


def test_unary_minus_and_parentheses():
    assert evaluate("(-2)^2") == 4.0
    assert evaluate("--2") == 2.0
    assert evaluate("2*-3") == -6.0


def test_functions_and_coordinates():
    assert abs(evaluate("sin(x1)^2 + cos(x1)^2", {"x1": 0.73}) - 1.0) < 1e-15
    assert evaluate("sqrt(w1 + 3)", {"w1": 1.0}) == 2.0
    assert abs(evaluate("exp(0)") - 1.0) < 1e-15


def test_scientific_notation():
    assert evaluate("1e-5") == 1e-5
    assert evaluate("2.5e3") == 2500.0


def test_parse_error_positions():
    with pytest.raises(ParseError) as excinfo:
        parse_expression("1 + * 2")
    assert excinfo.value.line == 1
    assert excinfo.value.column == 5

    with pytest.raises(ParseError) as excinfo:
        parse_expression("(1 + 2")
    assert excinfo.value.expected == ("')'",)


def test_integer_exponent_required():
    with pytest.raises(ParseError):
        parse_expression("x1^2.5")
    with pytest.raises(ParseError):
        parse_expression("x1^-1")
    with pytest.raises(ParseError):
        parse_expression("x1^x1")


def test_exponent_bounds():
    with pytest.raises(ParseError):
        parse_expression("2^9999999")
    with pytest.raises(ParseError):
        parse_expression("2^9^9^9")


def test_depth_limit_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_expression("(" * 500 + "1" + ")" * 500)


def test_evaluation_domain_errors():
    with pytest.raises(NonFiniteError):
        evaluate("1/(x1 - 1)", {"x1": 1.0})
    with pytest.raises(NonFiniteError):
        evaluate("sqrt(0 - 2)")
    with pytest.raises(NonFiniteError):
        evaluate("exp(10000)")


_NAMES = ("x1", "x2", "x3", "x4", "t1", "w1", "w2")


def _outcome(fn):
    """Bits of the float returned, or the type of the exception raised."""
    try:
        return struct.pack("<d", fn())
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


def test_compile_matches_reference_bit_for_bit():
    rng = np.random.default_rng(2024)
    raised = 0
    for _ in range(400):
        ast = random_expr(rng)
        values = rng.uniform(-3.0, 3.0, size=len(_NAMES)).tolist()
        env = dict(zip(_NAMES, values))
        want = _outcome(lambda: reference_eval_expr(ast, env))
        got = _outcome(lambda: compile_expr(ast, _NAMES)(values))
        assert got == want, format_expr(ast)
        raised += isinstance(want, type)
    # the sample must exercise the failure paths as well as the values
    assert 0 < raised < 400


@pytest.mark.parametrize("text", [
    "-(x1-x2)", "-x1*x2", "sqrt(-x1)", "x1^0", "(x1-x2)^3", "x2/-x1", "exp(-x1)*cos(x2)",
])
def test_compile_matches_reference_on_signed_zeros(text):
    ast = parse_expression(text)
    for values in ([0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [0.5, 0.5]):
        env = dict(zip(("x1", "x2"), values))
        want = _outcome(lambda: reference_eval_expr(ast, env))
        assert _outcome(lambda: compile_expr(ast, ("x1", "x2"))(values)) == want


@pytest.mark.parametrize("text, x1", [
    ("1/(x1-x1)", 0.3),
    ("sqrt(0-2)", 0.0),
    ("exp(10000)", 0.0),
    ("x1^999999", 10.0),
])
def test_compile_raises_like_reference(text, x1):
    ast = parse_expression(text)
    with pytest.raises(NonFiniteError):
        reference_eval_expr(ast, {"x1": x1})
    fn = compile_expr(ast, ("x1",))  # compiling evaluates nothing
    with pytest.raises(NonFiniteError):
        fn([x1])


def test_compile_rejects_unknown_names_at_compile_time():
    with pytest.raises(ValidationError, match="q7"):
        compile_expr(parse_expression("x1 + q7"), ("x1",))
    with pytest.raises(ValidationError, match="tan"):
        compile_expr(parse_expression("tan(x1)"), ("x1",))
    with pytest.raises(ValidationError):
        eval_expr(parse_expression("x1 + x2"), {"x1": 1.0})


def test_validate_expr_unknown_names():
    expr = parse_expression("x1 + q7")
    with pytest.raises(ValidationError):
        validate_expr(expr, {"x1"}, "test")
    assert free_names(expr) == {"x1", "q7"}
    bad_fn = parse_expression("tan(x1)")
    with pytest.raises(ValidationError):
        validate_expr(bad_fn, {"x1"}, "test")


def test_round_trip_fixed_cases():
    for text in (
        "1.0+2.0*3.0",
        "-(x1+x2)",
        "(x1+x2)*(x1-x2)",
        "sin(cos(x1))",
        "x1^3",
        "1.0/sqrt(1.0+w1^2)",
        "-x1^2",
        "(-x1)^2",
        "x1--x2",
    ):
        ast = parse_expression(text)
        assert parse_expression(format_expr(ast)) == ast


def test_round_trip_random_asts():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        ast = random_expr(rng)
        printed = format_expr(ast)
        assert parse_expression(printed) == ast, printed


def test_print_parse_print_stable():
    rng = np.random.default_rng(321)
    for _ in range(200):
        ast = random_expr(rng)
        once = format_expr(ast)
        assert format_expr(parse_expression(once)) == once


def test_fuzz_no_unexpected_exceptions():
    rng = np.random.default_rng(99)
    alphabet = "x1w2t +-*/^()[],=.0123456789abcsinqr\n#"
    for _ in range(5000):
        n = int(rng.integers(0, 30))
        text = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), n))
        try:
            parse_expression(text)
        except (ParseError, ValidationError):
            pass


def test_ast_node_equality_semantics():
    assert Num(2.0) == Num(2.0)
    assert BinOp("+", Num(1.0), Coord("x1")) == BinOp("+", Num(1.0), Coord("x1"))
    assert Neg(Num(1.0)) != Num(-1.0)
    assert Pow(Coord("x1"), 2) != Pow(Coord("x1"), 3)
