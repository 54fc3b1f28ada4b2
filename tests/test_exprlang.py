"""Expression language: precedence, round-trips, errors, fuzz totality, and
the closure compiler against the tree-walking reference evaluator."""

import math
import struct
import warnings
from collections import Counter

import numpy as np
import pytest

from symred import exprlang
from symred.errors import NonFiniteError, ParseError, ValidationError
from symred.exprlang import (
    BinOp,
    Call,
    Coord,
    Neg,
    Num,
    Pow,
    compile_expr,
    compile_exprs,
    eval_expr,
    format_expr,
    free_names,
    parse_expression,
    validate_expr,
)

from symred.scenarios import builtin_text, parse_scenario

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


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_chain_height_is_bounded_at_parse_time(op):
    tallest = "x1" + f" {op} x1" * 199  # 200 levels, the most the parser accepts
    e = parse_expression(tallest)
    assert compile_expr(e, ("x1",))([1.0]) == reference_eval_expr(e, {"x1": 1.0})
    assert parse_expression(format_expr(e)) == e
    with pytest.raises(ParseError, match=r"nests too deeply \(201 levels, at most 200\)"):
        parse_expression(tallest + f" {op} x1")


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


def _entries_outcome(fn):
    """Bits of every value returned, or the type and message of the
    exception raised."""
    try:
        return [struct.pack("<d", x) for x in fn()]
    except Exception as exc:  # noqa: BLE001 - type and message are compared
        return type(exc), str(exc)


def _planted_fields(width=5):
    """The 400 random ASTs and value lists of the bit-for-bit test above,
    grouped ``width`` to a field, each field's first AST planted in the
    others, once as the same object and once as an equal copy rebuilt by
    the parser; every field is evaluated at its first AST's values."""
    rng = np.random.default_rng(2024)
    drawn = [(random_expr(rng), rng.uniform(-3.0, 3.0, size=len(_NAMES)).tolist())
             for _ in range(400)]
    for start in range(0, len(drawn), width):
        (planted, values), *rest = drawn[start:start + width]
        copy = parse_expression(format_expr(planted))
        assert copy == planted and copy is not planted
        yield values, [Call("sin", planted),
                       *(BinOp("+-*/"[i % 4], g, planted if i % 2 else copy)
                         for i, (g, _) in enumerate(rest)),
                       Neg(BinOp("*", copy, Call("cos", planted))), planted]


def test_compile_exprs_matches_reference_with_shared_subtrees():
    raised = fields = 0
    for values, exprs in _planted_fields():
        env = dict(zip(_NAMES, values))
        want = _entries_outcome(lambda: [reference_eval_expr(e, env) for e in exprs])
        got = _entries_outcome(lambda: compile_exprs(exprs, _NAMES)(values))
        assert got == want, [format_expr(e) for e in exprs]
        raised += isinstance(want, tuple)
        fields += 1
    # values and first errors are both exercised
    assert 0 < raised < fields


def test_compile_exprs_computes_repeated_subtrees_once(monkeypatch):
    calls = Counter()
    for name, fn in list(exprlang.FUNCTIONS.items()):
        def counted(x, _name=name, _fn=fn):
            calls[_name] += 1
            return _fn(x)

        monkeypatch.setitem(exprlang.FUNCTIONS, name, counted)
    hopf = parse_scenario(builtin_text("hopf"))
    flow = compile_exprs(hopf.flow, ("x1", "x2", "x3", "x4", "t1"))
    want = [reference_eval_expr(e, dict(zip(("x1", "x2", "x3", "x4", "t1"),
                                            (0.1, 0.2, 0.3, 0.4, 0.5)))) for e in hopf.flow]
    calls.clear()
    assert flow([0.1, 0.2, 0.3, 0.4, 0.5]) == want
    assert calls == {"cos": 1, "sin": 1}
    r2n = parse_scenario(builtin_text("euclidean_r2n", 8))
    section = compile_exprs(r2n.section, tuple(f"w{i + 1}" for i in range(14)))
    calls.clear()
    section([0.1] * 14)
    assert calls == {"sqrt": 1}


def test_compile_exprs_keeps_signed_zero_literals_apart():
    x1 = Coord("x1")
    program = compile_exprs([BinOp("*", x1, Num(0.0)), BinOp("*", x1, Num(-0.0))], ("x1",))
    assert [struct.pack("<d", v) for v in program([1.0])] \
        == [struct.pack("<d", 0.0), struct.pack("<d", -0.0)]


def test_compile_exprs_first_error_in_entry_order():
    program = compile_exprs([parse_expression(t) for t in ("x1 + sqrt(x2)", "1/(x1 - x1)",
                                                           "2*sqrt(x2)")], ("x1", "x2"))
    with pytest.raises(NonFiniteError, match="sqrt of negative value -1.0"):
        program([0.5, -1.0])
    with pytest.raises(NonFiniteError, match="division by zero"):
        program([0.5, 1.0])
    with pytest.raises(ValueError, match="expected 2 values"):
        program([0.5])


_BATCH = 40  # rows per batch call


def _columns(rows):
    """The float64 coordinate columns of a list of rows."""
    return [np.array(column, dtype=float) for column in zip(*rows)]


def _batch_outcome(program, rows):
    """Per-row bits of every value a batch call returns, or the type and
    message of the exception raised.  Each value must be a float64 column
    with one entry per row, or a Python number standing for every row."""
    try:
        values = program(_columns(rows))
    except Exception as exc:  # noqa: BLE001 - type and message are compared
        return type(exc), str(exc)
    for value in values:
        assert type(value) in (float, int) or (
            type(value) is np.ndarray and value.dtype == np.float64
            and value.shape == (len(rows),))
    return [[struct.pack("<d", v[i] if type(v) is np.ndarray else v) for v in values]
            for i in range(len(rows))]


def _rows_outcome(exprs, rows):
    """Reference: each row's tree walks in row order; per-row bits, or the
    type and message of the first failing row's error."""
    out = []
    for row in rows:
        env = dict(zip(_NAMES, row))
        try:
            out.append([struct.pack("<d", reference_eval_expr(e, env)) for e in exprs])
        except Exception as exc:  # noqa: BLE001 - type and message are compared
            return type(exc), str(exc)
    return out


def test_batch_matches_reference_bit_for_bit():
    # the 400 random ASTs, each over a batch of rows
    rng = np.random.default_rng(2024)
    asts = [random_expr(rng) for _ in range(400)]
    rows_rng = np.random.default_rng(7)
    raised = 0
    for ast in asts:
        rows = rows_rng.uniform(-3.0, 3.0, size=(_BATCH, len(_NAMES))).tolist()
        want = _rows_outcome([ast], rows)
        assert _batch_outcome(compile_exprs([ast], _NAMES), rows) == want, format_expr(ast)
        raised += isinstance(want, tuple)
    assert 0 < raised < 400


def test_batch_raises_the_first_failing_rows_error():
    # every field divides by zero in one row and takes the square root of
    # -1 in another; whichever row comes first raises, whatever the entry
    # order, unless the random AST fails earlier
    rng = np.random.default_rng(2024)
    asts = [random_expr(rng) for _ in range(400)]
    rows_rng = np.random.default_rng(11)
    first_errors = Counter()
    x1, x2 = Coord("x1"), Coord("x2")
    for ast in asts:
        rows = rows_rng.uniform(-3.0, 3.0, size=(_BATCH, len(_NAMES)))
        i, j = rows_rng.choice(_BATCH, size=2, replace=False)
        rows[i, 0], rows[j, 1] = 4.0, -5.0
        rows = rows.tolist()
        exprs = [ast, BinOp("/", ast, BinOp("-", x1, Num(4.0))),
                 BinOp("+", Call("sqrt", BinOp("+", x2, Num(4.0))), ast)]
        want = _rows_outcome(exprs, rows)
        assert _batch_outcome(compile_exprs(exprs, _NAMES), rows) == want, format_expr(ast)
        first_errors[want] += 1
    assert first_errors[(NonFiniteError, "division by zero")] > 100
    assert first_errors[(NonFiniteError, "sqrt of negative value -1.0")] > 100


def test_batch_with_shared_subtrees_matches_reference():
    rows_rng = np.random.default_rng(5)
    raised = fields = 0
    for values, exprs in _planted_fields():
        rows = [values, *rows_rng.uniform(-3.0, 3.0, size=(_BATCH - 1, len(_NAMES))).tolist()]
        want = _rows_outcome(exprs, rows)
        assert _batch_outcome(compile_exprs(exprs, _NAMES), rows) == want, \
            [format_expr(e) for e in exprs]
        raised += isinstance(want, tuple)
        fields += 1
    assert 0 < raised < fields


@pytest.mark.parametrize("text", [
    "-(x1-x2)", "-x1*x2", "sqrt(-x1)", "x1^0", "(x1-x2)^3", "x2/-x1", "exp(-x1)*cos(x2)",
    "0*x1", "-0.0*x2 + 0", "x1 - x1", "-(0*x1)",
])
def test_batch_keeps_signed_zeros(text):
    ast = parse_expression(text)
    combos = ([0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0])
    program = compile_exprs([ast], ("x1", "x2"))
    for tail in ([], [[0.5, 0.5]]):  # the second batch fails where sqrt(-x1) does
        rows = [list(combos[i % 4]) for i in range(_BATCH)] + tail
        padded = [row + [0.0] * (len(_NAMES) - 2) for row in rows]
        assert _batch_outcome(program, rows) == _rows_outcome([ast], padded)


def test_batch_overflow_is_a_silent_inf():
    # as on floats: inf from an overflowing product, nan from inf * 0, and
    # no RuntimeWarning from numpy
    exprs = [parse_expression(t) for t in ("x1*x1*x1", "x1*x1*x1*0", "-x1*x1")]
    program = compile_exprs(exprs, _NAMES)
    rows = [[1e200] + [0.0] * (len(_NAMES) - 1)] * 32
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcome = _batch_outcome(program, rows)
    assert outcome == _rows_outcome(exprs, rows)
    cube, zero_times, negated = (struct.unpack("<d", b)[0] for b in outcome[0])
    assert cube == math.inf and math.isnan(zero_times) and negated == -math.inf


def test_batch_wrong_width_raises_like_a_row():
    program = compile_exprs([parse_expression("x1 + x2")], ("x1", "x2"))
    with pytest.raises(ValueError, match="expected 2 values, got 1"):
        program([np.zeros(5)])
    with pytest.raises(ValueError, match="expected 2 values, got 3"):
        program([np.zeros(5)] * 3)


def test_batch_maps_functions_and_powers_per_element(monkeypatch):
    # sin, cos, exp and sqrt make one math call per row, and a power is
    # Python's ** per row: numpy's exp and power round differently
    seen = Counter()
    for name, fn in list(exprlang.FUNCTIONS.items()):
        def counted(x, _name=name, _fn=fn):
            seen[_name, type(x)] += 1
            return _fn(x)

        monkeypatch.setitem(exprlang.FUNCTIONS, name, counted)
    exprs = [parse_expression(t) for t in ("sin(x1) + cos(x1)", "exp(x2)^3", "sqrt(x2^2)")]
    program = compile_exprs(exprs, ("x1", "x2"))
    rng = np.random.default_rng(3)
    rows = rng.uniform(-10.0, 10.0, size=(200, 2)).tolist()
    values = program(_columns(rows))
    assert seen == {("sin", float): 200, ("cos", float): 200, ("exp", float): 200,
                    ("sqrt", float): 200}
    for i, (a, b) in enumerate(rows):
        assert struct.pack("<d", values[1][i]) == struct.pack("<d", math.exp(b) ** 3)
        assert struct.pack("<d", values[2][i]) == struct.pack("<d", math.sqrt(b ** 2))
    seen.clear()
    assert [type(v) for v in program(rows[0])] == [float, float, float]
    assert seen == {("sin", float): 1, ("cos", float): 1, ("exp", float): 1, ("sqrt", float): 1}


def test_batch_numbers_stay_python_numbers():
    # a subtree reading no coordinate is computed on Python numbers, as on
    # one row; the entry's value stands for every row
    program = compile_exprs([Num(2.0), BinOp("*", Pow(Num(3.0), 2), Coord("x1")),
                             BinOp("/", Num(1.0), Num(4.0))], ("x1",))
    two, scaled, quarter = program([np.array([1.0, -2.0, 0.5])])
    assert type(two) is float and type(quarter) is float
    assert scaled.tolist() == [9.0, -18.0, 4.5]


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
