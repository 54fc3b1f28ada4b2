"""Expression language: precedence, round-trips, errors, fuzz totality, and
the straight-line programs against the tree-walking reference evaluator."""

import math
import string
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
    compile_exprs,
    eval_expr,
    format_expr,
    parse_expression,
    token_kind,
    token_positions,
    tokenize,
)

from symred.geometry import _evaluate_rows
from symred.scenarios import _row_map, builtin_names, builtin_text, parse_scenario

from util import random_expr, reference_eval_expr, reference_tokenize


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


def _scan_outcome(scan, text):
    """The tokens of text, or the ParseError's text and position."""
    try:
        return scan(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.column


def _tokens(text):
    """tokenize's lexemes with their kinds and their positions, as the
    reference scanner lists tokens."""
    lexemes = tokenize(text)
    return [(token_kind(lexeme), lexeme, *position)
            for lexeme, position in zip(lexemes, token_positions(text), strict=True)]


def test_tokenize_matches_the_character_scanner():
    # the one regular expression against the character-by-character scanner
    # it replaced, on every built-in's text and on random strings of
    # printable characters, number fragments, overflowing literals and
    # non-ASCII letters and digits (which isalpha, isalnum and \w judge)
    texts = [builtin_text(name) for name in builtin_names()]
    texts += [builtin_text("euclidean_r2n", planes) for planes in range(2, 9)]
    pieces = [*string.printable, "1e5", "2.", "e-", ".5", "1e999", "9" * 400,
              "\u00b2", "\u0663", "\u00e9", "\u2167", "\u00a0", "x_1"]
    rng = np.random.default_rng(31)
    texts += ["".join(rng.choice(pieces, size=rng.integers(0, 40))) for _ in range(8000)]
    raised = 0
    for text in texts:
        want = _scan_outcome(reference_tokenize, text)
        assert _scan_outcome(_tokens, text) == want, repr(text)
        raised += isinstance(want, tuple)
    # both tokens and errors are exercised
    assert 500 < raised < len(texts) - 500


@pytest.mark.parametrize("text, message", [
    ("(" * 500 + "1" + ")" * 500, "expression nests too deeply at line 1, column 41"),
    ("1 +\n 2 )", "unexpected NEWLINE '\\n' at line 1, column 4 "
                  "(expected '(' or identifier or number)"),
    ("  x1 *  # c\n", "unexpected NEWLINE '\\n' at line 1, column 12 "
                      "(expected '(' or identifier or number)"),
])
def test_parse_error_texts_and_positions(text, message):
    with pytest.raises(ParseError) as excinfo:
        parse_expression(text)
    assert str(excinfo.value) == message


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
    assert compile_exprs([e], ("x1",))([1.0]) == [reference_eval_expr(e, {"x1": 1.0})]
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
        got = _outcome(lambda: compile_exprs([ast], _NAMES)(values)[0])
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
        assert _outcome(lambda: compile_exprs([ast], ("x1", "x2"))(values)[0]) == want


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
    program = compile_exprs([ast], ("x1",))  # a raising constant is left to run
    with pytest.raises(NonFiniteError):
        program([x1])


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
    # cos(t1) and sin(t1) are shared by every entry of the hopf flow, and the
    # normalizing square root by every entry of the section: one kernel call
    # each per run, on one row's float or on a batch's column
    calls = Counter()
    for name, fn in list(exprlang.FUNCTIONS.items()):
        def counted(x, _name=name, _fn=fn):
            calls[_name, type(x)] += 1
            return _fn(x)

        monkeypatch.setitem(exprlang.FUNCTIONS, name, counted)
    hopf = parse_scenario(builtin_text("hopf"))
    flow = compile_exprs(hopf.flow, ("x1", "x2", "x3", "x4", "t1"))
    rows = np.random.default_rng(12).uniform(-1.0, 1.0, size=(64, 5))
    want = [reference_eval_expr(e, dict(zip(("x1", "x2", "x3", "x4", "t1"),
                                            (0.1, 0.2, 0.3, 0.4, 0.5)))) for e in hopf.flow]
    calls.clear()
    assert flow([0.1, 0.2, 0.3, 0.4, 0.5]) == want
    assert calls == {("cos", float): 1, ("sin", float): 1}
    calls.clear()
    flow(list(rows.T.copy()))
    assert calls == {("cos", np.ndarray): 1, ("sin", np.ndarray): 1}
    r2n = parse_scenario(builtin_text("euclidean_r2n", 8))
    section = compile_exprs(r2n.section, tuple(f"w{i + 1}" for i in range(14)))
    calls.clear()
    section([0.1] * 14)
    assert calls == {("sqrt", float): 1}
    calls.clear()
    section([np.full(64, 0.1)] * 14)
    assert calls == {("sqrt", np.ndarray): 1}


def test_compile_exprs_emits_one_instruction_per_distinct_varying_subtree():
    # sqrt(4), 2^3 and its negation fold; x1*sqrt(4) is shared by both of
    # its occurrences and by the third entry
    program = compile_exprs([parse_expression(t) for t in
                             ("x1*sqrt(4) + x1*sqrt(4)", "-(2^3) - x2", "x1*sqrt(4)")],
                            ("x1", "x2"))
    # slots 0 and 1 are x1 and x2; then constants, and None per instruction
    assert program.template == [4.0, 2.0, None, None, 8.0, -8.0, None]
    assert [(args, out) for _, _, args, out in program.code] == [((0, 3), 4), ((4, 4), 5),
                                                               ((7, 1), 8)]
    assert program.outputs == (5, 8, 4) and program.folded == (None, None, None)
    assert compile_exprs([parse_expression("-(2^3)"), Coord("x1")], ("x1",)).folded \
        == (-8.0, None)


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


def _map_outcome(exprs, rows):
    """As ``_batch_outcome``, for the compiled map of ``exprs``: one batch
    of its rows through ``_evaluate_rows``, run once."""
    values_map = _row_map(compile_exprs(exprs, _NAMES), (len(exprs),), "map")
    try:
        values = _evaluate_rows(values_map, np.array(rows), lambda values, X: values)
    except Exception as exc:  # noqa: BLE001 - type and message are compared
        return type(exc), str(exc)
    assert values.dtype == np.float64 and values.shape == (len(rows), len(exprs))
    return [[struct.pack("<d", v) for v in row] for row in values.tolist()]


def _assert_map_outcome(exprs, rows):
    """The compiled map's outcome over ``rows``: what its Program batch
    gives, with no second pass.  Against the reference, it fails iff some
    row fails alone, with the error of one such row alone, and on success
    it has each row's bits.  Returns the outcome."""
    got = _map_outcome(exprs, rows)
    assert got == _batch_outcome(compile_exprs(exprs, _NAMES), rows)
    alone = [_rows_outcome(exprs, [row]) for row in rows]
    failures = [outcome for outcome in alone if isinstance(outcome, tuple)]
    assert got in failures if failures else got == [outcome[0] for outcome in alone]
    return got


def test_batch_raises_the_first_failing_rows_error():
    # every field divides by zero in one row and takes the square root of
    # -1 in another.  A batch raises the error of its first failing
    # operation, so the division, which the program runs before the square
    # root, raises whichever of the two rows comes first, unless the random
    # AST fails earlier
    rng = np.random.default_rng(2024)
    asts = [random_expr(rng) for _ in range(400)]
    rows_rng = np.random.default_rng(11)
    first_errors = Counter()
    x1, x2 = Coord("x1"), Coord("x2")
    for ast in asts:
        rows = rows_rng.uniform(-3.0, 3.0, size=(_BATCH, len(_NAMES)))
        i, j = rows_rng.choice(_BATCH, size=2, replace=False)
        rows[i, 0], rows[j, 1] = 4.0, -5.0
        exprs = [ast, BinOp("/", ast, BinOp("-", x1, Num(4.0))),
                 BinOp("+", Call("sqrt", BinOp("+", x2, Num(4.0))), ast)]
        first_errors[_assert_map_outcome(exprs, rows.tolist())] += 1
    assert first_errors[(NonFiniteError, "division by zero")] > 300
    assert first_errors[(NonFiniteError, "sqrt of negative value -1.0")] == 0


def test_batch_with_shared_subtrees_matches_reference():
    rows_rng = np.random.default_rng(5)
    raised = fields = 0
    for values, exprs in _planted_fields():
        rows = [values, *rows_rng.uniform(-3.0, 3.0, size=(_BATCH - 1, len(_NAMES))).tolist()]
        raised += isinstance(_assert_map_outcome(exprs, rows), tuple)
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


def test_batch_calls_each_function_and_power_once_per_column(monkeypatch):
    # sin, cos, exp and sqrt are one numpy kernel call on the whole column,
    # and a power one np.power call or, for ^2, one multiply; a single row
    # calls each once on a float, and every row of the batch has the bits of
    # the kernels
    seen = Counter()
    for name, fn in list(exprlang.FUNCTIONS.items()):
        def counted(x, _name=name, _fn=fn):
            seen[_name, type(x)] += 1
            return _fn(x)

        monkeypatch.setitem(exprlang.FUNCTIONS, name, counted)
    exprs = [parse_expression(t) for t in ("sin(x1) + cos(x1)", "exp(x2)^3", "sqrt(x2^2)")]
    program = compile_exprs(exprs, ("x1", "x2"))
    rng = np.random.default_rng(3)
    rows = rng.uniform(-10.0, 10.0, size=(200, 2))
    values = program(_columns(rows.tolist()))
    assert seen == {("sin", np.ndarray): 1, ("cos", np.ndarray): 1, ("exp", np.ndarray): 1,
                    ("sqrt", np.ndarray): 1}
    b = rows[:, 1]
    assert values[1].tobytes() == np.power(np.exp(b), 3).tobytes()
    assert values[2].tobytes() == np.sqrt(np.power(b, 2)).tobytes()
    seen.clear()
    assert [type(v) for v in program(rows[0].tolist())] == [float, float, float]
    assert seen == {("sin", float): 1, ("cos", float): 1, ("exp", float): 1, ("sqrt", float): 1}


_ROW_AT = 17  # the failing row of a 40-row batch


@pytest.mark.parametrize("text, value, error, message", [
    ("exp(x1)", 800.0, NonFiniteError, "exp overflows"),
    ("x1 + exp(800)", 0.5, NonFiniteError, "exp overflows"),
    ("x1^2", 1e200, NonFiniteError, "power overflows"),
    ("sqrt(x1)", -4.0, NonFiniteError, "sqrt of negative value -4.0"),
    ("sin(x1*x1*x1)", 1e200, ValueError, "math domain error"),
    ("cos(x1*x1*x1)", -1e200, ValueError, "math domain error"),
], ids=["exp", "exp-constant", "power", "sqrt", "sin-of-inf", "cos-of-inf"])
def test_kernels_fail_closed_on_a_row_and_a_batch(text, value, error, message):
    # math's exceptions, found from the kernel's result rather than from a
    # numpy warning: a batch raises its failing row's error
    program = compile_exprs([parse_expression(text)], ("x1",))
    column = np.full(40, 0.5)
    column[_ROW_AT] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for values in ([value], [column]):
            with pytest.raises(error) as excinfo:
                program(values)
            assert str(excinfo.value) == message


@pytest.mark.parametrize("text, value, want", [
    ("exp(x1)", math.inf, math.exp(math.inf)),
    ("exp(x1)", -math.inf, math.exp(-math.inf)),
    ("sqrt(x1)", math.inf, math.sqrt(math.inf)),
    ("x1^3", -math.inf, (-math.inf) ** 3),
    ("x1^0", math.nan, math.nan ** 0),
    ("sin(x1)", math.nan, math.sin(math.nan)),
    ("exp(x1)", math.nan, math.exp(math.nan)),
])
def test_kernels_pass_a_nonfinite_argument_as_math_does(text, value, want):
    # an infinite or NaN result from an infinite or NaN argument is no error
    program = compile_exprs([parse_expression(text)], ("x1",))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert repr(program([value])[0]) == repr(want)
        assert repr(program([np.full(3, value)])[0].tolist()) == repr([want] * 3)


def _ulp_order(values):
    """float64 bits as int64 keys whose order and differences follow the
    floats: adjacent floats differ by one."""
    bits = np.asarray(values, dtype=float).view(np.int64)
    return np.where(bits < 0, np.int64(-2**63) - bits, bits)


@pytest.mark.parametrize("op", ["sin", "cos", "exp", "sqrt", *range(2, 13)])
def test_kernels_are_within_one_ulp_of_math(op):
    # a million values from [-10, 10] (their magnitudes for sqrt) through
    # the compiled kernel, against math's function or Python's **
    xs = np.random.default_rng(17).uniform(-10.0, 10.0, size=10**6)
    if op == "sqrt":
        xs = np.abs(xs)
    text = f"x1^{op}" if isinstance(op, int) else f"{op}(x1)"
    got = compile_exprs([parse_expression(text)], ("x1",))([xs])[0]
    if isinstance(op, int):
        want = np.array([x ** op for x in xs.tolist()])
    else:
        want = np.array(list(map(getattr(math, op), xs.tolist())))
    assert np.abs(_ulp_order(got) - _ulp_order(want)).max() <= 1


@pytest.mark.parametrize("op", ["sin", "cos", "exp", "sqrt", 2, 3, 7])
def test_kernel_on_one_float_has_the_bits_of_a_column(op):
    # folding, one row and a batch all call the same ufunc; each element of
    # a column gets the bits of the ufunc called on that float alone
    xs = np.random.default_rng(23).uniform(-10.0, 10.0, size=5000)
    if op == "sqrt":
        xs = np.abs(xs)
    kernel = ((lambda x: np.power(x, op)) if isinstance(op, int)
              else exprlang.FUNCTIONS[op])
    column = kernel(xs)
    alone = np.array([float(kernel(x)) for x in xs.tolist()])
    assert alone.tobytes() == column.tobytes()
    program = compile_exprs([parse_expression(f"x1^{op}" if isinstance(op, int)
                                              else f"{op}(x1)")], ("x1",))
    rows = np.array([program([x])[0] for x in xs[:200].tolist()])
    assert rows.tobytes() == program([xs[:200]])[0].tobytes() == column[:200].tobytes()


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
        compile_exprs([parse_expression("x1 + q7")], ("x1",))
    with pytest.raises(ValidationError, match="tan"):
        compile_exprs([parse_expression("tan(x1)")], ("x1",))
    with pytest.raises(ValidationError):
        eval_expr(parse_expression("x1 + x2"), {"x1": 1.0})


def test_compile_exprs_names_every_unknown_identifier_and_function():
    # every unknown name of the first failing entry, sorted; identifiers are
    # reported before functions, and a known name is never listed
    exprs = [parse_expression(t) for t in ("x1 + 1", "q7*x1 + tan(p2) - q7", "q9")]
    with pytest.raises(ValidationError) as excinfo:
        compile_exprs(exprs, ("x2", "x1"), "test")
    assert str(excinfo.value) == ("test: unknown identifier(s) ['p2', 'q7']; "
                                  "allowed coordinates are ['x1', 'x2']")
    with pytest.raises(ValidationError) as excinfo:
        compile_exprs([parse_expression("tan(x1) + sinh(cosh(x1)) + sin(x1)")], ("x1",), "test")
    assert str(excinfo.value) == ("test: unknown function(s) ['cosh', 'sinh', 'tan']; "
                                  "available functions are ['cos', 'exp', 'sin', 'sqrt']")


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


def test_square_is_one_multiply_with_the_bits_of_np_power():
    # ^2 runs x*x, not a ufunc call: over a million values spanning every
    # binade, huge values that overflow and subnormals that underflow
    # included, each value on a column, on one float and folded is the bits
    # of np.power(x, 2) on the installed numpy, and an overflow from a finite
    # value fails closed as np.power's did
    rng = np.random.default_rng(29)
    xs = np.concatenate([
        rng.uniform(-10.0, 10.0, 500_000),
        np.ldexp(rng.uniform(-1.0, 1.0, 500_000), rng.integers(-1074, 513, 500_000)),
        np.ldexp(rng.uniform(-1.0, 1.0, 1000), rng.integers(513, 1025, 1000)),
        np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.3e154, -1.4e154, np.inf, -np.inf,
                  np.nan]),
    ])
    program = compile_exprs([parse_expression("x1^2")], ("x1",))
    with np.errstate(over="ignore"):
        want = np.power(xs, 2)
    finite = np.isfinite(want) | ~np.isfinite(xs)
    assert finite.sum() >= 10**6 and (~finite).any() and (want[finite] == 0.0).any()
    got = program([xs[finite]])[0]
    assert got.tobytes() == want[finite].tobytes()
    picks = np.flatnonzero(finite)[::37]  # Python's x ** 2 differs on about 19 of these
    alone = [program([x])[0] for x in xs[picks].tolist()]
    assert np.array(alone).tobytes() == want[picks].tobytes()
    assert all(type(v) is float for v in alone)
    for x in xs[picks[:50]].tolist():
        folded = compile_exprs([parse_expression(f"({x!r})^2")], ())
        assert np.float64(folded.folded[0]).tobytes() == np.float64(x * x).tobytes()
    for x in xs[~finite][:5].tolist():
        with pytest.raises(NonFiniteError, match="^power overflows$"):
            program([x])
