"""Tiny arithmetic expression language used by scenario files: scanner,
parser, printer, and a compiler to straight-line programs.

:func:`tokenize` scans a text with one ``findall`` of one regular
expression into its lexemes, plain strings: a token is its lexeme, whose
kind (NUMBER, IDENT, RBRACKET, ...) :func:`token_kind` reads off it, and
the empty lexeme ends every scan.  The scan checks each distinct lexeme
once, for a number that overflows or a character that starts no token.
The parser dispatches on lexemes too.  No position is kept: when a check
fails, :func:`token_positions` scans the text again, and the error gets the
line and column of the first failing token.

Grammar (EBNF), with the usual precedence (power binds tightest, then unary
minus, then * and /, then + and -; binary operators associate left, the
integer exponent tower associates right):

    expr     = term { ("+" | "-") term } ;
    term     = factor { ("*" | "/") factor } ;
    factor   = "-" factor | power ;
    power    = atom [ "^" exponent ] ;
    exponent = integer [ "^" exponent ] ;
    atom     = number | ident | ident "(" expr ")" | "(" expr ")" ;
    vector   = "[" expr { "," expr } "]" ;
    matrix   = "[" vector { "," vector } "]" ;

Identifiers are coordinates (x1..xn, t1..tk, w1..wq) or the functions sin,
cos, exp and sqrt.  Exponents are nonnegative integer literals; "-2^2"
therefore parses as -(2^2).  Parsing either succeeds or raises ParseError
with a 1-based position; no input crashes the parser, and no expression is
more than 200 levels high.

:func:`compile_exprs` turns the entries of one map into one
:class:`Program` in a single walk of each parsed tree: the walk rejects
unknown coordinates and functions, folds every subtree that reads no
coordinate (and does not raise) into a constant, gives structurally equal
subtrees one slot, and appends one instruction (label, operation, argument
slots, result slot) per remaining node, in evaluation order (Aho, Lam,
Sethi & Ullman, *Compilers*, 2006: value numbering of a basic block).  One
interpreter runs that list on one point's Python floats or on a batch's
float64 columns, one per coordinate.  Each operation is one kernel on every
path: ``+ - * /`` and negation are IEEE operations, ``^2`` is one checked
multiply ``x*x`` (the bits of ``np.power(x, 2)``), and sin, cos, exp, sqrt
and any other ``^`` are numpy's ufuncs, called on a float or on a whole
column.  So
folding, one row and a batch give each value the same bits, those of a
tree walk calling the same kernels.  Scenario files are untrusted input:
a program is data built from the AST, and no generated source is ever
passed to ``eval`` or ``exec``.

Every instruction keeps its label, and one table, ``_OPS``, gives each
label's value kernel and its tangent rule, so :meth:`Program.tangents` runs
the same instructions in forward mode (Griewank & Walther, *Evaluating
Derivatives*, 2008): each slot carries an (N, s) tangent block beside its
value column, seeded on the inputs asked for, and a slot that depends on
no seeded input carries none.  The rules are the exact derivatives of the
kernels, so a Jacobian has roundoff error only, and a rule is looked up
only when a tangent is asked for.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (NonFiniteError, ParseError, Record, UnknownIdentifierError,
                     ValidationError, ValueRecord, _set)

__all__ = [
    "tokenize",
    "token_kind",
    "token_positions",
    "Num",
    "Coord",
    "Neg",
    "BinOp",
    "Pow",
    "Call",
    "FUNCTIONS",
    "ExprParser",
    "parse_expression",
    "format_expr",
    "Program",
    "compile_exprs",
    "eval_expr",
]

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
}

_COLUMN = np.ndarray  # a batch value: one float64 entry per point

_MAX_DEPTH = 200
_MAX_EXPONENT = 1_000_000

# the kind of every lexeme that is not a number or an identifier: the
# one-character tokens, the newline, and the empty lexeme that ends every scan
_KINDS = {
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "/": "SLASH",
    "^": "CARET",
    "(": "LPAREN",
    ")": "RPAREN",
    "[": "LBRACKET",
    "]": "RBRACKET",
    ",": "COMMA",
    "=": "EQUALS",
    ".": "DOT",
    "\n": "NEWLINE",
    "": "EOF",
}
_DIGITS = "0123456789"

# One match per token: blanks and a comment are skipped as its prefix, then
# the one group takes the lexeme, by the first alternative that matches:
# a one-character token, a number, an identifier, a newline, any other
# character, or the empty lexeme at the end of the text.  Numbers are ASCII
# digits only (float() would take other digits), and an identifier is a run
# of str.isalnum() characters and "_" that must start with a letter or "_";
# tokenize refuses any other run of \w and any other character.
_LEXEME = re.compile(r"""
    [ \t\r]*(?:\#[^\n]*)?
    ( [-+*/^()\[\],=.]
    | [0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?
    | \w+
    | \n
    | .
    | \Z )
""", re.VERBOSE)


def token_kind(lexeme: str) -> str:
    """The kind of a lexeme as error messages name it: NUMBER, IDENT,
    NEWLINE, EOF for the empty lexeme, or the name of a one-character token
    (PLUS, RBRACKET, ...)."""
    kind = _KINDS.get(lexeme)
    if kind is None:
        kind = "NUMBER" if lexeme[0] in _DIGITS else "IDENT"
    return kind


def _refusal(lexeme: str) -> str | None:
    """Why the scan refuses a lexeme, or None if it is a token."""
    if lexeme in _KINDS:
        return None
    first = lexeme[0]
    if first in _DIGITS:
        return None if math.isfinite(float(lexeme)) else f"number literal {lexeme!r} overflows"
    if first.isalpha() or first == "_":
        return None
    return f"unexpected character {first!r}"


def tokenize(text: str) -> list[str]:
    """The lexemes of text, newlines kept and comments (from '#' to the end
    of the line) dropped, ending with the empty lexeme.

    One ``findall`` scans the text; a number that overflows or a character
    that starts no token raises ParseError at the first such token, its
    position found by scanning again (see :func:`token_positions`).
    """
    lexemes = _LEXEME.findall(text)
    if len(lexemes) > 1 and lexemes[-2] == "":
        # blanks or a comment end the text: the match that skips them takes
        # the empty lexeme, and findall then adds an empty match of its own
        lexemes.pop()
    if any(map(_refusal, set(lexemes))):  # each distinct lexeme checked once
        for index, lexeme in enumerate(lexemes):
            message = _refusal(lexeme)
            if message is not None:
                raise ParseError(message, *token_positions(text)[index])
    return lexemes


def token_positions(text: str) -> list[tuple[int, int]]:
    """The 1-based (line, column) of each lexeme ``tokenize`` finds in text;
    only a parse error needs them, so they are computed only then."""
    positions = []
    line, line_start = 1, 0
    for match in _LEXEME.finditer(text):
        start = match.start(1)
        positions.append((line, start - line_start + 1))
        lexeme = match.group(1)
        if lexeme == "\n":
            line, line_start = line + 1, start + 1
        elif not lexeme:  # the end of the text
            break
    return positions


class Expr(ValueRecord):
    """Base class for AST nodes: immutable records, equal when of one type
    with equal fields.  Each node sets its fields in a constructor of its
    own, not through Record's: the parser builds 617 nodes per load of the
    8-plane euclidean_r2n scenario, and a BinOp costs about 550 ns this way
    against about 970 ns through the generic constructor (Python 3.11 on a
    2-core Xeon)."""

    __slots__ = ()


class Num(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        _set(self, "value", value)


class Coord(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class Neg(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        _set(self, "arg", arg)


class BinOp(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)


class Pow(Expr):
    __slots__ = ("base", "power")

    def __init__(self, base: Expr, power: int):
        _set(self, "base", base)
        _set(self, "power", power)


class Call(Expr):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: str, arg: Expr):
        _set(self, "fn", fn)
        _set(self, "arg", arg)


# the lexemes that may follow an atom inside a longer expression
_CONTINUES = frozenset("+-*/^(")


class ExprParser:
    """Recursive-descent parser over a list of lexemes (see
    :func:`tokenize`) that ends with the empty lexeme.

    The same instance parses plain expressions, vectors and matrices;
    scenario parsing reads a file's statements back to back with one
    instance, so its cache of leaves spans the file.  The parser reads
    lexemes only: ``locate(index)`` gives the (line, column) of the
    lexeme at ``index``, and is called only to raise a ParseError.
    """

    def __init__(self, lexemes: list[str], locate: Callable[[int], tuple[int, int]]):
        self.lexemes = lexemes
        self.pos = 0
        self.locate = locate
        self._leaves: dict = {}  # lexeme -> its Num or Coord; nodes are immutable

    def _leaf(self, lexeme: str) -> Expr:
        """The Num of a number lexeme or the Coord of an identifier."""
        node = self._leaves.get(lexeme)
        if node is None:
            node = Num(float(lexeme)) if lexeme[0] in _DIGITS else Coord(lexeme)
            self._leaves[lexeme] = node
        return node

    def error(self, message: str, index: int, expected: tuple = ()) -> ParseError:
        return ParseError(message, *self.locate(index), expected=expected)

    def describe(self) -> str:
        """The current token as error messages name it, as in ``RBRACKET ']'``."""
        lexeme = self.lexemes[self.pos]
        return f"{token_kind(lexeme)} {lexeme!r}"

    def expect(self, lexeme: str, expected_name: str) -> None:
        if self.lexemes[self.pos] != lexeme:
            raise self.error(f"unexpected {self.describe()}", self.pos, (expected_name,))
        self.pos += 1

    def expect_ident(self, expected_name: str) -> str:
        lexeme = self.lexemes[self.pos]
        if token_kind(lexeme) != "IDENT":
            raise self.error(f"unexpected {self.describe()}", self.pos, (expected_name,))
        self.pos += 1
        return lexeme

    # expression grammar ---------------------------------------------------
    # Each rule returns its node and the node's height (nodes on the longest
    # root-to-leaf path), so the height is bounded without another walk.

    def parse_expr(self) -> Expr:
        start = self.pos
        lexeme = self.lexemes[start]
        if lexeme not in _KINDS and self.lexemes[start + 1] not in _CONTINUES:
            # a lone number or coordinate, as the grammar below would parse it
            self.pos += 1
            return self._leaf(lexeme)
        node, height = self._sum(0)
        # the compile walk recurses once per level, and a + - * / chain is as
        # deep as it is long, so a whole expression's height is bounded too
        if height > _MAX_DEPTH:
            raise self.error(f"expression nests too deeply ({height} levels, at most "
                             f"{_MAX_DEPTH})", start)
        return node

    def _sum(self, depth: int) -> tuple[Expr, int]:
        node, height = self._product(depth + 1)
        lexemes = self.lexemes
        while (op := lexemes[self.pos]) == "+" or op == "-":
            self.pos += 1
            right, right_height = self._product(depth + 1)
            node, height = BinOp(op, node, right), 1 + max(height, right_height)
        return node, height

    def _product(self, depth: int) -> tuple[Expr, int]:
        node, height = self._factor(depth + 1)
        lexemes = self.lexemes
        while (op := lexemes[self.pos]) == "*" or op == "/":
            self.pos += 1
            right, right_height = self._factor(depth + 1)
            node, height = BinOp(op, node, right), 1 + max(height, right_height)
        return node, height

    def _factor(self, depth: int) -> tuple[Expr, int]:
        # every recursion of the grammar passes here, so this bounds nesting
        if depth > _MAX_DEPTH:
            raise self.error("expression nests too deeply", self.pos)
        if self.lexemes[self.pos] == "-":
            self.pos += 1
            arg, height = self._factor(depth + 1)
            return Neg(arg), height + 1
        return self._power(depth + 1)

    def _power(self, depth: int) -> tuple[Expr, int]:
        node, height = self._atom(depth + 1)
        if self.lexemes[self.pos] == "^":
            self.pos += 1
            return Pow(node, self._parse_exponent()), height + 1
        return node, height

    def _parse_exponent(self) -> int:
        start = self.pos
        lexeme = self.lexemes[start]
        if not lexeme.isdigit():  # a scanned number with no '.' or exponent
            raise self.error(f"exponent must be a nonnegative integer literal, got {lexeme!r}",
                             start, ("integer",))
        self.pos += 1
        value = int(lexeme)
        if self.lexemes[self.pos] == "^":
            self.pos += 1
            upper = self._parse_exponent()
            if upper * math.log10(max(value, 2)) > 12:
                raise self.error("integer exponent tower too large", start)
            value = value ** upper
        if value > _MAX_EXPONENT:
            raise self.error("integer exponent too large", start)
        return value

    def _atom(self, depth: int) -> tuple[Expr, int]:
        lexeme = self.lexemes[self.pos]
        if lexeme not in _KINDS:  # a number or an identifier
            self.pos += 1
            if self.lexemes[self.pos] == "(" and lexeme[0] not in _DIGITS:
                self.pos += 1
                arg, height = self._sum(depth + 1)
                self.expect(")", "')'")
                return Call(lexeme, arg), height + 1
            return self._leaf(lexeme), 1
        if lexeme == "(":
            self.pos += 1
            node = self._sum(depth + 1)
            self.expect(")", "')'")
            return node
        raise self.error(f"unexpected {self.describe()}", self.pos,
                         ("number", "identifier", "'('"))

    # aggregate values -----------------------------------------------------

    def parse_vector(self) -> tuple[Expr, ...]:
        self.expect("[", "'['")
        entries = [self.parse_expr()]
        while self.lexemes[self.pos] == ",":
            self.pos += 1
            entries.append(self.parse_expr())
        self.expect("]", "']'")
        return tuple(entries)

    def parse_matrix(self) -> tuple[tuple[Expr, ...], ...]:
        start = self.pos
        self.expect("[", "'['")
        rows = [self.parse_vector()]
        while self.lexemes[self.pos] == ",":
            self.pos += 1
            rows.append(self.parse_vector())
        self.expect("]", "']'")
        width = len(rows[0])
        for idx, row in enumerate(rows):
            if len(row) != width:
                raise ValidationError(
                    f"matrix starting at line {self.locate(start)[0]} is ragged: "
                    f"row {idx + 1} has {len(row)} entries, expected {width}"
                )
        return tuple(rows)

    def parse_value(self):
        """Expression, vector or matrix, dispatched on the leading brackets."""
        if self.lexemes[self.pos] == "[":
            if self.lexemes[self.pos + 1] == "[":
                return self.parse_matrix()
            return self.parse_vector()
        return self.parse_expr()


def parse_expression(text: str) -> Expr:
    """Parse a single expression; the whole string must be consumed."""
    lexemes = tokenize(text)
    parser = ExprParser(lexemes, lambda index: token_positions(text)[index])
    node = parser.parse_expr()
    while lexemes[parser.pos] == "\n":
        parser.pos += 1
    if lexemes[parser.pos] != "":
        raise parser.error(f"trailing {parser.describe()} after expression", parser.pos,
                           ("end of input",))
    return node


_LEVEL_SUM, _LEVEL_PROD, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _LEVEL_SUM if e.op in "+-" else _LEVEL_PROD
    if isinstance(e, Neg):
        return _LEVEL_UNARY
    if isinstance(e, Pow):
        return _LEVEL_POW
    return _LEVEL_ATOM


def _wrap(e: Expr, minimum: int) -> str:
    text = format_expr(e)
    return f"({text})" if _level(e) < minimum else text


def format_expr(e: Expr) -> str:
    """Render an AST back to source; parsing the output reproduces the AST."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Coord):
        return e.name
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, _LEVEL_UNARY)
    if isinstance(e, Pow):
        return _wrap(e.base, _LEVEL_ATOM) + f"^{e.power}"
    if isinstance(e, Call):
        return f"{e.fn}({format_expr(e.arg)})"
    if isinstance(e, BinOp):
        own = _level(e)
        return f"{_wrap(e.left, own)}{e.op}{_wrap(e.right, own + 1)}"
    raise TypeError(f"not an expression node: {e!r}")


def _divide(numerator, denominator):
    if (not denominator.all()) if type(denominator) is _COLUMN else denominator == 0.0:
        raise NonFiniteError("division by zero")
    return numerator / denominator


def _elementwise(name: str, ufunc, *args):
    """The op of one numpy kernel, ``ufunc(x, *args)``, on a float (giving a
    float) or on a whole float64 column.  It fails closed with ``math``'s
    exceptions, found from the result, since numpy's warnings are off
    wherever a program runs or folds: NaN from an argument that is not NaN
    is the square root of a negative value (NonFiniteError) or sin or cos
    of an infinity (ValueError), and an infinity from a finite argument is
    an overflow (NonFiniteError)."""
    def call(x):
        y = ufunc(x, *args)
        if type(x) is _COLUMN:
            finite = np.isfinite(y).all()
        else:  # math.isfinite: np.isfinite costs more than the kernel here
            y = float(y)
            finite = math.isfinite(y)
        if not finite:
            domain = np.isnan(y) & ~np.isnan(x)
            if domain.any():
                if name == "sqrt":  # the first offending entry, as on its float
                    raise NonFiniteError(
                        f"sqrt of negative value {float(np.ravel(x)[np.argmax(domain)])}")
                raise ValueError("math domain error")
            if (np.isinf(y) & np.isfinite(x)).any():
                raise NonFiniteError(f"{name} overflows")
        return y

    return call


# The tangent rules: the tangent of an instruction's result from its result
# y, its arguments' values a (and b) and their tangents ta (and tb), each an
# (N, s) block, an (s,) row broadcast over the batch, or None for zero.  A
# binary rule is called when either tangent is not None, a unary one when
# its argument's is not.

def _add_tangent(y, a, b, ta, tb):
    return tb if ta is None else ta if tb is None else ta + tb


def _sub_tangent(y, a, b, ta, tb):
    return -tb if ta is None else ta if tb is None else ta - tb


def _mul_tangent(y, a, b, ta, tb):
    return a * tb if ta is None else ta * b if tb is None else ta * b + a * tb


def _div_tangent(y, a, b, ta, tb):
    return ta / b if tb is None else ((-y * tb) if ta is None else ta - y * tb) / b


def _function(name: str):
    """The kernel of the function ``name``: its ufunc in FUNCTIONS, looked
    up at each call, through ``_elementwise``."""
    return _elementwise(name, lambda x: FUNCTIONS[name](x))


def _power_op(k: int) -> tuple:
    """The kernel and tangent rule of ``^k``; a square is one multiply,
    np.power's bits."""
    if k == 2:
        return _elementwise("power", lambda x: x * x), lambda y, a, ta: (a + a) * ta
    if k == 0:
        return _elementwise("power", np.power, 0), lambda y, a, ta: None
    return _elementwise("power", np.power, k), lambda y, a, ta: (k * np.power(a, k - 1)) * ta


# an instruction's operation by label, as (value kernel, tangent rule): the
# binary operators, "neg" for unary minus and the functions; an int
# exponent's pair comes from _power_op
_OPS = {
    "+": (operator.add, _add_tangent),
    "-": (operator.sub, _sub_tangent),
    "*": (operator.mul, _mul_tangent),
    "/": (_divide, _div_tangent),
    "neg": (operator.neg, lambda y, a, ta: -ta),
    "sin": (_function("sin"), lambda y, a, ta: np.cos(a) * ta),
    "cos": (_function("cos"), lambda y, a, ta: -np.sin(a) * ta),
    "exp": (_function("exp"), lambda y, a, ta: y * ta),
    "sqrt": (_function("sqrt"), lambda y, a, ta: ta / (y + y)),
}

# what evaluating a subtree may raise; a constant subtree that raises is not
# folded, so it raises when the program runs, as it would unfolded
_EVAL_ERRORS = (NonFiniteError, ValueError)


class Program(Record):
    """A straight-line program: the entries of one map over a positional
    list of values, one value per coordinate name.

    Slot ``i`` holds coordinate ``i`` for ``i < width``; every later slot
    holds a constant folded at compile time, or the result of one
    instruction ``(label, op, argument slots, result slot)``, ``op`` being
    the label's value kernel.  ``code`` lists the instructions in the order
    a tree walk of the entries first reaches them, and ``outputs`` gives
    each entry's slot.
    """

    __slots__ = ("width", "template", "code", "outputs")
    # template: the slots from width on, each a constant or None

    @property
    def folded(self) -> tuple:
        """Each entry's value if the compile walk folded it to a constant,
        else None."""
        return tuple(self.template[s - self.width] if s >= self.width else None
                     for s in self.outputs)

    def __call__(self, values) -> list:
        """The entries' values, as a list (see :meth:`run`)."""
        slots = self.run(values)
        return [slots[s] for s in self.outputs]

    def run(self, values) -> list:
        """Every slot's value after running the program on ``values``.

        ``values`` is one point, a float per name, or a batch of points, a
        float64 column per name, all of one shape; on a batch a slot is a
        column, or a Python number if it reads no coordinate.  A batch
        raises the error of its first failing operation, the same text as
        on the float of the column's first offending entry.
        """
        self.check_width(len(values))
        v = [*values, *self.template]
        with np.errstate(all="ignore"):
            for _, op, args, out in self.code:
                # unpacking the arguments with * would cost more than the op
                if len(args) == 2:
                    v[out] = op(v[args[0]], v[args[1]])
                else:
                    v[out] = op(v[args[0]])
        return v

    def tangents(self, columns, seeds: np.ndarray) -> tuple[list, list]:
        """Every slot's value and tangent, from one forward-mode run.

        ``columns`` holds each name's (N, 1) value column, and row i of the
        (width, s) array ``seeds`` the tangent of name i along s directions;
        a zero row seeds nothing.  The values are :meth:`run`'s, raising as
        it raises them.  A slot's tangent is its derivative along the s
        directions, an (N, s) block (or an (s,) row, the same at every
        point), or None where it is zero: a constant, or a slot that reads
        no seeded name.  A tangent that is not finite is returned as it is,
        for the caller to refuse.
        """
        v = self.run(columns)
        t = [row if row.any() else None for row in seeds] + [None] * len(self.template)
        with np.errstate(all="ignore"):
            for label, _, args, out in self.code:
                rule = _OPS[label][1] if label in _OPS else _power_op(label)[1]
                if len(args) == 2:
                    ta, tb = t[args[0]], t[args[1]]
                    if ta is not None or tb is not None:
                        t[out] = rule(v[out], v[args[0]], v[args[1]], ta, tb)
                elif t[args[0]] is not None:
                    t[out] = rule(v[out], v[args[0]], t[args[0]])
        return v, t

    def check_width(self, count: int) -> None:
        """Raise ValueError unless ``count`` is the number of names."""
        if count != self.width:
            raise ValueError(f"expected {self.width} values, got {count}")


def compile_exprs(exprs: Sequence[Expr], names: Iterable[str],
                  context: str = "expression") -> Program:
    """Compile the entries of one map into one :class:`Program` over the
    coordinates ``names``, in one walk of each entry's tree.

    The walk rejects an entry that reads a coordinate not in ``names`` or
    calls a function not in FUNCTIONS with a ValidationError naming
    ``context``; folds every subtree that reads no coordinate, and whose
    evaluation does not raise, into a constant; and gives structurally
    equal subtrees one slot, literals being told apart by their exact repr
    (0.0 and -0.0 are equal as floats).  Running the program does the float
    operations of walking each entry's tree in turn, in the same order,
    but computes a shared subtree once and a folded one never.
    Evaluation is pure and each operation is one kernel (see the module
    docstring), so the values are the bits of tree walks calling the same
    kernels, and on one point the first error raised is theirs: division
    by zero, square roots of negative numbers and overflowing powers or
    functions raise NonFiniteError, sin or cos of an infinity ValueError,
    and an overflowing product or sum is a silent inf, on a batch as on
    floats (a batch raises its first failing operation's error, see
    :meth:`Program.run`).
    """
    names = tuple(names)
    width = len(names)
    index = {name: i for i, name in enumerate(names)}
    kernels = {label: kernel for label, (kernel, _) in _OPS.items()}
    slots: dict = {}  # constant repr, or (label, argument slots) -> slot
    template: list = []
    code: list = []
    unknown_names: set = set()
    unknown_fns: set = set()

    def constant(value) -> int:
        slot = slots.get(repr(value))
        if slot is None:
            slot = slots[repr(value)] = width + len(template)
            template.append(value)
        return slot

    def emit(label, args: tuple) -> int:
        key = (label, args)
        slot = slots.get(key)
        if slot is not None:
            return slot
        if min(args) < 0:  # an argument names an unknown coordinate or function
            return -1
        op = kernels.get(label)
        if op is None:  # an exponent
            op = kernels[label] = _power_op(label)[0]
        if min(args) >= width:
            known = [template[a - width] for a in args]
            if None not in known:
                try:
                    slot = constant(op(*known))
                except _EVAL_ERRORS:
                    pass
        if slot is None:
            slot = width + len(template)
            template.append(None)
            code.append((label, op, args, slot))
        slots[key] = slot
        return slot

    def visit(e: Expr) -> int:
        kind = type(e)
        if kind is Num:
            return constant(e.value)
        if kind is Coord:
            if e.name not in index:
                unknown_names.add(e.name)
                return -1
            return index[e.name]
        if kind is BinOp:
            return emit(e.op, (visit(e.left), visit(e.right)))
        if kind is Neg:
            return emit("neg", (visit(e.arg),))
        if kind is Pow:
            return emit(e.power, (visit(e.base),))
        if kind is Call:
            arg = visit(e.arg)
            if e.fn not in FUNCTIONS:
                unknown_fns.add(e.fn)
                return -1
            return emit(e.fn, (arg,))
        raise TypeError(f"not an expression node: {e!r}")

    outputs = []
    with np.errstate(all="ignore"):  # folding runs the kernels
        for e in exprs:
            outputs.append(visit(e))
            if unknown_names:
                raise UnknownIdentifierError(
                    f"{context}: unknown identifier(s) {sorted(unknown_names)}; "
                    f"allowed coordinates are {sorted(names)}"
                )
            if unknown_fns:
                raise ValidationError(
                    f"{context}: unknown function(s) {sorted(unknown_fns)}; "
                    f"available functions are {sorted(FUNCTIONS)}"
                )
    return Program(width, tuple(template), tuple(code), tuple(outputs))


def eval_expr(e: Expr, env: dict, context: str = "expression") -> float:
    """Evaluate an AST once over a coordinate environment (name -> value).

    A one-off :func:`compile_exprs`, whose errors name ``context``; code
    that evaluates the same expression at many points should compile it
    once instead.
    """
    return compile_exprs((e,), env, context)(list(env.values()))[0]
